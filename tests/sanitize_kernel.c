/*
 * Test program for src/rpim/_kernel.c under -fsanitize=address,undefined,
 * built and run by tests/test_repair.py::test_kernel_under_sanitizers.
 *
 * It compresses seeded random and run-heavy inputs, n < 2 included,
 * an input whose final sequence and rules fill all n slots of the
 * working array they come back in, inputs whose distinct-pair counts
 * straddle every growth step of the record store, and rule counts that
 * straddle every doubling of the symbol maps the kernel files fresh and
 * self pairs under.  Inputs whose top count is one below, at and one
 * above the kernel's BUCKETS pass the top from its heap down to its
 * count buckets, each handed back to the heap when taken, with many
 * pairs tied, counts falling across BUCKETS, and pairs born at the count
 * being taken; a walk prefix repeated BUCKETS - 1 to BUCKETS + 1 times
 * ties over a thousand pairs, so a bucket list and the heap it is handed
 * to grow through many doublings.  Long solid inputs and inputs that end
 * or start in a long run make tombstone blocks that start at slot 1 and
 * end at the last slot, so the block links at both edges of the working
 * array are written and followed.  Inputs of LONG symbols and more do
 * the same, with runs, chains, run-head repair and a pair whose thread
 * starts at slot 1 and ends at slot n - 2, so that the walk's read-ahead
 * hints look up to both ends of long arrays.  Inputs whose slot block
 * the kernel keeps between calls, in turn a solid one, a smaller one, a
 * larger one and one below the size kept, run on blocks that hold the
 * last call's values, and rpim_release frees the block at the end.
 * Each grammar must reference only earlier symbols and expand back to
 * its input under this program's own stack expander.  The kernel's
 * expand, a first call that measures into a work table of exactly the
 * size it documents and a second that fills an output allocated to the
 * byte, must agree with it, on a comb as deep as it has rules too; the
 * first call must refuse a limit one short and an undefined symbol,
 * naming the rule or symbol, and the second must refuse an output one
 * byte short or one byte long without writing outside it, and a
 * sequence symbol or rule side changed after the first call to one
 * outside the table or the rule's prefix.  Symbols of 1 to 33 bytes,
 * around expand's 16-byte block copy, each copied twice and last, and
 * terminal 255 last, take that copy to the end of its exact output and
 * of the slack after its byte table.  Every table and output is freed,
 * so LeakSanitizer checks the error paths as well.  An n above the input
 * cap must be refused before the one-byte input is read.
 *
 * Every grammar's container body is encoded and decoded back into
 * buffers of exactly the body's size; the decoder's expanded length must
 * be the input's, and past a limit one short.  Its truncations must all
 * be refused as truncated, and each single-byte mutant the decoder
 * accepts must encode back to the same bytes.  Forged bodies cover the varint
 * edges 2^64 - 1, 2^64 and eleven bytes, counts far past the data, and
 * a limit that unused rules pass and the sequence meets exactly.
 * The pixel layout moves every sample of small images, in every
 * linearization order, both ways between exact-size buffers, as
 * check_layout describes.
 * Exit status 0 means every case passed; a sanitizer report aborts with
 * its own.
 */

#include <stdio.h>

/* one translation unit: the kernel's own entry points, status codes,
   NONTERMINAL_BASE and BUCKETS, with every call type-checked */
#include "../src/rpim/_kernel.c"

/* The kernel's record store, born list and heap start empty and grow
   from one element by doubling, and its symbol maps grow from FIRST_MAP
   cells.  FIRST_STEP is the smallest record-store size whose pair
   counts one below and one above both have a walk prefix, and LONG an
   input length at which the kernel's slot arrays, 16 bytes per symbol,
   fill a 2 MiB cache */
enum { FIRST_STEP = 2, FIRST_MAP = 256, LONG = 1 << 17 };

/* Two xorshift streams: one draws the case inputs, the other the mutant
   bytes, so a change to one grammar's body leaves later inputs alone */
static uint64_t input_rng = 0x9E3779B97F4A7C15ull;
static uint64_t mutant_rng = 0xD1B54A32D192ED03ull;

static uint64_t next_random(uint64_t *state)
{
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    return *state;
}

static int below(int limit)
{
    return (int)(next_random(&input_rng) % (uint64_t)limit);
}

static void *must_alloc(size_t size)
{
    void *p = malloc(size ? size : 1);
    if (p == NULL) {
        fprintf(stderr, "sanitize_kernel: out of memory\n");
        exit(2);
    }
    return p;
}

static int failures;

static void fail(const char *label, int64_t n, const char *what)
{
    fprintf(stderr, "FAIL %s n=%lld: %s\n", label, (long long)n, what);
    failures++;
}

/* Expand seq with an explicit stack, one symbol at a time, into out,
   which takes cap bytes, rule k being (rules[2k], rules[2k + 1]).
   Returns the length, or -1 when a symbol is undefined or the expansion
   would pass cap. */
static int64_t stack_expand(const int64_t *rules, int64_t nrules,
                            const int64_t *seq, int64_t nseq, uint8_t *out,
                            int64_t cap)
{
    /* each level holds a right side and the symbol on top: nrules + 1 */
    int64_t *stack = must_alloc((size_t)(nrules + 1) * sizeof *stack);
    int64_t w = 0;
    for (int64_t i = 0; i < nseq && w >= 0; i++) {
        int64_t top = 0;
        stack[top++] = seq[i];
        while (top > 0 && w >= 0) {
            int64_t s = stack[--top];
            if (s < 0 || s >= NONTERMINAL_BASE + nrules)
                w = -1;
            else if (s < NONTERMINAL_BASE)
                w = w < cap ? (out[w] = (uint8_t)s, w + 1) : -1;
            else {
                stack[top++] = rules[2 * (s - NONTERMINAL_BASE) + 1];
                stack[top++] = rules[2 * (s - NONTERMINAL_BASE)];
            }
        }
    }
    free(stack);
    return w;
}

/* A work table for rpim_expand over nrules rules, of exactly the
   2 * (256 + nrules) + nrules + 1 values it documents. */
static uint64_t *expand_table(int64_t nrules)
{
    return must_alloc((size_t)(2 * (NONTERMINAL_BASE + nrules) + nrules + 1)
                      * sizeof(uint64_t));
}

/* rpim_expand up to limit, as the wrapper calls it: the first call, and
   when it measures, the second into an output of exactly the measured
   length.  Returns the first call's status, with info[0:2] as it set
   them, and *out the filled output, or NULL after a fault; the caller
   frees it. */
static int kernel_expand(const char *label, const int64_t *rules,
                         int64_t nrules, const int64_t *seq, int64_t nseq,
                         uint64_t limit, uint8_t **out, int64_t *info)
{
    uint64_t *table = expand_table(nrules);
    int status = rpim_expand(rules, nrules, seq, nseq, limit, table, NULL,
                             info);
    *out = NULL;
    if (status == RPIM_OK) {
        *out = must_alloc((size_t)info[0]);
        if (rpim_expand(rules, nrules, seq, nseq, (uint64_t)info[0], table,
                        *out, info) != RPIM_OK)
            fail(label, info[0], "expand did not fill what it measured");
    }
    free(table);
    return status;
}

/* The kernel's expand on a grammar that expands to expected[0:n]: it
   must agree, and refuse a limit one short.  After the first call
   alone measures n, the second must refuse an output of n - 1 bytes and
   one of n + 1, each allocated to the byte, so that a write past either
   is a sanitizer report. */
static void check_expand(const char *label, const int64_t *rules,
                         int64_t nrules, const int64_t *seq, int64_t nseq,
                         const uint8_t *expected, int64_t n)
{
    uint8_t *out;
    int64_t info[2];
    if (kernel_expand(label, rules, nrules, seq, nseq, (uint64_t)n, &out,
                      info) != 0
        || info[0] != n || memcmp(out, expected, (size_t)n) != 0)
        fail(label, n, "expand disagrees with the stack expander");
    free(out);
    if (n > 0) {
        if (kernel_expand(label, rules, nrules, seq, nseq, (uint64_t)n - 1,
                          &out, info) != RPIM_ELIMIT)
            fail(label, n, "expand passed a limit one short");
        free(out);
    }
    uint64_t *table = expand_table(nrules);
    if (rpim_expand(rules, nrules, seq, nseq, (uint64_t)n, table, NULL,
                    info) != RPIM_OK || info[0] != n)
        fail(label, n, "expand did not measure its grammar");
    for (int64_t size = n > 0 ? n - 1 : n + 1; size <= n + 1; size += 2) {
        out = must_alloc((size_t)size);
        if (rpim_expand(rules, nrules, seq, nseq, (uint64_t)size, table,
                        out, info) != RPIM_EBOUND)
            fail(label, size, "expand filled an output of the wrong size");
        free(out);
    }
    free(table);
}

/* rpim_decode_body on body[0:size] into an array of exactly cap values,
   so that any write past it is a sanitizer report, as is one past the
   length table the decoder allocates for itself; returns the status,
   with the array in *out (the caller frees it). */
static int decode(const uint8_t *body, int64_t size, int64_t cap,
                  uint64_t limit, int64_t *info, int64_t **out)
{
    *out = must_alloc((size_t)cap * sizeof **out);
    return rpim_decode_body(body, size, 0, *out, cap, limit, info);
}

/* rpim_encode_body into a fresh buffer of the bound it documents;
   returns the status, with the buffer in *out (the caller frees it). */
static int encode(const int64_t *rules, int64_t nrules, const int64_t *seq,
                  int64_t nseq, uint8_t **out, int64_t *size)
{
    int64_t cap = 9 * (2 * nrules + nseq + 2);
    *out = must_alloc((size_t)cap);
    return rpim_encode_body(rules, nrules, seq, nseq, *out, cap, size);
}

/* Positions to cut or mutate a body of size bytes at: all of them up to
   FULL_SWEEP bytes, else about SAMPLES spread evenly. */
enum { FULL_SWEEP = 256, SAMPLES = 16 };

static int64_t sweep_step(int64_t size)
{
    return size <= FULL_SWEEP ? 1 : size / SAMPLES;
}

/* A single-byte mutant of body the decoder accepts must be canonical:
   its values encode back to exactly its bytes. */
static void check_accepted(const char *label, const uint8_t *body,
                           int64_t size, const int64_t *values,
                           const int64_t *info)
{
    int64_t nrules = info[0], nseq = info[1], written;
    uint8_t *again;
    if (encode(values, nrules, values + 2 * nrules, nseq, &again, &written)
        != 0
        || written != size || memcmp(again, body, (size_t)size) != 0)
        fail(label, size, "an accepted body does not encode back to itself");
    free(again);
}

/* Encode the grammar, which expands to n bytes, decode it back, and
   decode its truncations and single-byte mutants. */
static void check_codec(const char *label, const int64_t *rules,
                        int64_t nrules, const int64_t *seq, int64_t nseq,
                        int64_t n)
{
    uint8_t *body, *mutant;
    int64_t size, info[5], *out;
    if (encode(rules, nrules, seq, nseq, &body, &size) != 0) {
        fail(label, nseq, "encode refused a grammar");
        free(body);
        return;
    }
    /* an output one byte short is refused without a write past it */
    uint8_t *short_out = must_alloc((size_t)size - 1);
    if (rpim_encode_body(rules, nrules, seq, nseq, short_out, size - 1,
                         &info[0]) != RPIM_EBOUND)
        fail(label, nseq, "encode took an output one byte short");
    free(short_out);

    if (decode(body, size, size, (uint64_t)n, info, &out) != 0
        || info[0] != nrules || info[1] != nseq || info[4] != n
        || memcmp(out, rules, (size_t)(2 * nrules) * sizeof *out) != 0
        || memcmp(out + 2 * nrules, seq, (size_t)nseq * sizeof *out) != 0)
        fail(label, nseq, "decode does not give back the grammar");
    free(out);
    if (n > 0) {
        if (decode(body, size, size, (uint64_t)n - 1, info, &out)
            != RPIM_ELIMIT)
            fail(label, nseq, "decode passed a length limit one short");
        free(out);
    }
    /* a valid body into an array one value short of what it holds */
    int64_t values = 2 * nrules + nseq;
    if (values > 0) {
        if (decode(body, size, values - 1, UINT64_MAX, info, &out)
            != RPIM_EBOUND)
            fail(label, nseq, "decode took an array one value short");
        free(out);
    }

    int64_t step = sweep_step(size);
    for (int64_t cut = 0; cut < size; cut += step) {
        /* the copy ends where the cut does, so a read past it is caught */
        uint8_t *head = must_alloc((size_t)cut);
        memcpy(head, body, (size_t)cut);
        if (decode(head, cut, cut, UINT64_MAX, info, &out)
            != RPIM_ETRUNCATED)
            fail(label, cut, "a truncated body was not refused");
        free(out);
        free(head);
    }
    mutant = must_alloc((size_t)size);
    for (int64_t at = 0; at < size; at += step) {
        const uint8_t bytes[] = {0x00, 0x7F, 0x80, 0xFF,
                                 (uint8_t)(body[at] ^ 1),
                                 (uint8_t)next_random(&mutant_rng)};
        for (size_t k = 0; k < sizeof bytes; k++) {
            memcpy(mutant, body, (size_t)size);
            mutant[at] = bytes[k];
            int status = decode(mutant, size, size, UINT64_MAX, info, &out);
            if (status == 0)
                check_accepted(label, mutant, size, out, info);
            else if (status < RPIM_ETRUNCATED || status > RPIM_ETRAILING)
                fail(label, at, "a mutant gave an unknown status");
            free(out);
        }
    }
    free(mutant);
    free(body);
}

/* Compress input and check the grammar and its expansions; returns the
   rule count, or -1 on a failure. */
static int64_t check(const char *label, const uint8_t *input, int64_t n,
                     int64_t min_frequency)
{
    int32_t *sym = must_alloc((size_t)n * sizeof *sym);
    int64_t sizes[2];
    int status = rpim_compress(input, n, min_frequency, sym, sizes);
    int64_t nrules = sizes[0], length = sizes[1];
    if (status != 0) {
        fail(label, n, "nonzero status");
        nrules = -1;
    } else if (nrules < 0 || length < 0 || length > n - 2 * nrules)
        fail(label, n, "sizes out of range");
    else {
        /* the rules follow the final sequence */
        const int32_t *rules = sym + length;
        int64_t *rules64 = must_alloc((size_t)(2 * nrules) * sizeof *rules64);
        int64_t *seq64 = must_alloc((size_t)length * sizeof *seq64);
        uint8_t *own = must_alloc((size_t)n);
        int valid = 1;
        for (int64_t j = 0; j < 2 * nrules; j++) {
            rules64[j] = rules[j];
            if (rules[j] < 0 || rules[j] >= NONTERMINAL_BASE + j / 2)
                valid = 0;
        }
        for (int64_t i = 0; i < length; i++)
            seq64[i] = sym[i];
        if (!valid)
            fail(label, n, "rule references a later symbol");
        else if (stack_expand(rules64, nrules, seq64, length, own, n) != n
                 || memcmp(own, input, (size_t)n) != 0)
            fail(label, n, "expansion differs from the input");
        else {
            check_expand(label, rules64, nrules, seq64, length, own, n);
            check_codec(label, rules64, nrules, seq64, length, n);
        }
        free(rules64);
        free(seq64);
        free(own);
    }
    free(sym);
    return nrules;
}

/* Hand-built grammars: a stack at its bound, lengths at the 2^63 limit,
   and undefined symbols. */
static void check_forged_grammars(void)
{
    /* a comb: rule k = (rule k - 1, 'c'), as deep as it is long, so its
       top needs all DEPTH + 1 entries of expand's stack */
    enum { DEPTH = 1000 };
    int64_t comb[2 * DEPTH];
    comb[0] = 'a';
    comb[1] = 'b';
    for (int64_t k = 1; k < DEPTH; k++) {
        comb[2 * k] = NONTERMINAL_BASE + k - 1;
        comb[2 * k + 1] = 'c';
    }
    int64_t top = NONTERMINAL_BASE + DEPTH - 1;
    uint8_t *expected = must_alloc(DEPTH + 1);
    if (stack_expand(comb, DEPTH, &top, 1, expected, DEPTH + 1) != DEPTH + 1)
        fail("comb", DEPTH, "stack expander failed");
    check_expand("comb", comb, DEPTH, &top, 1, expected, DEPTH + 1);
    free(expected);

    /* a 63-rule doubling chain: rule 62 stands for 2^63 bytes, one past
       the widest limit, and all rules together for 2^64 - 1 */
    enum { CHAIN = 63 };
    int64_t chain[2 * CHAIN], all[CHAIN + 1];
    int64_t last = NONTERMINAL_BASE + CHAIN - 1;
    chain[0] = chain[1] = 'a';
    all[0] = 'a';
    for (int64_t k = 1; k < CHAIN; k++)
        chain[2 * k] = chain[2 * k + 1] = NONTERMINAL_BASE + k - 1;
    for (int64_t k = 0; k < CHAIN; k++)
        all[k + 1] = NONTERMINAL_BASE + k;
    uint8_t *out;
    int64_t info[2];
    if (kernel_expand("chain", chain, CHAIN, &last, 1, INT64_MAX, &out, info)
        != RPIM_ELIMIT)
        fail("chain", CHAIN, "2^63 bytes passed a limit one short");
    free(out);
    if (kernel_expand("chain", chain, CHAIN, all, CHAIN + 1, INT64_MAX, &out,
                      info) != RPIM_ELIMIT)
        fail("chain", CHAIN, "2^64 - 1 bytes passed the limit");
    free(out);
    if (kernel_expand("chain", chain, CHAIN, all, 1, (uint64_t)INT64_MAX + 1,
                      &out, info) != RPIM_EBOUND)
        fail("chain", CHAIN, "a limit of 2^63 was taken");
    free(out);

    /* undefined symbols: a rule referencing itself, a sequence symbol
       one past the rules, and a negative one after a defined one; each
       must be named by its index, and a symbol by its value too */
    int64_t self[2] = {NONTERMINAL_BASE, NONTERMINAL_BASE};
    int64_t first = NONTERMINAL_BASE;
    int64_t past[2] = {'a', NONTERMINAL_BASE + DEPTH}, negative[2] = {'a', -1};
    struct {
        const int64_t *rules;
        int64_t nrules;
        const int64_t *seq;
        int64_t nseq;
        int status;
        int64_t where, value;
    } undefined[3] = {
        {self, 1, &first, 1, RPIM_ERULE, 0, 0},
        {comb, DEPTH, past, 2, RPIM_ESYMBOL, 1, NONTERMINAL_BASE + DEPTH},
        {comb, DEPTH, negative, 2, RPIM_ESYMBOL, 1, -1}};
    for (int k = 0; k < 3; k++) {
        if (kernel_expand("undefined", undefined[k].rules, undefined[k].nrules,
                          undefined[k].seq, undefined[k].nseq, INT64_MAX,
                          &out, info) != undefined[k].status
            || info[0] != undefined[k].where
            || info[1] != undefined[k].value)
            fail("undefined", k, "expand misreported an undefined symbol");
        free(out);
    }
}

/* A grammar that changes between rpim_expand's two calls: a sequence
   symbol or a rule side the first call measured becomes one past the
   table, a negative one, its own rule, or a defined symbol of another
   length.  The second call must refuse each, with no read outside the
   table and no write outside the output, both allocated to the byte. */
static void check_changed_between_calls(void)
{
    /* rule 0 = ('a', 'b'), rule 1 = (rule 0, 'c'): "abc" "d" "ab" */
    int64_t rules[4] = {'a', 'b', NONTERMINAL_BASE, 'c'};
    int64_t seq[3] = {NONTERMINAL_BASE + 1, 'd', NONTERMINAL_BASE};
    const struct {
        int64_t *at;
        int64_t value;
    } cases[] = {
        {&seq[0], NONTERMINAL_BASE + 2}, {&seq[2], -1},
        {&seq[1], NONTERMINAL_BASE + 1}, /* 3 bytes where 'd' was 1 */
        {&rules[0], NONTERMINAL_BASE + 2}, {&rules[3], -1},
        {&rules[2], NONTERMINAL_BASE + 1}, /* rule 1 = (rule 1, 'c') */
        {&rules[3], NONTERMINAL_BASE}, /* rule 1 = "abab", measured 3 */
        {&rules[2], 'x'}, /* rule 1 = "xc", measured 3 */
    };
    for (size_t k = 0; k < sizeof cases / sizeof cases[0]; k++) {
        uint64_t *table = expand_table(2);
        uint8_t *out = must_alloc(6);
        int64_t info[2], kept = *cases[k].at;
        if (rpim_expand(rules, 2, seq, 3, 6, table, NULL, info) != RPIM_OK
            || info[0] != 6)
            fail("changed", (int64_t)k, "expand did not measure 6 bytes");
        *cases[k].at = cases[k].value;
        if (rpim_expand(rules, 2, seq, 3, 6, table, out, info) != RPIM_EBOUND)
            fail("changed", (int64_t)k,
                 "expand took a grammar changed after measuring");
        *cases[k].at = kept;
        free(out);
        free(table);
    }
}

/* Expansions around the kernel's 16-byte block copy.  A symbol of
   each length is used twice, last, so that its second copy reads from
   bytes just written, which its block overlaps, and ends at the
   output's end, which a block would pass; and terminal 255 goes last,
   read from the end of the kernel's byte table into the table's slack.
   The empty sequence gives no bytes. */
static void check_copy_edges(void)
{
    /* rule k = (rule k - 1, a letter), rule 0 = ('y', 'z'): k + 2 bytes;
       a length of 1 is the terminal 'x' */
    enum { RULES = 32, LONGEST = RULES + 1 };
    static const int64_t lengths[] = {1, 2, 15, 16, 17, 31, 32, LONGEST};
    int64_t rules[2 * RULES];
    rules[0] = 'y';
    rules[1] = 'z';
    for (int64_t k = 1; k < RULES; k++) {
        rules[2 * k] = NONTERMINAL_BASE + k - 1;
        rules[2 * k + 1] = 'a' + k % 26;
    }
    uint8_t expected[3 * LONGEST];
    for (size_t k = 0; k < sizeof lengths / sizeof lengths[0]; k++) {
        int64_t s = lengths[k] == 1 ? 'x' : NONTERMINAL_BASE + lengths[k] - 2;
        int64_t twice[2] = {s, s}, between[4] = {'q', s, 255, s};
        int64_t last[2] = {s, 255};
        const int64_t *seqs[3] = {twice, between, last};
        static const int64_t nseq[3] = {2, 4, 2};
        for (int c = 0; c < 3; c++) {
            int64_t n = stack_expand(rules, RULES, seqs[c], nseq[c],
                                     expected, sizeof expected);
            if (n < 0)
                fail("copy edges", lengths[k], "stack expander failed");
            else
                check_expand("copy edges", rules, RULES, seqs[c], nseq[c],
                             expected, n);
        }
    }
    int64_t terminal = 255;
    expected[0] = 255;
    check_expand("copy edges", rules, RULES, &terminal, 1, expected, 1);
    check_expand("copy edges", rules, RULES, &terminal, 0, expected, 0);
}

/* Hand-built bodies: varints at the 64-bit edge and counts far past
   the data, each decoded into an array of exactly the body's size. */
static void check_forged_bodies(void)
{
    static const struct {
        const char *what;
        uint8_t bytes[24];
        int64_t size;
        int status;
        int64_t offset;
    } cases[] = {
        /* no rules; 2^64 - 1 symbols declared, none present */
        {"2^64 - 1", {0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                      0xFF, 0x01}, 11, RPIM_ETRUNCATED, 11},
        /* a length of 2^64, whose top bits fall off in 64 bits */
        {"2^64", {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                  0x80, 0x02}, 11, RPIM_ERANGE, 1},
        /* an eleven-byte varint */
        {"11 bytes", {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x01}, 12, RPIM_EOVERFLOW, 1},
        /* 2^60 symbols declared, eight present */
        {"2^60", {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                  0x10, 1, 2, 3, 4, 5, 6, 7, 8}, 18, RPIM_ETRUNCATED, 18},
        /* 2^32 - 257 rules, the most allowed, and one rule present */
        {"rule count", {0xFF, 0xFD, 0xFF, 0xFF, 0x0F, 'a', 'b'}, 7,
         RPIM_ETRUNCATED, 7},
        /* 2^32 - 256 rules, one too many */
        {"rule count + 1", {0x80, 0xFE, 0xFF, 0xFF, 0x0F}, 5, RPIM_ERANGE, 0},
        /* a valid empty body and a byte after it */
        {"trailing", {0x00, 0x00, 0x00}, 3, RPIM_ETRAILING, 2},
    };
    for (size_t k = 0; k < sizeof cases / sizeof cases[0]; k++) {
        int64_t size = cases[k].size, info[5], *out;
        uint8_t *body = must_alloc((size_t)size);
        memcpy(body, cases[k].bytes, (size_t)size);
        if (decode(body, size, size, UINT64_MAX, info, &out)
            != cases[k].status
            || info[2] != cases[k].offset)
            fail(cases[k].what, size, "forged body misjudged");
        free(out);
        free(body);
    }

    /* rules of 2, 4 and 8 bytes and the sequence (rule 0, 'a') of 3:
       rules the sequence does not use may pass the limit, and the
       sequence may reach it but not pass it by one byte */
    static const uint8_t doubling[] = {3, 'a', 'a', 0x80, 0x02, 0x80, 0x02,
                                       0x81, 0x02, 0x81, 0x02,
                                       2, 0x80, 0x02, 'a'};
    int64_t size = sizeof doubling, info[5], *values;
    uint8_t *body = must_alloc((size_t)size);
    memcpy(body, doubling, (size_t)size);
    if (decode(body, size, size, 3, info, &values) != 0 || info[4] != 3)
        fail("limit", 3, "unused rules past the limit were refused");
    free(values);
    if (decode(body, size, size, 2, info, &values) != RPIM_ELIMIT)
        fail("limit", 2, "a sequence one byte past the limit was taken");
    free(values);
    free(body);

    /* the widest value an int64 holds, and a negative one */
    const int64_t widest = INT64_MAX, negative = -1;
    const uint8_t expected[] = {0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                0xFF, 0xFF, 0xFF, 0x7F};
    uint8_t *out;
    if (encode(NULL, 0, &widest, 1, &out, &size) != 0
        || size != (int64_t)sizeof expected
        || memcmp(out, expected, sizeof expected) != 0)
        fail("encode", INT64_MAX, "the widest int64 encoded wrongly");
    free(out);
    if (encode(NULL, 0, &negative, 1, &out, &size) != RPIM_EBOUND)
        fail("encode", -1, "a negative value was encoded");
    free(out);
}

/* Where linearization order mode puts sample k of pixel (x, y) of a
   w x h image of c channels. */
static int64_t stream_index(int mode, int64_t w, int64_t h, int64_t c,
                            int64_t y, int64_t x, int64_t k)
{
    int64_t col = (mode & LAYOUT_ZIGZAG) && (y & 1) ? w - 1 - x : x;
    return mode & LAYOUT_SPLIT ? (k * h + y) * w + col : (y * w + col) * c + k;
}

/* rpim_layout in every mode, flag and direction, for 1 and 3 channels,
   widths 1 to 9 and heights 1 to 4, on grids of the shortest pitch and
   of one padded to four bytes, so BMP rows of every padding residue:
   each byte must land where stream_index puts it, the padding of a
   grid written must be zero, and the source must be left alone.  The
   stream and the grid are each allocated at their exact size, so a
   write one byte past either is caught.  Then a geometry, mode, flags
   or pitch it refuses must leave both buffers untouched. */
static void check_layout(void)
{
    for (int mode = 0; mode < 4; mode++)
    for (int64_t c = 1; c <= 3; c += 2)
    for (int64_t w = 1; w <= 9; w++)
    for (int64_t h = 1; h <= 4; h++)
    for (int64_t flags = 0; flags < 8; flags++)
    for (int padded = 0; padded < 2; padded++) {
        int bgr = flags & LAYOUT_BGR, to_grid = flags & LAYOUT_TO_GRID;
        int64_t px = bgr ? 3 : c;
        int64_t pitch = padded ? (w * px + 3) & ~3 : w * px;
        int64_t n = w * h * c, size = pitch * h;
        uint8_t *stream = must_alloc((size_t)n);
        uint8_t *grid = must_alloc((size_t)size);
        uint8_t *source = must_alloc((size_t)(to_grid ? n : size));
        for (int64_t j = 0; j < n; j++)
            stream[j] = (uint8_t)below(256);
        for (int64_t j = 0; j < size; j++)
            grid[j] = (uint8_t)below(256);
        memcpy(source, to_grid ? stream : grid, (size_t)(to_grid ? n : size));
        if (rpim_layout(stream, w, h, c, mode, grid, pitch, flags) != RPIM_OK)
            fail("layout", n, "a valid layout was refused");
        if (memcmp(source, to_grid ? stream : grid,
                   (size_t)(to_grid ? n : size)))
            fail("layout", n, "the source changed");
        for (int64_t y = 0; y < h; y++) {
            const uint8_t *row =
                grid + (flags & LAYOUT_BOTTOM_UP ? h - 1 - y : y) * pitch;
            for (int64_t x = 0; x < w; x++)
                for (int64_t b = 0; b < px; b++) {
                    int64_t k = !bgr ? b : c == 3 ? 2 - b : 0;
                    uint8_t sample = stream[stream_index(mode, w, h, c, y,
                                                         x, k)];
                    /* read back, a single channel comes from the last */
                    if ((to_grid || !bgr || c == 3 || b == 2)
                        && row[x * px + b] != sample)
                        fail("layout", n, "a sample was misplaced");
                }
            for (int64_t j = w * px; to_grid && j < pitch; j++)
                if (row[j] != 0)
                    fail("layout", n, "row padding was not zeroed");
        }
        free(source);
        free(grid);
        free(stream);
    }

    /* {width, height, channels, mode, pitch, flags} */
    static const int64_t refused[][6] = {
        {0, 1, 3, 0, 3, 0}, {1, 0, 3, 0, 3, 0}, {1, 1, 2, 0, 2, 0},
        {1, 1, 3, -1, 3, 0}, {1, 1, 3, 4, 3, 0}, {1, 1, 1, 0, 1, -1},
        {1, 1, 1, 0, 1, 8}, {2, 1, 3, 0, 5, 0}, {2, 1, 1, 0, 5, 4},
        {1, 2, 1, 0, INT64_MAX / 2 + 1, 1},
        {INT64_MAX / 3 + 1, 1, 1, 0, INT64_MAX, 1}};
    for (size_t k = 0; k < sizeof refused / sizeof refused[0]; k++) {
        const int64_t *r = refused[k];
        uint8_t stream = 7, grid = 9;
        if (rpim_layout(&stream, r[0], r[1], r[2], r[3], &grid, r[4], r[5])
                != RPIM_EBOUND || stream != 7 || grid != 9)
            fail("layout", (int64_t)k, "a bad layout was not refused");
    }
}

/* Fill buf with runs of length 1..longest over alphabet symbols. */
static void runs(uint8_t *buf, int64_t n, int alphabet, int longest)
{
    for (int64_t i = 0; i < n;) {
        uint8_t s = (uint8_t)below(alphabet);
        for (int len = 1 + below(longest); len > 0 && i < n; len--)
            buf[i++] = s;
    }
}

/* Write short words over a small alphabet into buf, the first repeated
   top times and the others top times or a few less, shuffled, each
   followed by a spacer symbol of 64 or more; returns the length, at most
   10 * 5 * top.  Unless shared, no pair occurs in two words or twice in
   one, so the top count is exactly top. */
static int64_t bucket_edge(uint8_t *buf, int top, int shared)
{
    static const int fewer[] = {0, 0, 0, 1, 2, 5};
    uint8_t words[10][4], seen[6][6] = {{0}};
    int length[10], tokens[10 * (BUCKETS + 1)], nwords = 0, ntokens = 0;
    int alphabet = 2 + below(5);
    for (int tries = 1 + below(10); tries > 0; tries--) {
        int len = 2 + below(3), fresh = 1;
        uint8_t *word = words[nwords];
        for (int k = 0; k < len; k++)
            word[k] = (uint8_t)below(alphabet);
        for (int k = 0; k + 1 < len && fresh; k++) {
            fresh = !seen[word[k]][word[k + 1]];
            seen[word[k]][word[k + 1]] = 1;
        }
        if (shared || fresh)
            length[nwords++] = len;
        else
            for (int k = 0; k + 1 < len; k++)
                seen[word[k]][word[k + 1]] = 0;
    }
    for (int w = 0; w < nwords; w++)
        for (int r = top - (w > 0) * fewer[below(6)]; r > 0; r--)
            tokens[ntokens++] = w;
    for (int t = ntokens - 1; t > 0; t--) {
        int u = below(t + 1), swap = tokens[t];
        tokens[t] = tokens[u];
        tokens[u] = swap;
    }
    int64_t n = 0;
    for (int t = 0; t < ntokens; t++) {
        memcpy(buf + n, words[tokens[t]], (size_t)length[tokens[t]]);
        n += length[tokens[t]];
        buf[n++] = (uint8_t)(64 + below(192));
    }
    return n;
}

/* A walk over all 256 x 256 byte pairs in which every adjacent pair is
   new: the de Bruijn sequence of order 2 built from Lyndon words. */
static int64_t de_bruijn(uint8_t *buf)
{
    int64_t w = 0;
    for (int a = 0; a < 256; a++) {
        buf[w++] = (uint8_t)a;
        for (int b = a + 1; b < 256; b++) {
            buf[w++] = (uint8_t)a;
            buf[w++] = (uint8_t)b;
        }
    }
    buf[w++] = 0;
    return w; /* 65537 */
}

static int64_t distinct_pairs(const uint8_t *buf, int64_t n)
{
    static uint8_t seen[1 << 16];
    int64_t count = 0;
    memset(seen, 0, sizeof seen);
    for (int64_t i = 0; i + 1 < n; i++) {
        int code = buf[i] << 8 | buf[i + 1];
        count += !seen[code];
        seen[code] = 1;
    }
    return count;
}

/* Write the walk prefix of m + 1 symbols twice into buf; returns the
   length written. */
static int64_t walk_twice(uint8_t *buf, const uint8_t *walk, int64_t m)
{
    memcpy(buf, walk, (size_t)m + 1);
    memcpy(buf + m + 1, walk, (size_t)m + 1);
    return 2 * (m + 1);
}

/* Write a walk prefix twice into buf so that the result has exactly d
   distinct pairs; returns its length, or 0 if no prefix gives d. */
static int64_t repeated_walk(uint8_t *buf, const uint8_t *walk, int64_t d)
{
    for (int64_t m = d - 1; m <= d && m < 65537; m++)
        if (distinct_pairs(buf, walk_twice(buf, walk, m)) == d)
            return 2 * (m + 1);
    return 0;
}

int main(void)
{
    static const int64_t minf[] = {2, 2, 3, 5};
    int64_t cap = 1 << 18;
    uint8_t *buf = must_alloc((size_t)cap);

    /* n < 2 and other tiny inputs */
    for (int64_t n = 0; n < 6; n++) {
        runs(buf, n, 2, 3);
        check("tiny", buf, n, 2);
    }

    /* an exact fit: each rule replaces two occurrences, so the final
       sequence and the rules fill sym to its last slot */
    memcpy(buf, "abcabc", 6);
    if (check("exact fit", buf, 6, 2) != 2)
        fail("exact fit", 6, "abcabc did not make two rules");

    /* seeded random and run-heavy inputs */
    for (int c = 0; c < 300; c++) {
        int64_t n = 2 + below(c < 250 ? 3000 : 40000);
        if (c % 2)
            for (int64_t i = 0; i < n; i++)
                buf[i] = (uint8_t)below(c % 4 == 1 ? 256 : 4);
        else
            runs(buf, n, 1 + below(6), 1 + below(40));
        below(5); /* a spare draw keeps the stream's order */
        check(c % 2 ? "random" : "runs", buf, n, minf[below(4)]);
    }

    /* distinct-pair counts just below and just past each doubling of
       the record store, from its first, each walk twice so that rules
       release and reuse records after the store last grew */
    uint8_t *walk = must_alloc(65537);
    de_bruijn(walk);
    for (int64_t step = FIRST_STEP; step <= 65536; step *= 2)
        for (int64_t d = step - 1; d <= step + 1 && d <= 65536; d += 2) {
            int64_t n = repeated_walk(buf, walk, d);
            if (n == 0)
                fail("growth", d, "no walk prefix has this pair count");
            else
                check("growth", buf, n, 2);
        }

    /* rule counts one below, at and one past what each size of the
       symbol maps holds, m cells taking rules up to m - 256, none below
       0; a walk prefix of p + 1 symbols, twice over, makes p or p - 2
       rules, so p = r or p = r + 2 makes r */
    for (int64_t m = FIRST_MAP; m <= 16384; m *= 2)
        for (int64_t r = m > NONTERMINAL_BASE ? m - NONTERMINAL_BASE - 1 : 0;
             r <= m - NONTERMINAL_BASE + 1; r++) {
            int64_t made = -1;
            for (int64_t p = r; p <= r + 2 && made != r; p += 2)
                made = check("maps", buf, walk_twice(buf, walk, p), 2);
            if (made != r)
                fail("maps", r, "no walk prefix made this many rules");
        }

    /* top counts one below, at and one above BUCKETS, where the heap
       hands the top over to the buckets; shared words start near twice
       the top, so counts fall across BUCKETS and within the buckets */
    for (int c = 0; c < 120; c++) {
        below(5); /* a spare draw keeps the stream's order */
        int64_t min_frequency = minf[below(4)];
        check("buckets", buf, bucket_edge(buf, BUCKETS + c % 3 - 1, c % 6 >= 3),
              min_frequency);
    }

    /* a walk prefix with d distinct pairs, repeated k times: d pairs tie
       at count k, so the bucket list of that count and the heap it is
       handed to when taken, or the heap alone, grow through many
       doublings; the first rule's pair spawns pairs born at the count
       being taken */
    static const int64_t tied[] = {300, 1100};
    for (int64_t k = BUCKETS - 1; k <= BUCKETS + 1; k++)
        for (int t = 0; t < 2; t++) {
            int64_t d = tied[t];
            for (int64_t r = 0; r < k; r++)
                memcpy(buf + r * (d + 1), walk, (size_t)d + 1);
            check("tied", buf, k * (d + 1), 2);
        }
    free(walk);

    /* solid inputs and inputs that end or start in one long run: their
       tombstone blocks start at slot 1 and end at the last slot */
    static const int64_t solid[] = {2, 3, 4, 5, LONG, LONG + 1};
    for (size_t k = 0; k < sizeof solid / sizeof solid[0]; k++) {
        memset(buf, 'a', (size_t)solid[k]);
        check("solid", buf, solid[k], 2);
    }
    for (int c = 0; c < 8; c++) {
        int64_t n = (c < 4 ? 3000 : 40000) + c % 2, half = n / 2;
        runs(buf, n, 3, 5);
        if (c % 4 < 2)
            memset(buf + half, 1, (size_t)(n - half));
        else
            memset(buf, 1, (size_t)half);
        check(c % 4 < 2 ? "tail run" : "head run", buf, n, minf[c % 4]);
    }

    /* random bytes: nonterminal pairs take the records further */
    for (int64_t i = 0; i < cap; i++)
        buf[i] = (uint8_t)below(256);
    check("large", buf, cap, 2);

    /* long inputs, where the walk's read-ahead hints reach both ends of
       the arrays.  Short runs over a small alphabet make chains and
       run-head repair.  In odd cases a pair of two symbols found
       nowhere else occurs at slot 1, at slot n - 2, where its thread
       ends, and every 32 to 95 slots between; in even cases the input
       starts and ends in a long run, so tombstone blocks start at slot 1
       and end at the last slot */
    for (int c = 0; c < 6; c++) {
        int64_t n = LONG + c;
        runs(buf, n, 2 + c % 3, c < 3 ? 4 : 40);
        if (c % 2) {
            for (int64_t i = 1; i < n - 1; i += 32 + below(64)) {
                buf[i] = 200;
                buf[i + 1] = 201;
            }
            buf[n - 2] = 200;
            buf[n - 1] = 201;
        } else {
            memset(buf, 1, 1000 + c);
            memset(buf + n - 999 - c, 1, 999 + c);
        }
        check("long", buf, n, 2);
    }

    /* inputs whose slot block, of HOLD bytes or more, the kernel keeps
       between calls: a solid one, a smaller one that takes its block
       with the solid input's values in it, a larger one that replaces
       it, and one below HOLD that takes it as well; rpim_release then
       frees it, so that LeakSanitizer sees every block freed */
    int64_t held = (int64_t)(HOLD / (3 * sizeof(int32_t))) + 1;
    uint8_t *big = must_alloc((size_t)held + 2000);
    memset(big, 'a', (size_t)held + 1000);
    check("held", big, held + 1000, 2);
    runs(big, held, 4, 8);
    check("held", big, held, 2);
    runs(big, held + 2000, 4, 8);
    check("held", big, held + 2000, 2);
    runs(big, LONG, 4, 8);
    check("held", big, LONG, 2);
    free(big);
    rpim_release();

    /* an n above the cap is refused before the input is read */
    uint8_t one = 0;
    int32_t out = -7;
    int64_t sizes[2];
    static const int64_t forged[] = {(int64_t)INT32_MAX + 1, INT64_MAX};
    for (int k = 0; k < 2; k++)
        if (rpim_compress(&one, forged[k], 2, &out, sizes) != RPIM_EBOUND
            || out != -7)
            fail("forged", forged[k], "an n above the cap was not refused");

    check_forged_grammars();
    check_changed_between_calls();
    check_copy_edges();
    check_forged_bodies();
    check_layout();

    free(buf);
    if (failures) {
        fprintf(stderr, "%d case(s) failed\n", failures);
        return 1;
    }
    printf("ok\n");
    return 0;
}
