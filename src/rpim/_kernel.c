/*
 * The C engine: the compiled twin of the pure-Python compressor hot
 * path, the flat-array, linear-time Re-Pair of Larsson & Moffat,
 * "Off-line dictionary-based compression" (Proc. IEEE 2000), the
 * expansion of its grammars and the container body codec.
 *
 * The kernel mirrors build_sequence_array + replace_step in repair.py
 * branch for branch: same greedy non-overlap counting, same (count desc,
 * pair asc) extraction order, same chain batching and run-head repair,
 * so both engines emit identical grammars and the test suite pins that
 * equivalence on random inputs.
 *
 * Layout differences are mechanical.  Pair records live in one flat
 * array indexed through an open-addressing hash table (linear probing,
 * backward-shift deletion).  A pair counted once is a record with count
 * 1, standing in for the reference implementation's seen-once table.
 * The per-count bucket queue collapses into a single array heap ordered
 * by (count desc, code asc); entries carry the same stamps and go stale
 * the same way, so extraction picks the exact pair the bucket queue
 * would.
 *
 * Memory: the per-slot arrays (symbols, occurrence links, live links)
 * are 32-bit, 17 bytes per input symbol with the threaded flags plus the
 * caller's 4-byte output array.  The record store and the hash table
 * start small and double with the number of distinct pairs, so a
 * low-entropy input pays for the few pairs it has, not for its length;
 * released records are chained through their own head field for reuse.
 *
 * Every capacity is checked before it is written: a violated bound
 * returns RPIM_EBOUND and a failed allocation RPIM_ENOMEM, with all
 * memory released.  Inputs are limited to 2^31 - 1 symbols, so slot
 * indices and symbols fit int32 with -1 free to mean "absent", rule
 * ordinals stay below 2^30, and a packed pair code never reaches the
 * empty-slot key.
 *
 * Decompression has two entry points over an int64 grammar and final
 * sequence.  rpim_expanded_length gives the exact expanded length up to
 * a caller's 64-bit limit; a rule longer than the limit is marked as
 * such, so doubling chains cannot overflow.  rpim_expand writes into one buffer
 * of the exact length: it expands each rule by an explicit stack the
 * first time it is used, records where that expansion starts, and
 * copies it for every later use.  Rules the sequence does not reach are
 * never expanded.  Both check every symbol they follow and every index
 * they write, and return RPIM_EBOUND rather than pass a bound.
 *
 * The container body codec is one sequential pass each way.
 * rpim_decode_body reads the rule count, the rule sides, the sequence
 * length and the symbols varint by varint, with every check the
 * varint-by-varint reader makes, in its order, so it stops at the fault
 * that reader would meet first and reports it by status and offset.
 * It writes into one caller array of one value per body byte at most,
 * so no declared count sizes anything.  rpim_encode_body writes the
 * minimal unsigned LEB128 varints of the same fields.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    RPIM_OK = 0, RPIM_ENOMEM = 1, RPIM_EBOUND = 2, RPIM_ELIMIT = 3,
    /* rpim_decode_body's faults */
    RPIM_ETRUNCATED = 4, RPIM_ENONMINIMAL = 5, RPIM_EOVERFLOW = 6,
    RPIM_ERANGE = 7, RPIM_ERULE = 8, RPIM_ESYMBOL = 9, RPIM_ETRAILING = 10
};

#define NONTERMINAL_BASE 256
#define TOMBSTONE (-1)
#define EMPTY UINT64_MAX /* free hash slot */
#define TAIL (-2)        /* credit anchor: append at the thread tail */
#define MIN_RECORDS 256  /* initial record store */
#define MIN_TABLE_BITS 9 /* initial hash table: 2^9 slots */
#define MIN_PENDING 256  /* initial pending list */

#define CHECK(expr)                 \
    do {                            \
        int err_ = (expr);          \
        if (err_ != RPIM_OK)        \
            return err_;            \
    } while (0)

typedef struct { uint64_t key; int32_t val; } Slot;
/* pending: the code is queued for the next flush.  A released record
   keeps its place on the free chain in head. */
typedef struct { int64_t stamp; int32_t count, head, tail, pending; } Record;
typedef struct { int64_t count; uint64_t code; int64_t stamp; } Entry;

typedef struct {
    int32_t *sym, *prev_occ, *next_occ, *live_prev, *live_next;
    uint8_t *threaded;
    Record *rec;          /* pair records: nrec used, at most rec_limit */
    int64_t rec_cap, rec_limit, nrec;
    int32_t free_head;    /* last released record, -1 if none */
    Slot *table;          /* pair code -> record index */
    uint64_t mask, nkeys;
    int shift;
    uint64_t *pend;       /* codes whose count grew since the last flush */
    int64_t npend, pend_cap;
    Entry *heap;
    int64_t hsize, heap_cap;
    int64_t stamp;        /* last issued heap-entry stamp */
} State;

static void *alloc(int64_t count, size_t size)
{
    if (count <= 0 || (uint64_t)count > SIZE_MAX / size)
        return NULL;
    return malloc((size_t)count * size);
}

/* Return buf grown by doubling until it holds need elements, or NULL
   when that fails; the old block then stays with the caller. */
static void *reserve(void *buf, int64_t *cap, int64_t need, size_t size)
{
    int64_t c = *cap;
    if (need <= c)
        return buf;
    while (c < need) {
        if (c > INT64_MAX / 2)
            return NULL;
        c *= 2;
    }
    if ((uint64_t)c > SIZE_MAX / size)
        return NULL;
    void *grown = realloc(buf, (size_t)c * size);
    if (grown != NULL)
        *cap = c;
    return grown;
}

static inline uint64_t pair_code(int32_t left, int32_t right)
{
    return ((uint64_t)(uint32_t)left << 32) | (uint32_t)right;
}

static inline uint64_t home(const State *s, uint64_t code)
{
    /* Fibonacci hashing; the high product bits index the table */
    return (code * 0x9E3779B97F4A7C15ull) >> s->shift;
}

static int32_t ht_get(const State *s, uint64_t code)
{
    for (uint64_t i = home(s, code);; i = (i + 1) & s->mask) {
        if (s->table[i].key == code)
            return s->table[i].val;
        if (s->table[i].key == EMPTY)
            return -1;
    }
}

/* The key is absent and the table has a free slot. */
static void ht_put(State *s, uint64_t code, int32_t val)
{
    uint64_t i = home(s, code);
    while (s->table[i].key != EMPTY)
        i = (i + 1) & s->mask;
    s->table[i].key = code;
    s->table[i].val = val;
    s->nkeys++;
}

/* Allocate an empty table of 2^bits slots. */
static int ht_init(State *s, int bits)
{
    s->table = alloc((int64_t)1 << bits, sizeof *s->table);
    if (s->table == NULL)
        return RPIM_ENOMEM;
    memset(s->table, 0xFF, ((size_t)1 << bits) * sizeof *s->table);
    s->mask = ((uint64_t)1 << bits) - 1;
    s->shift = 64 - bits;
    return RPIM_OK;
}

/* Make room for one more key, doubling the table and re-inserting every
   key when it would pass half load. */
static int ht_reserve(State *s)
{
    uint64_t size = s->mask + 1;
    if (2 * (s->nkeys + 1) <= size)
        return RPIM_OK;
    Slot *old = s->table;
    int err = ht_init(s, 64 - s->shift + 1);
    if (err != RPIM_OK) {
        s->table = old;
        return err;
    }
    s->nkeys = 0;
    for (uint64_t i = 0; i < size; i++)
        if (old[i].key != EMPTY)
            ht_put(s, old[i].key, old[i].val);
    free(old);
    return RPIM_OK;
}

/* Backward-shift compaction keeps probe chains intact without
   tombstones, so the table never degrades under heavy churn.  The key
   is present. */
static void ht_del(State *s, uint64_t code)
{
    uint64_t i = home(s, code);
    while (s->table[i].key != code)
        i = (i + 1) & s->mask;
    for (uint64_t j = (i + 1) & s->mask; s->table[j].key != EMPTY;
         j = (j + 1) & s->mask) {
        uint64_t h = home(s, s->table[j].key);
        if (((j - h) & s->mask) >= ((j - i) & s->mask)) {
            s->table[i] = s->table[j];
            i = j;
        }
    }
    s->table[i].key = EMPTY;
    s->nkeys--;
}

/* Index for a new record: the last released one, else the next unused
   one, doubling the store as needed up to its limit. */
static int take_record(State *s, int32_t *idx)
{
    if (s->free_head >= 0) {
        *idx = s->free_head;
        s->free_head = s->rec[*idx].head;
        return RPIM_OK;
    }
    if (s->nrec >= s->rec_limit)
        return RPIM_EBOUND;
    Record *rec = reserve(s->rec, &s->rec_cap, s->nrec + 1, sizeof *rec);
    if (rec == NULL)
        return RPIM_ENOMEM;
    s->rec = rec;
    *idx = (int32_t)s->nrec++;
    return RPIM_OK;
}

static void release_record(State *s, uint64_t code, int32_t idx)
{
    ht_del(s, code);
    s->rec[idx].head = s->free_head;
    s->free_head = idx;
}

/* max-heap on (count, -code) */
static inline int above(const Entry *a, const Entry *b)
{
    return a->count > b->count || (a->count == b->count && a->code < b->code);
}

static int heap_push(State *s, int64_t count, uint64_t code, int64_t stamp)
{
    Entry *heap = reserve(s->heap, &s->heap_cap, s->hsize + 1, sizeof *heap);
    if (heap == NULL)
        return RPIM_ENOMEM;
    s->heap = heap;
    Entry e = {count, code, stamp};
    int64_t i = s->hsize++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (!above(&e, &s->heap[par]))
            break;
        s->heap[i] = s->heap[par];
        i = par;
    }
    s->heap[i] = e;
    return RPIM_OK;
}

static void heap_pop(State *s)
{
    int64_t last = --s->hsize;
    if (last <= 0)
        return;
    Entry e = s->heap[last];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= last)
            break;
        if (c + 1 < last && above(&s->heap[c + 1], &s->heap[c]))
            c++;
        if (!above(&s->heap[c], &e))
            break;
        s->heap[i] = s->heap[c];
        i = c;
    }
    s->heap[i] = e;
}

/* File a fresh heap entry for the record's current count. */
static int refile(State *s, int32_t idx, uint64_t code)
{
    s->rec[idx].stamp = ++s->stamp;
    return heap_push(s, s->rec[idx].count, code, s->stamp);
}

/* Queue the record's code for the next flush, once per flush. */
static int push_pending(State *s, int32_t idx, uint64_t code)
{
    if (s->rec[idx].pending)
        return RPIM_OK;
    uint64_t *pend = reserve(s->pend, &s->pend_cap, s->npend + 1,
                             sizeof *pend);
    if (pend == NULL)
        return RPIM_ENOMEM;
    s->pend = pend;
    s->pend[s->npend++] = code;
    s->rec[idx].pending = 1;
    return RPIM_OK;
}

/* Register a counted occurrence of (left, right) at slot.  after places
   it in the thread: TAIL appends, -1 prepends, otherwise the slot is
   spliced in behind that thread slot. */
static int credit(State *s, int32_t left, int32_t right, int32_t slot,
                  int32_t after)
{
    uint64_t code = pair_code(left, right);
    int32_t *prev = s->prev_occ, *next = s->next_occ;
    s->threaded[slot] = 1;
    int32_t idx = ht_get(s, code);
    if (idx < 0) {
        /* first occurrence: a count-1 record tracks just its slot */
        CHECK(ht_reserve(s));
        CHECK(take_record(s, &idx));
        s->rec[idx] = (Record){-1, 1, slot, slot, 0};
        prev[slot] = -1;
        next[slot] = -1;
        ht_put(s, code, idx);
        return RPIM_OK;
    }
    Record *r = &s->rec[idx];
    if (r->count == 1) {
        int32_t lo = r->head < slot ? r->head : slot;
        int32_t hi = r->head < slot ? slot : r->head;
        prev[lo] = -1;
        next[lo] = hi;
        prev[hi] = lo;
        next[hi] = -1;
        r->count = 2;
        r->head = lo;
        r->tail = hi;
        return push_pending(s, idx, code);
    }
    r->count++;
    int32_t a = after == TAIL ? r->tail : after;
    int32_t follower;
    if (a < 0) {
        follower = r->head;
        r->head = slot;
        prev[slot] = -1;
    } else {
        follower = next[a];
        next[a] = slot;
        prev[slot] = a;
    }
    next[slot] = follower;
    if (follower < 0)
        r->tail = slot;
    else
        prev[follower] = slot;
    return push_pending(s, idx, code);
}

/* Drop the counted occurrence of (left, right) at slot.  *anchor gets
   the slot's thread predecessor (-1 if it was the head), which run-head
   repair uses as its splice-back point. */
static int uncredit(State *s, int32_t left, int32_t right, int32_t slot,
                    int32_t *anchor)
{
    uint64_t code = pair_code(left, right);
    int32_t *prev = s->prev_occ, *next = s->next_occ;
    s->threaded[slot] = 0;
    *anchor = -1;
    int32_t idx = ht_get(s, code);
    if (idx < 0)
        return RPIM_EBOUND; /* the table lost track of this occurrence */
    Record *r = &s->rec[idx];
    if (r->count == 1) {
        if (r->head != slot)
            return RPIM_EBOUND;
        release_record(s, code, idx);
        return RPIM_OK;
    }
    int32_t p = prev[slot], nn = next[slot];
    if (p < 0)
        r->head = nn;
    else
        next[p] = nn;
    if (nn < 0)
        r->tail = p;
    else
        prev[nn] = p;
    prev[slot] = -1;
    next[slot] = -1;
    r->count--;
    *anchor = p;
    return RPIM_OK;
}

/* Erosion at a run's head shifts the greedy parity of every self-pair
   credit in the remainder: unthread them and re-file from the new head.
   The last run slot is skipped; its flag, if set, belongs to the pair
   formed with the symbol after the run. */
static int repair_run_head(State *s, int32_t symbol, int32_t start,
                           int32_t anchor)
{
    const int32_t *sym = s->sym, *live_next = s->live_next;
    int32_t ignored;
    for (int32_t at = start;;) {
        int32_t nxt = live_next[at];
        if (nxt < 0 || sym[nxt] != symbol)
            break;
        if (s->threaded[at])
            CHECK(uncredit(s, symbol, symbol, at, &ignored));
        at = nxt;
    }
    for (int32_t at = start; at >= 0 && sym[at] == symbol;) {
        /* advancing by two can step past an even-length run, so the
           slot itself is re-checked, not just its successor */
        int32_t nxt = live_next[at];
        if (nxt < 0 || sym[nxt] != symbol)
            break;
        CHECK(credit(s, symbol, symbol, at, anchor));
        anchor = at;
        at = live_next[nxt];
    }
    return RPIM_OK;
}

/* Replace every occurrence on the thread starting at head with fresh.
   Consecutive occurrences are processed as one chain so that the pairs
   a replacement creates are counted exactly once. */
static int replace_thread(State *s, int32_t head, int32_t left,
                          int32_t right, int32_t fresh)
{
    int32_t *sym = s->sym, *prev = s->prev_occ, *next = s->next_occ;
    int32_t *live_prev = s->live_prev, *live_next = s->live_next;
    uint8_t *threaded = s->threaded;
    int self_pair = left == right;
    int32_t anchor;

    for (int32_t slot = head; slot >= 0;) {
        int32_t i = slot;
        int32_t upcoming = next[i];
        threaded[i] = 0;
        prev[i] = -1;
        next[i] = -1;

        int32_t p = live_prev[i];
        if (p >= 0 && threaded[p])
            /* the (left-context, left) occurrence dies here */
            CHECK(uncredit(s, sym[p], left, p, &anchor));

        for (int64_t link = 0;;) {
            int32_t j = live_next[i];
            if (j < 0)
                return RPIM_EBOUND;
            int32_t q = live_next[j];
            anchor = -1;
            if (threaded[j]) {
                /* the (right, right-context) occurrence dies with j */
                if (q < 0)
                    return RPIM_EBOUND;
                CHECK(uncredit(s, right, sym[q], j, &anchor));
            }
            sym[i] = fresh;
            sym[j] = TOMBSTONE;
            live_next[i] = q;
            if (q >= 0)
                live_prev[q] = i;

            if (q >= 0 && q == upcoming) {
                /* adjacent occurrence: extend the chain */
                upcoming = next[q];
                threaded[q] = 0;
                prev[q] = -1;
                next[q] = -1;
                if (++link & 1)
                    /* self-pair credit for the fresh-symbol run */
                    CHECK(credit(s, fresh, fresh, i, TAIL));
                i = q;
                continue;
            }
            if (q >= 0) {
                int32_t y = sym[q];
                if (y == right && !self_pair)
                    /* the removal eroded the head of a run of right;
                       its parity credits need re-filing */
                    CHECK(repair_run_head(s, right, q, anchor));
                CHECK(credit(s, fresh, y, i, TAIL));
            }
            if (p >= 0)
                CHECK(credit(s, sym[p], fresh, p, TAIL));
            break;
        }
        slot = upcoming;
    }
    return RPIM_OK;
}

/* Copy input into sym and thread the slots; n >= 2. */
static int setup(State *s, const uint8_t *input, int32_t n)
{
    int32_t *sym = s->sym;
    s->prev_occ = alloc(n, sizeof(int32_t));
    s->next_occ = alloc(n, sizeof(int32_t));
    s->live_prev = alloc(n, sizeof(int32_t));
    s->live_next = alloc(n, sizeof(int32_t));
    s->threaded = calloc((size_t)n, 1);
    /* distinct records never exceed the threaded-slot count, so n + 2
       bounds the store even mid-step; int32 indices cap it as well */
    s->rec_limit = n < INT32_MAX - 2 ? (int64_t)n + 2 : INT32_MAX;
    s->rec_cap = MIN_RECORDS;
    s->rec = alloc(s->rec_cap, sizeof *s->rec);
    s->free_head = -1;
    s->pend_cap = MIN_PENDING;
    s->pend = alloc(s->pend_cap, sizeof *s->pend);
    s->heap_cap = 1024;
    s->heap = alloc(s->heap_cap, sizeof *s->heap);
    if (!s->prev_occ || !s->next_occ || !s->live_prev || !s->live_next
        || !s->threaded || !s->rec || !s->pend || !s->heap)
        return RPIM_ENOMEM;
    CHECK(ht_init(s, MIN_TABLE_BITS));

    for (int32_t i = 0; i < n; i++) {
        sym[i] = input[i];
        s->prev_occ[i] = -1;
        s->next_occ[i] = -1;
        s->live_prev[i] = i - 1;
        s->live_next[i] = i + 1;
    }
    s->live_next[n - 1] = -1;
    return RPIM_OK;
}

static void teardown(State *s)
{
    free(s->prev_occ);
    free(s->next_occ);
    free(s->live_prev);
    free(s->live_next);
    free(s->threaded);
    free(s->rec);
    free(s->table);
    free(s->pend);
    free(s->heap);
}

static int run(State *s, int32_t n, int64_t min_frequency, int64_t max_rules,
               int32_t *rule_left, int32_t *rule_right, int64_t rule_cap,
               int64_t *nrules_out)
{
    const int32_t *sym = s->sym;

    /* initial greedy count: skip slots overlapping the counted self-pair
       occurrence that starts one position earlier */
    int32_t run_head = 0;
    for (int32_t i = 0; i < n - 1; i++) {
        if (i > 0 && sym[i] != sym[i - 1])
            run_head = i;
        if (sym[i] == sym[i + 1] && ((i - run_head) & 1))
            continue;
        CHECK(credit(s, sym[i], sym[i + 1], i, TAIL));
    }

    int64_t nrules = 0;
    while (max_rules < 0 || nrules < max_rules) {
        /* file fresh heap entries for pairs whose count grew; the floor
           skips a code queued again after its record was released and
           re-created within one flush */
        int64_t floor = s->stamp;
        for (int64_t t = 0; t < s->npend; t++) {
            uint64_t code = s->pend[t];
            int32_t idx = ht_get(s, code);
            if (idx < 0)
                continue;
            s->rec[idx].pending = 0;
            if (s->rec[idx].count < 2 || s->rec[idx].stamp > floor)
                continue;
            CHECK(refile(s, idx, code));
        }
        s->npend = 0;

        /* pop the most frequent pair, discarding stale entries and
           re-filing entries whose count moved since they were pushed */
        int32_t chosen = -1;
        uint64_t code = 0;
        while (s->hsize > 0) {
            Entry top = s->heap[0];
            int32_t idx = ht_get(s, top.code);
            if (idx < 0 || s->rec[idx].stamp != top.stamp) {
                heap_pop(s);
                continue;
            }
            int64_t cur = s->rec[idx].count;
            if (cur != top.count) {
                heap_pop(s);
                if (cur >= 2)
                    CHECK(refile(s, idx, top.code));
                continue;
            }
            if (top.count < min_frequency)
                break;
            heap_pop(s);
            chosen = idx;
            code = top.code;
            break;
        }
        if (chosen < 0)
            break;

        if (nrules >= rule_cap)
            return RPIM_EBOUND;
        int32_t left = (int32_t)(code >> 32);
        int32_t right = (int32_t)(code & 0xFFFFFFFFu);
        int32_t head = s->rec[chosen].head;
        release_record(s, code, chosen);
        rule_left[nrules] = left;
        rule_right[nrules] = right;
        CHECK(replace_thread(s, head, left, right,
                             (int32_t)(NONTERMINAL_BASE + nrules)));
        nrules++;
    }
    *nrules_out = nrules;
    return RPIM_OK;
}

/*
 * Compress input[0:n] (terminals 0-255), working in sym, which holds n
 * elements.  On success sizes[0] is the rule count, rule k being
 * (rule_left[k], rule_right[k]), and sizes[1] the length of the final
 * sequence, left in sym[0:sizes[1]].  max_rules < 0 means unbounded.
 * Returns RPIM_OK, RPIM_ENOMEM when an allocation fails, or RPIM_EBOUND
 * when a capacity would be exceeded; an n above 2^31 - 1 is refused
 * before input or sym is touched.
 */
int rpim_compress(const uint8_t *input, int64_t n, int64_t min_frequency,
                  int64_t max_rules, int32_t *sym, int32_t *rule_left,
                  int32_t *rule_right, int64_t rule_cap, int64_t *sizes)
{
    sizes[0] = 0;
    sizes[1] = n;
    if (n > INT32_MAX)
        return RPIM_EBOUND;
    if (n < 2) {
        if (n == 1)
            sym[0] = input[0];
        return RPIM_OK;
    }

    State s;
    memset(&s, 0, sizeof s);
    s.sym = sym;
    int err = setup(&s, input, (int32_t)n);
    if (err == RPIM_OK)
        err = run(&s, (int32_t)n, min_frequency, max_rules, rule_left,
                  rule_right, rule_cap, &sizes[0]);
    teardown(&s);
    if (err != RPIM_OK)
        return err;

    int64_t w = 0;
    for (int64_t i = 0; i < n; i++)
        if (sym[i] != TOMBSTONE)
            sym[w++] = sym[i];
    sizes[1] = w;
    return RPIM_OK;
}

/* a + b when both are real lengths (nonzero) and the sum is at most
   limit; else 0, the mark of a length past limit */
static inline uint64_t add_within(uint64_t a, uint64_t b, uint64_t limit)
{
    if (a == 0 || b == 0 || a > limit || b > limit - a)
        return 0;
    return a + b;
}

/* Expanded length of symbol s, with len[k] that of rule k < nrules. */
static inline uint64_t symbol_length(int64_t s, const uint64_t *len)
{
    return s < NONTERMINAL_BASE ? 1 : len[s - NONTERMINAL_BASE];
}

/*
 * Expanded length of seq[0:nseq] under the grammar whose rule k is
 * (left[k], right[k]).  len holds nrules elements; on return len[k] is
 * the length of rule k, or 0 when that exceeds limit.  Returns RPIM_OK
 * with the exact length in *total when it is at most limit, RPIM_ELIMIT
 * when it exceeds limit, and RPIM_EBOUND when a rule side or a symbol
 * lies outside what it may reference: [0, 256 + k) for rule k, and
 * [0, 256 + nrules) for seq.
 */
int rpim_expanded_length(const int64_t *left, const int64_t *right,
                         int64_t nrules, const int64_t *seq, int64_t nseq,
                         uint64_t limit, uint64_t *len, uint64_t *total)
{
    *total = 0;
    if (nrules < 0 || nseq < 0)
        return RPIM_EBOUND;
    for (int64_t k = 0; k < nrules; k++) {
        int64_t a = left[k], b = right[k];
        if (a < 0 || b < 0 || a >= NONTERMINAL_BASE + k
            || b >= NONTERMINAL_BASE + k)
            return RPIM_EBOUND;
        len[k] = add_within(symbol_length(a, len), symbol_length(b, len),
                            limit);
    }
    uint64_t sum = 0;
    for (int64_t i = 0; i < nseq; i++) {
        int64_t s = seq[i];
        if (s < 0 || s >= NONTERMINAL_BASE + nrules)
            return RPIM_EBOUND;
        uint64_t n = symbol_length(s, len);
        if (n == 0 || n > limit - sum)
            return RPIM_ELIMIT;
        sum += n;
    }
    *total = sum;
    return RPIM_OK;
}

/*
 * Expand seq[0:nseq] into out, which must take exactly out_len bytes.
 * Each rule is expanded once, by an explicit stack, the first time it
 * is used; every later use copies that first expansion.  span holds
 * 2 * nrules elements: the start and the length of each rule's first
 * expansion.  stack holds stack_cap elements; 2 * depth + 1 suffice,
 * where the depth is at most nrules.  Returns RPIM_OK, or RPIM_EBOUND,
 * with out possibly part written, when a symbol lies outside what it
 * may reference, the stack would overflow, or the expansion is not
 * exactly out_len bytes long.
 */
int rpim_expand(const int64_t *left, const int64_t *right, int64_t nrules,
                const int64_t *seq, int64_t nseq, uint8_t *out,
                int64_t out_len, int64_t *span, int64_t *stack,
                int64_t stack_cap)
{
    if (nrules < 0 || nseq < 0 || out_len < 0)
        return RPIM_EBOUND;
    for (int64_t k = 0; k < nrules; k++)
        span[2 * k] = -1;
    int64_t pos = 0;
    for (int64_t i = 0; i < nseq; i++) {
        if (seq[i] < 0 || seq[i] >= NONTERMINAL_BASE + nrules
            || stack_cap < 1)
            return RPIM_EBOUND;
        int64_t top = 0;
        stack[top++] = seq[i];
        while (top > 0) {
            int64_t s = stack[--top];
            if (s < 0) {
                /* rule ~s is expanded: record its length */
                int64_t r = ~s;
                span[2 * r + 1] = pos - span[2 * r];
            } else if (s < NONTERMINAL_BASE) {
                if (pos >= out_len)
                    return RPIM_EBOUND;
                out[pos++] = (uint8_t)s;
            } else if (span[2 * (s - NONTERMINAL_BASE)] >= 0) {
                /* a rule never occurs inside its own expansion, so a
                   recorded start means a finished first expansion */
                int64_t r = s - NONTERMINAL_BASE;
                int64_t n = span[2 * r + 1];
                if (n > out_len - pos)
                    return RPIM_EBOUND;
                memcpy(out + pos, out + span[2 * r], (size_t)n);
                pos += n;
            } else {
                int64_t r = s - NONTERMINAL_BASE;
                if (left[r] < 0 || left[r] >= s || right[r] < 0
                    || right[r] >= s || stack_cap - top < 3)
                    return RPIM_EBOUND;
                span[2 * r] = pos;
                stack[top++] = ~r;
                stack[top++] = right[r];
                stack[top++] = left[r];
            }
        }
    }
    return pos == out_len ? RPIM_OK : RPIM_EBOUND;
}

#define SYMBOL_MAX 0xFFFFFFFFull /* symbols and rule sides: below 2^32 */

/* Read the varint at body[*pos], which must be minimal, at most 10
   bytes and at most max, into *value and move *pos past it.  Checks
   run in read_varint's order, so a fault gets the status that reader
   would raise for it. */
static inline int read_varint(const uint8_t *body, int64_t size,
                              int64_t *pos, uint64_t max, uint64_t *value)
{
    int64_t p = *pos;
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        if (p >= size)
            return RPIM_ETRUNCATED;
        uint8_t byte = body[p++];
        v |= (uint64_t)(byte & 0x7F) << shift;
        if (!(byte & 0x80)) {
            if (byte == 0 && shift > 0)
                return RPIM_ENONMINIMAL;
            /* bits past the 64th would be lost: the value is 2^64 or more */
            if (shift == 63 && byte > 1)
                return RPIM_ERANGE;
            break;
        }
        if (shift + 7 >= 64)
            return RPIM_EOVERFLOW;
    }
    if (v > max)
        return RPIM_ERANGE;
    *value = v;
    *pos = p;
    return RPIM_OK;
}

/* Read the next varint into dst, with info[2] set to its offset. */
#define READ(dst, max)                                          \
    do {                                                        \
        info[2] = pos;                                          \
        CHECK(read_varint(body, size, &pos, (max), &(dst)));    \
    } while (0)

/*
 * Decode and check a container body, body[0:size]: the rule count, the
 * rule sides, the sequence length and the symbols, in one sequential
 * pass.  out holds cap elements and receives rule k's left side at
 * out[k], its right side at out[nrules + k] and symbol i at
 * out[2 * nrules + i].  info[0] gets the rule count and info[1] the
 * sequence length, as a uint64 bit pattern, as soon as each is read.
 * Returns RPIM_OK, or the first fault a varint-by-varint reader meets:
 *   RPIM_ETRUNCATED, RPIM_ENONMINIMAL, RPIM_EOVERFLOW, RPIM_ERANGE for
 *     a bad varint at byte offset info[2] (the rule count must be below
 *     2^32 - 256, rule sides and symbols below 2^32);
 *   RPIM_ERULE when rule info[2] references a symbol outside its
 *     prefix, checked once its right side is read;
 *   RPIM_ESYMBOL when symbol info[2], of value info[3], is undefined;
 *   RPIM_ETRAILING when bytes follow the sequence from offset info[2].
 * Every varint takes a byte, so a valid body needs at most size
 * elements; no write passes cap, and a body that is valid but does not
 * fit returns RPIM_EBOUND.
 */
int rpim_decode_body(const uint8_t *body, int64_t size, int64_t *out,
                     int64_t cap, int64_t *info)
{
    int64_t pos = 0;
    uint64_t count, a, b, s;
    info[0] = info[1] = info[2] = info[3] = 0;
    if (size < 0 || cap < 0)
        return RPIM_EBOUND;
    READ(count, SYMBOL_MAX - NONTERMINAL_BASE);
    int64_t nrules = (int64_t)count;
    info[0] = nrules;
    /* with cap >= size, sides or symbols that do not fit cannot all be
       present either: the reader meets a fault before their end */
    int fits = 2 * nrules <= cap;
    int64_t *left = out, *right = out + (fits ? nrules : 0);
    for (int64_t k = 0; k < nrules; k++) {
        READ(a, SYMBOL_MAX);
        READ(b, SYMBOL_MAX);
        if (a >= (uint64_t)(NONTERMINAL_BASE + k)
            || b >= (uint64_t)(NONTERMINAL_BASE + k)) {
            info[2] = k;
            return RPIM_ERULE;
        }
        if (fits) {
            left[k] = (int64_t)a;
            right[k] = (int64_t)b;
        }
    }
    READ(count, UINT64_MAX);
    info[1] = (int64_t)count;
    fits = fits && count <= (uint64_t)(cap - 2 * nrules);
    int64_t *seq = out + (fits ? 2 * nrules : 0);
    uint64_t defined = (uint64_t)(NONTERMINAL_BASE + nrules);
    for (uint64_t i = 0; i < count; i++) {
        READ(s, SYMBOL_MAX);
        if (s >= defined) {
            info[2] = (int64_t)i;
            info[3] = (int64_t)s;
            return RPIM_ESYMBOL;
        }
        if (fits)
            seq[i] = (int64_t)s;
    }
    info[2] = pos;
    if (pos != size)
        return RPIM_ETRAILING;
    return fits ? RPIM_OK : RPIM_EBOUND;
}

#undef READ

/* Write value as a minimal varint at out[pos]. */
static inline int64_t write_varint(uint8_t *out, int64_t pos, uint64_t value)
{
    while (value >= 0x80) {
        out[pos++] = (uint8_t)(value | 0x80);
        value >>= 7;
    }
    out[pos++] = (uint8_t)value;
    return pos;
}

/*
 * Encode a container body into out, which holds cap bytes: the rule
 * count nrules, then left[k] and right[k] for each rule k, then the
 * sequence length nseq and seq[0:nseq], each as a minimal unsigned
 * LEB128 varint.  A value takes at most 9 bytes, so 9 * (2 * nrules +
 * nseq + 2) bytes always suffice.  Returns RPIM_OK with the body's
 * length in *written, or RPIM_EBOUND for a negative value or count, or
 * when out is too small; out may then be part written.
 */
int rpim_encode_body(const int64_t *left, const int64_t *right,
                     int64_t nrules, const int64_t *seq, int64_t nseq,
                     uint8_t *out, int64_t cap, int64_t *written)
{
    *written = 0;
    if (nrules < 0 || nseq < 0 || cap < 0)
        return RPIM_EBOUND;
    /* every write below starts at least 9 bytes before cap */
    int64_t room = cap - 9, pos = 0;
    if (pos > room)
        return RPIM_EBOUND;
    pos = write_varint(out, pos, (uint64_t)nrules);
    for (int64_t k = 0; k < nrules; k++) {
        if (left[k] < 0 || right[k] < 0 || pos > room - 9)
            return RPIM_EBOUND;
        pos = write_varint(out, pos, (uint64_t)left[k]);
        pos = write_varint(out, pos, (uint64_t)right[k]);
    }
    if (pos > room)
        return RPIM_EBOUND;
    pos = write_varint(out, pos, (uint64_t)nseq);
    for (int64_t i = 0; i < nseq; i++) {
        if (seq[i] < 0 || pos > room)
            return RPIM_EBOUND;
        pos = write_varint(out, pos, (uint64_t)seq[i]);
    }
    *written = pos;
    return RPIM_OK;
}
