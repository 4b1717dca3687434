/*
 * Test program for src/rpim/_kernel.c under -fsanitize=address,undefined,
 * built and run by tests/test_repair.py::test_kernel_under_sanitizers.
 *
 * It compresses seeded random and run-heavy inputs, n < 2 included, and
 * inputs whose distinct-pair counts straddle every growth step of the
 * record store and the hash table.  Each grammar must reference only
 * earlier symbols and expand back to its input.  An n above the input
 * cap must be refused before the one-byte input is read.  Exit status 0
 * means every case passed; a sanitizer report aborts with its own.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int rpim_compress(const uint8_t *input, int64_t n, int64_t min_frequency,
                  int64_t max_rules, int32_t *sym, int32_t *rule_left,
                  int32_t *rule_right, int64_t rule_cap, int64_t *sizes);

/* FIRST_STEP is the kernel's initial record store, MIN_RECORDS */
enum { RPIM_EBOUND = 2, NONTERMINAL_BASE = 256, FIRST_STEP = 256 };

static uint64_t rng = 0x9E3779B97F4A7C15ull;

static uint64_t next_random(void)
{
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
}

static int below(int limit)
{
    return (int)(next_random() % (uint64_t)limit);
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

/* Compress input and check the grammar and its expansion. */
static void check(const char *label, const uint8_t *input, int64_t n,
                  int64_t min_frequency, int64_t max_rules)
{
    int64_t cap = n / 2 + 2;
    int32_t *sym = must_alloc((size_t)n * sizeof *sym);
    int32_t *left = must_alloc((size_t)cap * sizeof *left);
    int32_t *right = must_alloc((size_t)cap * sizeof *right);
    int64_t sizes[2];
    int status = rpim_compress(input, n, min_frequency, max_rules, sym, left,
                               right, cap, sizes);
    int64_t nrules = sizes[0], length = sizes[1];
    if (status != 0)
        fail(label, n, "nonzero status");
    else if (nrules < 0 || length < 0 || length > n - 2 * nrules
             || (max_rules >= 0 && nrules > max_rules))
        fail(label, n, "sizes out of range");
    else {
        for (int64_t k = 0; k < nrules; k++)
            if (left[k] < 0 || right[k] < 0
                || left[k] >= NONTERMINAL_BASE + k
                || right[k] >= NONTERMINAL_BASE + k) {
                fail(label, n, "rule references a later symbol");
                goto done;
            }
        /* expand with an explicit stack; depth never exceeds nrules */
        int32_t *stack = must_alloc((size_t)(nrules + 1) * sizeof *stack);
        int64_t out = 0;
        for (int64_t i = 0; i < length && out <= n; i++) {
            if (sym[i] < 0 || sym[i] >= NONTERMINAL_BASE + nrules) {
                out = n + 1;
                break;
            }
            int64_t top = 0;
            stack[top++] = sym[i];
            while (top > 0 && out <= n) {
                int32_t s = stack[--top];
                if (s < NONTERMINAL_BASE) {
                    if (out < n && input[out] != s)
                        out = n + 1;
                    else
                        out++;
                } else {
                    stack[top++] = right[s - NONTERMINAL_BASE];
                    stack[top++] = left[s - NONTERMINAL_BASE];
                }
            }
        }
        free(stack);
        if (out != n)
            fail(label, n, "expansion differs from the input");
    }
done:
    free(sym);
    free(left);
    free(right);
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

/* Write a walk prefix twice into buf so that the result has exactly d
   distinct pairs; returns its length, or 0 if no prefix gives d. */
static int64_t repeated_walk(uint8_t *buf, const uint8_t *walk, int64_t d)
{
    for (int64_t m = d - 1; m <= d && m < 65537; m++) {
        memcpy(buf, walk, (size_t)m + 1);
        memcpy(buf + m + 1, walk, (size_t)m + 1);
        if (distinct_pairs(buf, 2 * (m + 1)) == d)
            return 2 * (m + 1);
    }
    return 0;
}

int main(void)
{
    static const int64_t minf[] = {2, 2, 3, 5};
    static const int64_t maxr[] = {-1, -1, 0, 1, 7};
    int64_t cap = 1 << 18;
    uint8_t *buf = must_alloc((size_t)cap);

    /* n < 2 and other tiny inputs */
    for (int64_t n = 0; n < 6; n++) {
        runs(buf, n, 2, 3);
        check("tiny", buf, n, 2, -1);
    }

    /* seeded random and run-heavy inputs */
    for (int c = 0; c < 300; c++) {
        int64_t n = 2 + below(c < 250 ? 3000 : 40000);
        if (c % 2)
            for (int64_t i = 0; i < n; i++)
                buf[i] = (uint8_t)below(c % 4 == 1 ? 256 : 4);
        else
            runs(buf, n, 1 + below(6), 1 + below(40));
        check(c % 2 ? "random" : "runs", buf, n, minf[below(4)],
              maxr[below(5)]);
    }

    /* distinct-pair counts just below and just past each doubling of
       the record store and the table, each walk twice so that rules
       release and reuse records after the rehash */
    uint8_t *walk = must_alloc(65537);
    de_bruijn(walk);
    for (int64_t step = FIRST_STEP; step <= 65536; step *= 2)
        for (int64_t d = step - 1; d <= step + 1 && d <= 65536; d += 2) {
            int64_t n = repeated_walk(buf, walk, d);
            if (n == 0)
                fail("growth", d, "no walk prefix has this pair count");
            else
                check("growth", buf, n, 2, -1);
        }
    free(walk);

    /* random bytes: nonterminal pairs take the records further */
    for (int64_t i = 0; i < cap; i++)
        buf[i] = (uint8_t)below(256);
    check("large", buf, cap, 2, -1);

    /* an n above the cap is refused before the input is read */
    uint8_t one = 0;
    int32_t out = -7, left = -7, right = -7;
    int64_t sizes[2];
    static const int64_t forged[] = {(int64_t)INT32_MAX + 1, INT64_MAX};
    for (int k = 0; k < 2; k++)
        if (rpim_compress(&one, forged[k], 2, -1, &out, &left, &right, 1,
                          sizes) != RPIM_EBOUND
            || out != -7 || left != -7 || right != -7)
            fail("forged", forged[k], "an n above the cap was not refused");

    free(buf);
    if (failures) {
        fprintf(stderr, "%d case(s) failed\n", failures);
        return 1;
    }
    printf("ok\n");
    return 0;
}
