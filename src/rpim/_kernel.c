/*
 * The C engine: Re-Pair compression over flat arrays, after Larsson &
 * Moffat, "Off-line dictionary-based compression" (Proc. IEEE 2000),
 * the expansion of its grammars and the container body codec.
 *
 * Compression counts every adjacent pair greedily left to right without
 * overlap, threads the counted occurrences of each pair in slot order,
 * and then repeats one step until no pair reaches the threshold: take
 * the pair of highest count, the smallest (left, right) among equals,
 * and replace its occurrences left to right with a fresh symbol.  The
 * counts are kept up to date as the step goes.  Consecutive occurrences
 * are replaced as one chain, so that the pairs a replacement creates
 * are counted once: the inner contexts of a chain cancel, and the run
 * of fresh symbols a chain leaves gets its self-pair credits by
 * position parity.  A replacement that eats the first symbol of a run
 * shifts the parity of that run's self-pair occurrences, so their
 * credits are re-filed from the new run head (run-head repair).
 *
 * No pair is ever hashed; every pair record is reached by index.  A
 * threaded slot names its record in rec_of, heap entries and the pending
 * list carry record indices, and a pair being credited is found through
 * one cell.  That works because a replacement step only ever credits
 * pairs that hold its fresh symbol, or self pairs through run-head
 * repair: a self pair (a, a) is filed under self_rec[a], (x, fresh)
 * under fresh_right[x] and (fresh, y) under fresh_left[y], and the
 * initial count files byte pairs in a 2^16-cell array freed after it.
 * A cell is trusted only when its record is live and holds exactly the
 * pair, so cells left by earlier steps need no reset.  A pair counted
 * once is a record with count 1.  Records of count 2 or more wait in
 * one array heap ordered by (count desc, code asc).  A pair's entry
 * carries the stamp of its record's newest entry, and the record is
 * filed again whenever its count grows, so extraction discards entries
 * whose stamp is stale and re-files those whose count fell; the entry
 * it takes is the pair of highest count, the smallest among equals.
 *
 * Replaced slots become tombstones, and there are no live links: a
 * block of tombstones [a, b] keeps b + 1 in next_occ[a] and a - 1 in
 * prev_occ[b], links a tombstone, never threaded, does not use.  The
 * live neighbour of slot i is i + 1 (i - 1) unless that slot is a
 * tombstone, whose link then skips the block.  Slot 0 is never a
 * tombstone.
 *
 * Memory: the per-slot arrays (occurrence links, record of each slot)
 * are 32-bit, 16 bytes per input symbol with the caller's 4-byte working
 * array.  The record store starts small and doubles with the number of
 * distinct pairs, and the three symbol maps double with the rule count,
 * so a low-entropy input pays for the few pairs it has, not for its
 * length; released records are chained through their own head field
 * for reuse.
 *
 * Every capacity is checked before it is written: a violated bound, or
 * a pair no cell files, returns RPIM_EBOUND and a failed allocation
 * RPIM_ENOMEM, with all memory released.  Inputs are limited to
 * 2^31 - 1 symbols, so slot indices, record indices and symbols fit
 * int32 with -1 free to mean "absent", and rule ordinals stay below
 * 2^30.
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
 * so no declared count sizes anything, and sums the expanded length as
 * it reads, as rpim_expanded_length does.  rpim_encode_body writes the
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
#define TAIL (-2)        /* credit anchor: append at the thread tail */
#define MIN_RECORDS 256  /* initial record store */
#define MIN_SYMBOLS 512  /* initial symbol maps */
#define MIN_PENDING 256  /* initial pending list */

#define CHECK(expr)                 \
    do {                            \
        int err_ = (expr);          \
        if (err_ != RPIM_OK)        \
            return err_;            \
    } while (0)

/* pending: the record is queued for the next flush.  A released record
   has count 0 and stamp -1, and keeps its place on the free chain in
   head. */
typedef struct {
    int64_t stamp;
    int32_t count, head, tail, pending, left, right;
} Record;
typedef struct { uint64_t code; int64_t stamp; int32_t count, idx; } Entry;

typedef struct {
    int32_t *sym, *prev_occ, *next_occ;
    int32_t *rec_of;      /* record threading each slot, -1 if none */
    int32_t n;
    Record *rec;          /* pair records: nrec used, at most rec_limit */
    int64_t rec_cap, rec_limit, nrec;
    int32_t free_head;    /* last released record, -1 if none */
    int32_t fresh;        /* symbol the current step creates, else -1 */
    int32_t *self_rec, *fresh_left, *fresh_right; /* by symbol */
    int64_t map_cap;
    int32_t *byte_pair;   /* by left << 8 | right, initial count only */
    int32_t *pend;        /* records whose count grew since the last flush */
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

/* Grow the symbol maps by doubling until they hold need cells, the new
   ones -1. */
static int reserve_maps(State *s, int64_t need)
{
    int32_t **maps[] = {&s->self_rec, &s->fresh_left, &s->fresh_right};
    int64_t cap = s->map_cap > 0 ? s->map_cap : MIN_SYMBOLS;
    while (cap < need)
        cap *= 2;
    if (cap == s->map_cap)
        return RPIM_OK;
    if ((uint64_t)cap > SIZE_MAX / sizeof(int32_t))
        return RPIM_ENOMEM;
    for (int k = 0; k < 3; k++) {
        int32_t *grown = realloc(*maps[k], (size_t)cap * sizeof *grown);
        if (grown == NULL)
            return RPIM_ENOMEM;
        memset(grown + s->map_cap, 0xFF,
               (size_t)(cap - s->map_cap) * sizeof *grown);
        *maps[k] = grown;
    }
    s->map_cap = cap;
    return RPIM_OK;
}

/* The live slot after i, or -1. */
static inline int32_t live_next(const State *s, int32_t i)
{
    int32_t j = i + 1;
    if (j < s->n && s->sym[j] == TOMBSTONE)
        j = s->next_occ[j];
    return j < s->n ? j : -1;
}

/* The live slot before i, or -1. */
static inline int32_t live_prev(const State *s, int32_t i)
{
    int32_t j = i - 1;
    if (j >= 0 && s->sym[j] == TOMBSTONE)
        j = s->prev_occ[j];
    return j;
}

static inline uint64_t pair_code(int32_t left, int32_t right)
{
    return ((uint64_t)(uint32_t)left << 32) | (uint32_t)right;
}

/* The cell that files (left, right), or NULL when none may. */
static inline int32_t *cell_of(State *s, int32_t left, int32_t right)
{
    if ((uint32_t)left >= (uint64_t)s->map_cap
        || (uint32_t)right >= (uint64_t)s->map_cap)
        return NULL;
    if (left == right)
        return &s->self_rec[left];
    if (right == s->fresh)
        return &s->fresh_right[left];
    if (left == s->fresh)
        return &s->fresh_left[right];
    if (s->byte_pair != NULL && left < 256 && right < 256)
        return &s->byte_pair[left << 8 | right];
    return NULL;
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

static void release_record(State *s, int32_t idx)
{
    Record *r = &s->rec[idx];
    r->count = 0;
    r->stamp = -1;
    r->head = s->free_head;
    s->free_head = idx;
}

/* max-heap on (count, -code) */
static inline int above(const Entry *a, const Entry *b)
{
    return a->count > b->count || (a->count == b->count && a->code < b->code);
}

static int heap_push(State *s, Entry e)
{
    Entry *heap = reserve(s->heap, &s->heap_cap, s->hsize + 1, sizeof *heap);
    if (heap == NULL)
        return RPIM_ENOMEM;
    s->heap = heap;
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
static int refile(State *s, int32_t idx)
{
    Record *r = &s->rec[idx];
    r->stamp = ++s->stamp;
    Entry e = {pair_code(r->left, r->right), s->stamp, r->count, idx};
    return heap_push(s, e);
}

/* Queue the record for the next flush, once per flush. */
static int push_pending(State *s, int32_t idx)
{
    if (s->rec[idx].pending)
        return RPIM_OK;
    int32_t *pend = reserve(s->pend, &s->pend_cap, s->npend + 1,
                            sizeof *pend);
    if (pend == NULL)
        return RPIM_ENOMEM;
    s->pend = pend;
    s->pend[s->npend++] = idx;
    s->rec[idx].pending = 1;
    return RPIM_OK;
}

/* Register a counted occurrence of (left, right) at slot.  after places
   it in the thread: TAIL appends, -1 prepends, otherwise the slot is
   spliced in behind that thread slot. */
static int credit(State *s, int32_t left, int32_t right, int32_t slot,
                  int32_t after)
{
    int32_t *prev = s->prev_occ, *next = s->next_occ;
    int32_t *cell = cell_of(s, left, right);
    if (cell == NULL)
        return RPIM_EBOUND;
    int32_t idx = *cell;
    if (idx < 0 || s->rec[idx].count == 0 || s->rec[idx].left != left
        || s->rec[idx].right != right) {
        /* first occurrence: a count-1 record tracks just its slot */
        CHECK(take_record(s, &idx));
        s->rec[idx] = (Record){-1, 1, slot, slot, 0, left, right};
        *cell = idx;
        s->rec_of[slot] = idx;
        return RPIM_OK;
    }
    s->rec_of[slot] = idx;
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
        return push_pending(s, idx);
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
    return push_pending(s, idx);
}

/* Drop the counted occurrence of (left, right) at slot.  *anchor gets
   the slot's thread predecessor (-1 if it was the head), which run-head
   repair uses as its splice-back point. */
static int uncredit(State *s, int32_t left, int32_t right, int32_t slot,
                    int32_t *anchor)
{
    int32_t *prev = s->prev_occ, *next = s->next_occ;
    int32_t idx = s->rec_of[slot];
    s->rec_of[slot] = -1;
    *anchor = -1;
    if (idx < 0 || s->rec[idx].left != left || s->rec[idx].right != right)
        return RPIM_EBOUND; /* the slot's record lost track of this pair */
    Record *r = &s->rec[idx];
    if (r->count == 1) {
        if (r->head != slot)
            return RPIM_EBOUND;
        release_record(s, idx);
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
    r->count--;
    *anchor = p;
    return RPIM_OK;
}

/* Erosion at a run's head shifts the greedy parity of every self-pair
   credit in the remainder: unthread them and re-file from the new head.
   The last run slot is skipped; its record, if any, belongs to the pair
   formed with the symbol after the run. */
static int repair_run_head(State *s, int32_t symbol, int32_t start,
                           int32_t anchor)
{
    const int32_t *sym = s->sym;
    int32_t ignored;
    for (int32_t at = start;;) {
        int32_t nxt = live_next(s, at);
        if (nxt < 0 || sym[nxt] != symbol)
            break;
        if (s->rec_of[at] >= 0)
            CHECK(uncredit(s, symbol, symbol, at, &ignored));
        at = nxt;
    }
    for (int32_t at = start; at >= 0 && sym[at] == symbol;) {
        /* advancing by two can step past an even-length run, so the
           slot itself is re-checked, not just its successor */
        int32_t nxt = live_next(s, at);
        if (nxt < 0 || sym[nxt] != symbol)
            break;
        CHECK(credit(s, symbol, symbol, at, anchor));
        anchor = at;
        at = live_next(s, nxt);
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
    int32_t *rec_of = s->rec_of;
    int self_pair = left == right;
    int32_t anchor;

    s->fresh = fresh;
    for (int32_t slot = head; slot >= 0;) {
        int32_t i = slot;
        int32_t upcoming = next[i];
        rec_of[i] = -1;

        int32_t p = live_prev(s, i);
        if (p >= 0 && rec_of[p] >= 0)
            /* the (left-context, left) occurrence dies here */
            CHECK(uncredit(s, sym[p], left, p, &anchor));

        for (int64_t link = 0;;) {
            int32_t j = live_next(s, i);
            if (j < 0)
                return RPIM_EBOUND;
            int32_t q = live_next(s, j);
            anchor = -1;
            if (rec_of[j] >= 0) {
                /* the (right, right-context) occurrence dies with j */
                if (q < 0)
                    return RPIM_EBOUND;
                CHECK(uncredit(s, right, sym[q], j, &anchor));
            }
            sym[i] = fresh;
            sym[j] = TOMBSTONE;
            /* i + 1 .. q - 1 is now one block of tombstones */
            int32_t end = q < 0 ? s->n : q;
            next[i + 1] = end;
            prev[end - 1] = i;

            if (q >= 0 && q == upcoming) {
                /* adjacent occurrence: extend the chain */
                upcoming = next[q];
                rec_of[q] = -1;
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

/* Copy input into sym and allocate the kernel's arrays; n >= 2. */
static int setup(State *s, const uint8_t *input, int32_t n)
{
    s->n = n;
    s->prev_occ = alloc(n, sizeof(int32_t));
    s->next_occ = alloc(n, sizeof(int32_t));
    s->rec_of = alloc(n, sizeof(int32_t));
    /* distinct records never exceed the threaded-slot count, so n + 2
       bounds the store even mid-step; int32 indices cap it as well */
    s->rec_limit = n < INT32_MAX - 2 ? (int64_t)n + 2 : INT32_MAX;
    s->rec_cap = MIN_RECORDS;
    s->rec = alloc(s->rec_cap, sizeof *s->rec);
    s->free_head = -1;
    s->fresh = -1;
    s->byte_pair = alloc(1 << 16, sizeof *s->byte_pair);
    s->pend_cap = MIN_PENDING;
    s->pend = alloc(s->pend_cap, sizeof *s->pend);
    s->heap_cap = 1024;
    s->heap = alloc(s->heap_cap, sizeof *s->heap);
    if (!s->prev_occ || !s->next_occ || !s->rec_of || !s->rec
        || !s->byte_pair || !s->pend || !s->heap)
        return RPIM_ENOMEM;
    CHECK(reserve_maps(s, MIN_SYMBOLS));
    memset(s->byte_pair, 0xFF, (1 << 16) * sizeof *s->byte_pair);
    for (int32_t i = 0; i < n; i++) {
        s->sym[i] = input[i];
        s->rec_of[i] = -1;
    }
    return RPIM_OK;
}

static void teardown(State *s)
{
    free(s->prev_occ);
    free(s->next_occ);
    free(s->rec_of);
    free(s->rec);
    free(s->self_rec);
    free(s->fresh_left);
    free(s->fresh_right);
    free(s->byte_pair);
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
    free(s->byte_pair);
    s->byte_pair = NULL;

    int64_t nrules = 0;
    while (max_rules < 0 || nrules < max_rules) {
        /* file fresh heap entries for pairs whose count grew; the floor
           skips a record queued again after it was released and re-used
           within one flush */
        int64_t floor = s->stamp;
        for (int64_t t = 0; t < s->npend; t++) {
            int32_t idx = s->pend[t];
            s->rec[idx].pending = 0;
            if (s->rec[idx].count < 2 || s->rec[idx].stamp > floor)
                continue;
            CHECK(refile(s, idx));
        }
        s->npend = 0;

        /* pop the most frequent pair, discarding stale entries and
           re-filing entries whose count moved since they were pushed */
        int32_t chosen = -1;
        while (s->hsize > 0) {
            Entry top = s->heap[0];
            const Record *r = &s->rec[top.idx];
            if (r->stamp != top.stamp) {
                heap_pop(s);
                continue;
            }
            if (r->count != top.count) {
                heap_pop(s);
                if (r->count >= 2)
                    CHECK(refile(s, top.idx));
                continue;
            }
            if (top.count < min_frequency)
                break;
            heap_pop(s);
            chosen = top.idx;
            break;
        }
        if (chosen < 0)
            break;

        if (nrules >= rule_cap)
            return RPIM_EBOUND;
        int32_t fresh = (int32_t)(NONTERMINAL_BASE + nrules);
        CHECK(reserve_maps(s, (int64_t)fresh + 1));
        int32_t left = s->rec[chosen].left, right = s->rec[chosen].right;
        int32_t head = s->rec[chosen].head;
        release_record(s, chosen);
        rule_left[nrules] = left;
        rule_right[nrules] = right;
        CHECK(replace_thread(s, head, left, right, fresh));
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
 * out[2 * nrules + i].  len holds cap / 2 elements and receives the
 * expanded length of rule k at len[k], or 0 when that exceeds limit, as
 * in rpim_expanded_length.  info[0] gets the rule count and info[1] the
 * sequence length, as a uint64 bit pattern, as soon as each is read.
 * Returns RPIM_OK with the expanded length of the sequence in info[4],
 * as a uint64 bit pattern; or the first fault a varint-by-varint reader
 * meets:
 *   RPIM_ETRUNCATED, RPIM_ENONMINIMAL, RPIM_EOVERFLOW, RPIM_ERANGE for
 *     a bad varint at byte offset info[2] (the rule count must be below
 *     2^32 - 256, rule sides and symbols below 2^32);
 *   RPIM_ERULE when rule info[2] references a symbol outside its
 *     prefix, checked once its right side is read;
 *   RPIM_ESYMBOL when symbol info[2], of value info[3], is undefined;
 *   RPIM_ETRAILING when bytes follow the sequence from offset info[2];
 * or, for a body without faults, RPIM_ELIMIT when its expanded length
 * exceeds limit.  Every varint takes a byte, so a valid body needs at
 * most size elements; no write passes cap, and a body that is valid but
 * does not fit returns RPIM_EBOUND.
 */
int rpim_decode_body(const uint8_t *body, int64_t size, int64_t *out,
                     int64_t cap, uint64_t limit, uint64_t *len,
                     int64_t *info)
{
    int64_t pos = 0;
    uint64_t count, a, b, s, total = 0;
    int over = 0;
    info[0] = info[1] = info[2] = info[3] = info[4] = 0;
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
            len[k] = add_within(symbol_length((int64_t)a, len),
                                symbol_length((int64_t)b, len), limit);
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
        if (fits) {
            seq[i] = (int64_t)s;
            uint64_t n = symbol_length((int64_t)s, len);
            if (n == 0 || n > limit - total)
                over = 1;
            else
                total += n;
        }
    }
    info[2] = pos;
    if (pos != size)
        return RPIM_ETRAILING;
    if (!fits)
        return RPIM_EBOUND;
    info[4] = (int64_t)total;
    return over ? RPIM_ELIMIT : RPIM_OK;
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
