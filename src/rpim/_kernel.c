/*
 * The C engine: Re-Pair compression over flat arrays, after Larsson &
 * Moffat, "Off-line dictionary-based compression" (Proc. IEEE 2000),
 * the expansion of its grammars, the container body codec and the pixel
 * layout of images.
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
 * threaded slot names its record in rec_of, queue entries and the born
 * list carry record indices, and a pair being credited is found through
 * one cell.  That works because a replacement step only ever credits
 * pairs that hold its fresh symbol, or self pairs through run-head
 * repair: a self pair (a, a) is filed under self_rec[a], (x, fresh)
 * under fresh_right[x] and (fresh, y) under fresh_left[y], and the
 * initial count files byte pairs in a 2^16-cell array freed after it.
 * A cell is trusted only when its record is live and holds exactly the
 * pair, so cells left by earlier steps need no reset.  The initial
 * count makes two passes: a forward one counts each occurrence and
 * links it to its pair's previous one, a backward one links it to the
 * next, so no write goes back to an earlier slot.
 *
 * A pair's count never rises after the step that creates its record.
 * A step credits only pairs that hold its fresh symbol, whose records
 * it creates, and self pairs through run-head repair.  A replacement
 * that eats the head of a run of length L takes back all floor(L/2) of
 * the run's self-pair credits before repair re-credits the L - 1
 * symbols left from the new head, and floor((L-1)/2) <= floor(L/2).
 * So the top count never rises either, a count only falls once filed,
 * and each record is filed once, when its step ends: the initial count
 * files every record, and credit lists every record it creates for
 * filing before the next pop.  A record still at count 1 then is
 * released, and its slot's rec_of reset, since its pair can never be
 * chosen or credited again; most records end so.  Should run-head
 * repair meet its pair again, it makes a new record.
 *
 * The queue follows Larsson & Moffat's, indexed by count.  A record of
 * count c from 2 to BUCKETS - 1 gets an entry {code, count, index} in
 * bucket c, a list; higher counts get theirs in an array heap ordered by
 * (count desc, code asc).  An entry is a hint, an upper bound on its
 * record's count.  Where one reaches the top, an entry whose record is
 * released or now holds another pair is dropped, and one whose record's
 * count fell is filed again at its new count, by the rule that files a
 * record at its birth.  Once the heap is used up, level walks the
 * buckets downward, and when bucket c becomes the top its entries are
 * handed to the heap: each is checked once in this way, and those still
 * at count c join the records born at count c in the heap, which orders
 * them all by code.  An entry that matches its record is the pair of
 * highest count, the smallest among equals.  A record above its entry's
 * count, or born above the level, would break the bound, and returns
 * RPIM_EBOUND rather than a grammar that is not greedy.
 *
 * Replaced slots become tombstones, and there are no live links: a
 * block of tombstones [a, b] keeps b + 1 in next_occ[a] and a - 1 in
 * prev_occ[b], links a tombstone, never threaded, does not use.  The
 * live neighbour of slot i is i + 1 (i - 1) unless that slot is a
 * tombstone, whose link then skips the block.  Slot 0 is never a
 * tombstone.
 *
 * The walk along a thread reads ahead, since on long inputs the slot
 * arrays outgrow a core's L2 and the slot each thread link jumps to
 * would miss in it.  At each occurrence, with u the next one, it reads
 * next_occ[u], whose line the occurrence before fetched, and prefetches
 * the slot lines around the occurrence after u, so that they arrive two
 * occurrences early: the software-pipelined prefetching of a pointer
 * chase in Chen, Ailamaki, Gibbons & Mowry, "Improving hash join
 * performance through prefetching" (ICDE 2004).  The hints only read
 * and prefetch, so no value the walk uses depends on them, nor does the
 * grammar.  They read only next_occ[u], a link of the thread being
 * walked, and check every index they form against the arrays before it
 * makes an address.  On short inputs, whose arrays stay in cache, they
 * cost about 1%, so they are not gated by input length.
 *
 * Memory: the per-slot arrays (occurrence links, record of each slot) are
 * 32-bit, 16 bytes per input symbol with the caller's 4-byte working
 * array, which is all the caller allocates: the rules come back in its
 * tail.  The three kernel arrays are one slot block of 3n int32, which a
 * call of at least HOLD bytes keeps for the next one: glibc maps a block
 * that large itself and unmaps it on free, so each call would fault all
 * of its pages in afresh, while it reuses the pages of smaller blocks
 * freed to its heap.  The block is taken from, and handed back to, one
 * spare pointer by atomic exchange, so calls in two threads at once each
 * get their own; the loser of a race is freed, and one block at most is
 * held, until rpim_release.  Every slot is written before it is read, so
 * a block's stale values never count.  Every other buffer starts empty
 * and grows through reserve, by doubling: the record store with the
 * number of live pairs, the born list and the heap with what they hold,
 * the rule sides and the three symbol maps, from 256 cells, with the rule
 * count.  So a low-entropy input pays for the few pairs it has, not for
 * its length; released records are chained through their own head field
 * for reuse, last released first.  Since singletons go when their step
 * ends, later steps mostly re-use records, and the store grows little
 * past what the initial count needs.  The bucket heads are a fixed
 * BUCKETS lists, and a bucket's entries are freed once the heap takes
 * them.  Once no pair reaches the threshold, the final sequence is
 * compacted to the front of the working array and the rule sides are
 * copied right after it: each rule replaces at least two occurrences, so
 * the sequence and two slots per rule fit in its n slots.
 *
 * Every capacity is checked before it is written: a violated bound, a
 * pair no cell files, or a count above its queue entry's returns
 * RPIM_EBOUND and a failed allocation RPIM_ENOMEM, with all memory
 * released.  Inputs are limited to
 * 2^31 - 1 symbols, so slot indices, record indices and symbols fit
 * int32 with -1 free to mean "absent", and rule ordinals stay below
 * 2^30.
 *
 * A grammar is one array of rule sides, rule k the pair (rules[2k],
 * rules[2k + 1]): int32 in the tail of rpim_compress's working array,
 * int64 everywhere else.
 *
 * Decompression is one entry point over an int64 grammar and final
 * sequence.  One routine, measure, checks every rule and symbol and
 * measures the expanded length against a caller's limit, in a table of
 * one length per symbol (a symbol longer than the limit is marked as
 * such, so doubling chains cannot overflow); the body decoder and
 * rpim_expand both call it.  rpim_expand only then allocates the
 * output, at its exact length, which the caller releases with
 * rpim_free.  Two tables indexed by symbol, terminals and rules alike,
 * hold each symbol's expanded length and where its expansion can be
 * copied from: a terminal's is its byte in a static table of the 256
 * byte values, and a rule's is unset until its first expansion starts,
 * by an explicit stack, and then its place in the output.  So every
 * later use of a symbol is one copy, whatever its kind, as Larsson &
 * Moffat write a rule's expansion once and copy it.
 * An expansion of COPY (16) bytes or less moves as one block of COPY
 * bytes through a temporary, so a block may overlap its source, and may
 * read and write up to COPY - 1 bytes past the expansion's end.  The
 * byte table carries that slack.  The output does not: a block that
 * would end past it is copied at its exact length instead, so that the
 * output's allocation stays the size of the bytes it returns.  Rules
 * the sequence does not reach are never expanded.  Every index it
 * writes is checked, and it returns RPIM_EBOUND rather than pass a
 * bound.
 *
 * The container body codec is one sequential pass each way.
 * rpim_decode_body reads the rule count, the rule sides, the sequence
 * length and the symbols varint by varint, with every check the
 * varint-by-varint reader makes, in its order, so it stops at the fault
 * that reader would meet first and reports it by status and offset.
 * It writes into one caller array of one value per body byte, rule
 * sides then symbols, so no declared count sizes anything: the value
 * at index j is written only after more than j varints have been read,
 * each at least a byte, so every write index stays below the body's
 * size.  Once the whole body is read it measures it as rpim_expand
 * does.  rpim_encode_body writes the minimal unsigned LEB128 varints of
 * the same fields.
 *
 * The pixel layout is one routine, rpim_layout, that moves an image's
 * samples between a stream in any of the four linearization orders and
 * a pixel grid, in either direction, in one pass that writes each byte
 * once.  A grid is a row pitch, a row order and a pixel form, so the
 * row-major samples and a BMP raster are both grids: the image layer's
 * linearize, delinearize's samples and encode_bmp each make one call.
 */

#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    RPIM_OK = 0, RPIM_ENOMEM = 1, RPIM_EBOUND = 2, RPIM_ELIMIT = 3,
    /* rpim_decode_body's faults; rpim_expand reports ERULE and ESYMBOL */
    RPIM_ETRUNCATED = 4, RPIM_ENONMINIMAL = 5, RPIM_EOVERFLOW = 6,
    RPIM_ERANGE = 7, RPIM_ERULE = 8, RPIM_ESYMBOL = 9, RPIM_ETRAILING = 10
};

#define NONTERMINAL_BASE 256
#define TOMBSTONE (-1)
#define TAIL (-2)        /* credit anchor: append at the thread tail */
#define BUCKETS 64       /* counts below this are queued by count */
/* slot blocks of this many bytes or more are kept between calls: glibc's
   DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, where its dynamic threshold stops */
#define HOLD ((uint64_t)32 << 20)

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr) ((void)0)
#endif

#define CHECK(expr)                 \
    do {                            \
        int err_ = (expr);          \
        if (err_ != RPIM_OK)        \
            return err_;            \
    } while (0)

/* A released record has count 0 and keeps its place on the free chain
   in head. */
typedef struct { int32_t count, head, tail, left, right; } Record;
typedef struct { uint64_t code; int32_t count, idx; } Entry;
typedef struct { Entry *entry; int64_t size, cap; } List;

/* prev_occ, next_occ and rec_of of up to cap slots, one after another */
typedef struct { int64_t cap; int32_t slot[]; } Block;

/* the block kept between calls, or NULL */
static _Atomic(Block *) spare;

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
    int32_t *born;        /* records created since the last pop */
    int64_t nborn, born_cap;
    int32_t level;        /* BUCKETS while the heap holds the top count,
                             else the count being taken */
    Entry *heap;          /* entries of count level and above */
    int64_t hsize, heap_cap;
    List bucket[BUCKETS]; /* entries of counts 2 .. level - 1, by count */
    int32_t *rules;       /* rule k's sides at rules[2k] and rules[2k + 1] */
    int64_t nrules, rules_cap;
    Block *block;         /* holds prev_occ, next_occ and rec_of; last,
                             so the fields above keep their short offsets */
} State;

static void *alloc(int64_t count, size_t size)
{
    if (count <= 0 || (uint64_t)count > SIZE_MAX / size)
        return NULL;
    return malloc((size_t)count * size);
}

/* Return buf grown by doubling, from one element when it has none,
   until it holds need elements, or NULL when that fails; the old block
   then stays with the caller. */
static void *reserve(void *buf, int64_t *cap, int64_t need, size_t size)
{
    int64_t c = *cap;
    if (need <= c)
        return buf;
    if (c < 1)
        c = 1;
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

/* Grow the symbol maps with reserve until they hold need cells, the new
   ones -1. */
static int reserve_maps(State *s, int64_t need)
{
    int32_t **maps[] = {&s->self_rec, &s->fresh_left, &s->fresh_right};
    int64_t old = s->map_cap, cap = old;
    if (need <= old)
        return RPIM_OK;
    for (int k = 0; k < 3; k++) {
        cap = old;
        int32_t *grown = reserve(*maps[k], &cap, need, sizeof *grown);
        if (grown == NULL)
            return RPIM_ENOMEM;
        memset(grown + old, 0xFF, (size_t)(cap - old) * sizeof *grown);
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

/* Drop the root: the last entry takes its place and sifts down. */
static void heap_pop(State *s)
{
    if (--s->hsize == 0)
        return;
    Entry e = s->heap[s->hsize];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= s->hsize)
            break;
        if (c + 1 < s->hsize && above(&s->heap[c + 1], &s->heap[c]))
            c++;
        if (!above(&s->heap[c], &e))
            break;
        s->heap[i] = s->heap[c];
        i = c;
    }
    s->heap[i] = e;
}

static int bucket_add(State *s, Entry e)
{
    List *b = &s->bucket[e.count];
    Entry *grown = reserve(b->entry, &b->cap, b->size + 1, sizeof *grown);
    if (grown == NULL)
        return RPIM_ENOMEM;
    b->entry = grown;
    b->entry[b->size++] = e;
    return RPIM_OK;
}

/* Queue e by its count: from level up in the heap, else in its bucket. */
static int file_entry(State *s, Entry e)
{
    return e.count >= s->level ? heap_push(s, e) : bucket_add(s, e);
}

/* How an entry stands against its record. */
enum { MATCH, STALE, FELL, ROSE };

/* MATCH when e's record holds e's pair at e's count; STALE when it was
   released, re-used for another pair or fell below 2; FELL when its
   count fell to 2 or more, which e->count then takes; ROSE when its
   count is above e's, a broken invariant. */
static inline int recheck(const State *s, Entry *e)
{
    const Record *r = &s->rec[e->idx];
    if (r->count < 2 || pair_code(r->left, r->right) != e->code)
        return STALE;
    if (r->count == e->count)
        return MATCH;
    if (r->count > e->count)
        return ROSE;
    e->count = r->count;
    return FELL;
}

/* File record idx, born in the initial count or since the last pop, by
   its count.  The top count never rises, so at a level below BUCKETS
   only that count can be born.  A record still at count 1 is released,
   and its slot forgets it: its pair can never be chosen or credited
   again. */
static int file_born(State *s, int32_t idx)
{
    const Record *r = &s->rec[idx];
    if (r->count >= 2) {
        if (s->level < BUCKETS && r->count > s->level)
            return RPIM_EBOUND;
        return file_entry(s, (Entry){pair_code(r->left, r->right), r->count,
                                     idx});
    }
    if (r->count == 1) {
        if (s->rec_of[r->head] != idx)
            return RPIM_EBOUND;
        s->rec_of[r->head] = -1;
        release_record(s, idx);
    }
    return RPIM_OK;
}

/* Point *top at the heap's top entry once it matches its record, or at
   NULL when the heap empties: other entries are popped, and those whose
   count fell filed again. */
static int heap_top(State *s, Entry **top)
{
    *top = NULL;
    while (s->hsize > 0) {
        Entry e = s->heap[0];
        int how = recheck(s, &e);
        if (how == MATCH) {
            *top = &s->heap[0];
            return RPIM_OK;
        }
        if (how == ROSE)
            return RPIM_EBOUND;
        heap_pop(s);
        if (how == FELL)
            CHECK(file_entry(s, e));
    }
    return RPIM_OK;
}

/* Once the heap is used up, move level down to the next bucket that
   holds entries and hand them to the heap: each is checked once and
   filed again, so one still at the level goes to the heap and one whose
   count fell to its lower bucket, while a stale one is dropped.  The
   bucket is then freed.  *more is 0 when no bucket at lowest or above
   is left. */
static int descend(State *s, int64_t lowest, int *more)
{
    do
        s->level--;
    while (s->level >= lowest && s->bucket[s->level].size == 0);
    *more = s->level >= lowest;
    if (!*more)
        return RPIM_OK;
    List *b = &s->bucket[s->level];
    for (int64_t k = 0; k < b->size; k++) {
        Entry e = b->entry[k];
        int how = recheck(s, &e);
        if (how == ROSE)
            return RPIM_EBOUND;
        if (how != STALE)
            CHECK(file_entry(s, e));
    }
    free(b->entry);
    *b = (List){NULL, 0, 0};
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
        int32_t *born = reserve(s->born, &s->born_cap, s->nborn + 1,
                                sizeof *born);
        if (born == NULL)
            return RPIM_ENOMEM;
        s->born = born;
        s->born[s->nborn++] = idx;
        s->rec[idx] = (Record){1, slot, slot, left, right};
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
        return RPIM_OK;
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
    return RPIM_OK;
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
    int32_t *const slots[] = {sym, rec_of, prev, next};
    int32_t n = s->n;
    int self_pair = left == right;
    int32_t anchor;

    s->fresh = fresh;
    for (int32_t slot = head; slot >= 0;) {
        int32_t i = slot;
        int32_t upcoming = next[i];
        if (upcoming >= 0 && upcoming < n) {
            /* prefetch the slot lines around the occurrence after
               upcoming (see the header); the hints sit in the walk
               itself, since GCC takes a function that only reads and
               prefetches for one without effect and drops calls to it */
            int32_t w = next[upcoming];
            if (w >= 0 && w < n) {
                int32_t lo = w > 0 ? w - 1 : w, hi = w + 1 < n ? w + 1 : w;
                for (int k = 0; k < 4; k++) {
                    PREFETCH(&slots[k][lo]);
                    PREFETCH(&slots[k][hi]);
                }
            }
        }
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

/* Copy input into sym and allocate the kernel's arrays, taking the
   spare slot block when it holds n slots; n >= 2. */
static int setup(State *s, const uint8_t *input, int32_t n)
{
    s->n = n;
    Block *b = atomic_exchange(&spare, NULL);
    if (b != NULL && b->cap < n) {
        free(b);
        b = NULL;
    }
    if (b == NULL
        && (uint64_t)n <= (SIZE_MAX - sizeof *b) / (3 * sizeof(int32_t))
        && (b = malloc(sizeof *b + 3 * (size_t)n * sizeof(int32_t))) != NULL)
        b->cap = n;
    s->block = b;
    if (b == NULL)
        return RPIM_ENOMEM;
    s->prev_occ = b->slot;
    s->next_occ = b->slot + n;
    s->rec_of = b->slot + 2 * (size_t)n;
    /* distinct records never exceed the threaded-slot count, so n + 2
       bounds the store even mid-step; int32 indices cap it as well */
    s->rec_limit = n < INT32_MAX - 2 ? (int64_t)n + 2 : INT32_MAX;
    s->free_head = -1;
    s->fresh = -1;
    s->byte_pair = alloc(1 << 16, sizeof *s->byte_pair);
    s->level = BUCKETS;
    if (s->byte_pair == NULL)
        return RPIM_ENOMEM;
    CHECK(reserve_maps(s, NONTERMINAL_BASE));
    memset(s->byte_pair, 0xFF, (1 << 16) * sizeof *s->byte_pair);
    for (int32_t i = 0; i < n; i++)
        s->sym[i] = input[i];
    return RPIM_OK;
}

/* Free the kernel's arrays; a slot block of HOLD bytes or more becomes
   the spare, and the block it displaces is freed. */
static void teardown(State *s)
{
    Block *b = s->block;
    if (b != NULL && (uint64_t)b->cap * 3 * sizeof(int32_t) >= HOLD)
        b = atomic_exchange(&spare, b);
    free(b);
    free(s->rec);
    free(s->self_rec);
    free(s->fresh_left);
    free(s->fresh_right);
    free(s->byte_pair);
    free(s->born);
    free(s->heap);
    free(s->rules);
    for (int c = 0; c < BUCKETS; c++)
        free(s->bucket[c].entry);
}

/* The initial greedy count, which skips slots overlapping the counted
   self-pair occurrence that starts one position earlier.  A forward
   pass counts each occurrence on its record and links it to the pair's
   previous one through prev_occ; a backward pass links it to the next
   through next_occ, so no write goes back to an earlier slot.  Every
   record, 0 .. nrec - 1, is then filed. */
static int count_initial(State *s)
{
    const int32_t *sym = s->sym;
    int32_t *prev = s->prev_occ, *next = s->next_occ, *rec_of = s->rec_of;
    int32_t n = s->n, run_head = 0;
    for (int32_t i = 0; i < n - 1; i++) {
        int32_t a = sym[i], b = sym[i + 1];
        if (i > 0 && a != sym[i - 1])
            run_head = i;
        if (a == b && ((i - run_head) & 1)) {
            rec_of[i] = -1;
            continue;
        }
        int32_t *cell = a == b ? &s->self_rec[a] : &s->byte_pair[a << 8 | b];
        int32_t idx = *cell;
        if (idx < 0) {
            CHECK(take_record(s, &idx));
            s->rec[idx] = (Record){0, -1, -1, a, b};
            *cell = idx;
        }
        Record *r = &s->rec[idx];
        r->count++;
        prev[i] = r->tail;
        r->tail = i;
        rec_of[i] = idx;
    }
    rec_of[n - 1] = -1;
    for (int32_t i = n - 2; i >= 0; i--) {
        int32_t idx = rec_of[i];
        if (idx >= 0) {
            next[i] = s->rec[idx].head;
            s->rec[idx].head = i;
        }
    }
    free(s->byte_pair);
    s->byte_pair = NULL;
    for (int64_t idx = 0; idx < s->nrec; idx++)
        CHECK(file_born(s, (int32_t)idx));
    return RPIM_OK;
}

static int run(State *s, int64_t min_frequency)
{
    int64_t lowest = min_frequency > 2 ? min_frequency : 2;
    CHECK(count_initial(s));
    for (;;) {
        for (int64_t t = 0; t < s->nborn; t++)
            CHECK(file_born(s, s->born[t]));
        s->nborn = 0;

        /* take the most frequent pair, the smallest among equals: the
           heap's top; once the heap is used up, descend hands it the next
           bucket at min_frequency or above */
        int32_t chosen = -1;
        for (;;) {
            Entry *top;
            CHECK(heap_top(s, &top));
            if (top != NULL) {
                if (top->count >= min_frequency) {
                    chosen = top->idx;
                    heap_pop(s);
                }
                break;
            }
            int more;
            CHECK(descend(s, lowest, &more));
            if (!more)
                break;
        }
        if (chosen < 0)
            break;

        /* the rule sides end up in sym, two slots each */
        int64_t need = 2 * (s->nrules + 1);
        if (need > s->n)
            return RPIM_EBOUND;
        int32_t *rules = reserve(s->rules, &s->rules_cap, need, sizeof *rules);
        if (rules == NULL)
            return RPIM_ENOMEM;
        s->rules = rules;
        int32_t fresh = (int32_t)(NONTERMINAL_BASE + s->nrules);
        CHECK(reserve_maps(s, (int64_t)fresh + 1));
        int32_t left = s->rec[chosen].left, right = s->rec[chosen].right;
        int32_t head = s->rec[chosen].head;
        release_record(s, chosen);
        rules[2 * s->nrules] = left;
        rules[2 * s->nrules + 1] = right;
        CHECK(replace_thread(s, head, left, right, fresh));
        s->nrules++;
    }
    return RPIM_OK;
}

/* Compact the live symbols of sym to its front and copy the rule sides
   after them, checking that they fit. */
static int finish(State *s, int64_t *sizes)
{
    int32_t *sym = s->sym;
    int64_t w = 0;
    for (int64_t i = 0; i < s->n; i++)
        if (sym[i] != TOMBSTONE)
            sym[w++] = sym[i];
    if (w > s->n - 2 * s->nrules)
        return RPIM_EBOUND;
    if (s->nrules > 0)
        memcpy(sym + w, s->rules, (size_t)(2 * s->nrules) * sizeof *sym);
    sizes[0] = s->nrules;
    sizes[1] = w;
    return RPIM_OK;
}

/*
 * Compress input[0:n] (terminals 0-255), working in sym, which holds n
 * elements, making rules until no pair reaches min_frequency.  On success
 * sizes[0] is the rule count and sizes[1] the length of the final
 * sequence, left in sym[0:sizes[1]]; rule k follows it, as the pair
 * (sym[sizes[1] + 2k], sym[sizes[1] + 2k + 1]).  Every rule replaces at
 * least two occurrences, so the sequence and the rules fit in n.  Returns
 * RPIM_OK, RPIM_ENOMEM when an allocation fails, or RPIM_EBOUND when a
 * capacity would be exceeded or a pair count rose after its queue entry
 * was filed, an invariant broken; an n above 2^31 - 1 is refused before
 * input or sym is touched.
 */
int rpim_compress(const uint8_t *input, int64_t n, int64_t min_frequency,
                  int32_t *sym, int64_t *sizes)
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
        err = run(&s, min_frequency);
    if (err == RPIM_OK)
        err = finish(&s, sizes);
    teardown(&s);
    return err;
}

/* a + b when both are real lengths (nonzero) and the sum is at most
   limit; else 0, the mark of a length past limit */
static inline uint64_t add_within(uint64_t a, uint64_t b, uint64_t limit)
{
    if (a == 0 || b == 0 || a > limit || b > limit - a)
        return 0;
    return a + b;
}

/*
 * Check the grammar of rule k = (rules[2k], rules[2k + 1]) and
 * seq[0:nseq], and measure them: len[s] gets the expanded length of
 * every symbol s below 256 + nrules, terminals included, or 0 when that
 * exceeds limit, and *total the sum, in order, of the symbols' lengths
 * that stay within limit, which is the sequence's length when all do.
 * Returns the first fault, rules before symbols: RPIM_ERULE when rule
 * info[0] references a symbol outside its prefix, [0, 256 + info[0]),
 * RPIM_ESYMBOL when symbol info[0], of value info[1], is outside
 * [0, 256 + nrules); else RPIM_ELIMIT when the sequence's length
 * exceeds limit.
 */
static inline int measure(const int64_t *rules, int64_t nrules,
                          const int64_t *seq, int64_t nseq, uint64_t limit,
                          uint64_t *len, int64_t *info, uint64_t *total)
{
    uint64_t sum = 0;
    int err = RPIM_OK;
    for (int64_t t = 0; t < NONTERMINAL_BASE; t++)
        len[t] = 1;
    for (int64_t k = 0; k < nrules; k++) {
        int64_t a = rules[2 * k], b = rules[2 * k + 1];
        if (a < 0 || b < 0 || a >= NONTERMINAL_BASE + k
            || b >= NONTERMINAL_BASE + k) {
            info[0] = k;
            return RPIM_ERULE;
        }
        len[NONTERMINAL_BASE + k] = add_within(len[a], len[b], limit);
    }
    for (int64_t i = 0; i < nseq; i++) {
        int64_t s = seq[i];
        if (s < 0 || s >= NONTERMINAL_BASE + nrules) {
            info[0] = i;
            info[1] = s;
            return RPIM_ESYMBOL;
        }
        if (len[s] == 0 || len[s] > limit - sum)
            err = RPIM_ELIMIT;
        else
            sum += len[s];
    }
    *total = sum;
    return err;
}

/* an expansion of at most COPY bytes moves as one block of COPY bytes,
   which reads up to COPY - 1 bytes past the expansion's end.  On
   high-entropy input nearly every copy is that short, and there an
   exact-length memcpy of each costs about as much as the branch on the
   symbol's kind that the tables remove */
#define COPY 16

#define BYTES4(b) (b), (b) + 1, (b) + 2, (b) + 3
#define BYTES16(b) BYTES4(b), BYTES4((b) + 4), BYTES4((b) + 8), \
    BYTES4((b) + 12)
#define BYTES64(b) BYTES16(b), BYTES16((b) + 16), BYTES16((b) + 32), \
    BYTES16((b) + 48)

/* terminal t's expansion, at TERMINAL + t, then COPY - 1 bytes for
   the block that reads terminal 255 */
static const uint8_t TERMINAL[NONTERMINAL_BASE + COPY - 1] = {
    BYTES64(0), BYTES64(64), BYTES64(128), BYTES64(192)};

/*
 * Expand seq[0:nseq] under the grammar whose rule k is (rules[2k],
 * rules[2k + 1]), when that takes at most limit bytes, limit below 2^63.
 * Returns RPIM_OK with the output in *out, to be released with
 * rpim_free, and its length in info[0].  Otherwise *out is NULL and the
 * status is the first fault measure finds, RPIM_ERULE, RPIM_ESYMBOL or
 * RPIM_ELIMIT, with its info[0] and info[1]; else RPIM_ENOMEM for a
 * failed allocation, and RPIM_EBOUND for a negative count, a limit of
 * 2^63 or more, or a write that would pass its buffer.
 */
int rpim_expand(const int64_t *rules, int64_t nrules, const int64_t *seq,
                int64_t nseq, uint64_t limit, uint8_t **out, int64_t *info)
{
    *out = NULL;
    info[0] = info[1] = 0;
    if (nrules < 0 || nseq < 0 || limit > INT64_MAX)
        return RPIM_EBOUND;
    /* len and src hold one value per symbol.  A path from a sequence
       symbol down to a terminal passes each rule at most once, and each
       rule on it leaves one right side on the stack: nrules + 1 entries */
    int64_t nsym = NONTERMINAL_BASE + nrules;
    uint64_t *len = malloc((size_t)(2 * nsym + nrules + 1) * sizeof *len);
    if (len == NULL)
        return RPIM_ENOMEM;
    int64_t *stack = (int64_t *)len + nsym;
    const uint8_t **src = (const uint8_t **)(stack + nrules + 1);
    int64_t out_len = 0, pos = 0;
    uint64_t total = 0;
    uint8_t *buf = NULL;
    int err = measure(rules, nrules, seq, nseq, limit, len, info, &total);
    if (err != RPIM_OK)
        goto done;
    for (int64_t t = 0; t < NONTERMINAL_BASE; t++)
        src[t] = TERMINAL + t;
    for (int64_t s = NONTERMINAL_BASE; s < nsym; s++)
        src[s] = NULL;
    out_len = (int64_t)total;
    buf = malloc(out_len ? (size_t)out_len : 1);
    /* the last position where a block still ends within buf */
    int64_t last_block = out_len - COPY;
    /* until the expansion fills buf exactly, a fault is a passed bound */
    err = buf == NULL ? RPIM_ENOMEM : RPIM_EBOUND;
    for (int64_t i = 0; i < nseq && buf != NULL; i++) {
        int64_t top = 0;
        stack[top++] = seq[i];
        while (top > 0) {
            int64_t s = stack[--top];
            const uint8_t *from = src[s];
            if (from != NULL) {
                /* a rule never occurs inside its own expansion, so a
                   source means a finished first expansion, ending at or
                   before pos, and a reached symbol is exact, at most
                   total bytes long.  A block read through a temporary
                   may overlap the bytes it writes */
                int64_t n = (int64_t)len[s];
                if (n > out_len - pos)
                    goto done;
                if (n <= COPY && pos <= last_block) {
                    uint8_t block[COPY];
                    memcpy(block, from, COPY);
                    memcpy(buf + pos, block, COPY);
                } else {
                    memcpy(buf + pos, from, (size_t)n);
                }
                pos += n;
            } else {
                if (top + 2 > nrules + 1)
                    goto done;
                const int64_t *rule = rules + 2 * (s - NONTERMINAL_BASE);
                src[s] = buf + pos;
                stack[top++] = rule[1];
                stack[top++] = rule[0];
            }
        }
    }
    if (buf != NULL && pos == out_len)
        err = RPIM_OK;
done:
    free(len);
    if (err != RPIM_OK) {
        free(buf);
        return err;
    }
    *out = buf;
    info[0] = out_len;
    return RPIM_OK;
}

/* Release a buffer rpim_expand returned; NULL is ignored. */
void rpim_free(void *p)
{
    free(p);
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
 * pass.  out holds cap elements, cap at least size, and receives rule
 * k at out[2k] and out[2k + 1] and symbol i at out[2 * nrules + i].
 * len holds 256 + cap / 2 elements; once the body is read without a
 * fault, measure fills it as in rpim_expand, one length per symbol.
 * info[0] gets the rule count and info[1] the
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
 *   RPIM_ETRAILING when info[3] bytes follow the sequence from offset
 *     info[2];
 * or, for a body without faults, RPIM_ELIMIT when its expanded length
 * exceeds limit.  A cap below size returns RPIM_EBOUND before anything
 * is read.  Each value goes to out[j] only once more than j varints
 * have been read, and every varint takes a byte, so no write reaches
 * size, and none passes cap.
 */
int rpim_decode_body(const uint8_t *body, int64_t size, int64_t *out,
                     int64_t cap, uint64_t limit, uint64_t *len,
                     int64_t *info)
{
    int64_t pos = 0;
    uint64_t count, a, b, s;
    info[0] = info[1] = info[2] = info[3] = info[4] = 0;
    if (size < 0 || cap < size)
        return RPIM_EBOUND;
    READ(count, SYMBOL_MAX - NONTERMINAL_BASE);
    int64_t nrules = (int64_t)count;
    info[0] = nrules;
    for (int64_t k = 0; k < nrules; k++) {
        READ(a, SYMBOL_MAX);
        READ(b, SYMBOL_MAX);
        if (a >= (uint64_t)(NONTERMINAL_BASE + k)
            || b >= (uint64_t)(NONTERMINAL_BASE + k)) {
            info[2] = k;
            return RPIM_ERULE;
        }
        out[2 * k] = (int64_t)a;
        out[2 * k + 1] = (int64_t)b;
    }
    READ(count, UINT64_MAX);
    info[1] = (int64_t)count;
    int64_t *seq = out + 2 * nrules;
    uint64_t defined = (uint64_t)(NONTERMINAL_BASE + nrules);
    for (uint64_t i = 0; i < count; i++) {
        READ(s, SYMBOL_MAX);
        if (s >= defined) {
            info[2] = (int64_t)i;
            info[3] = (int64_t)s;
            return RPIM_ESYMBOL;
        }
        seq[i] = (int64_t)s;
    }
    info[2] = pos;
    if (pos != size) {
        info[3] = size - pos;
        return RPIM_ETRAILING;
    }
    /* the reader has checked every reference, so measure finds no fault
       but the limit */
    return measure(out, nrules, seq, (int64_t)count, limit, len, info + 2,
                   (uint64_t *)&info[4]);
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
 * count nrules, then rules[0:2 * nrules], rule k's sides at rules[2k]
 * and rules[2k + 1], then the sequence length nseq and seq[0:nseq], each
 * as a minimal unsigned LEB128 varint.  A value takes at most 9 bytes,
 * so 9 * (2 * nrules + nseq + 2) bytes always suffice.  Returns RPIM_OK
 * with the body's length in *written, or RPIM_EBOUND for a negative
 * value or count, or when out is too small; out may then be part
 * written.
 */
int rpim_encode_body(const int64_t *rules, int64_t nrules,
                     const int64_t *seq, int64_t nseq, uint8_t *out,
                     int64_t cap, int64_t *written)
{
    *written = 0;
    if (nrules < 0 || nseq < 0 || cap < 0)
        return RPIM_EBOUND;
    /* every write below starts at least 9 bytes before cap */
    int64_t room = cap - 9, pos = 0;
    if (pos > room)
        return RPIM_EBOUND;
    pos = write_varint(out, pos, (uint64_t)nrules);
    for (int64_t j = 0; j < 2 * nrules; j++) {
        if (rules[j] < 0 || pos > room)
            return RPIM_EBOUND;
        pos = write_varint(out, pos, (uint64_t)rules[j]);
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

/* Free the slot block rpim_compress keeps between calls, if any. */
void rpim_release(void)
{
    free(atomic_exchange(&spare, NULL));
}

/* rpim_layout's mode bits, LinearizationMode's values, and its flags */
enum { LAYOUT_ZIGZAG = 1, LAYOUT_SPLIT = 2 };
enum { LAYOUT_TO_GRID = 1, LAYOUT_BOTTOM_UP = 2, LAYOUT_BGR = 4 };

/* One row's pixels: stream pixel x at s + x * step, the sample of its
   grid byte b at offset at[b], and grid pixel x at p + i + x * dir; px
   and to_grid are constants at each call, so that each gets a loop of
   its own.  The offsets are copied to locals, which no byte store can
   alias. */
static inline __attribute__((always_inline)) void
move_row(uint8_t *s, int64_t step, const int64_t *at, uint8_t *p,
         int64_t i, int64_t dir, int64_t width, int px, int to_grid)
{
    int64_t a0 = at[0], a1 = px == 3 ? at[1] : 0, a2 = px == 3 ? at[2] : 0;
    for (int64_t x = 0; x < width; x++, s += step, i += dir) {
        uint8_t *q = p + i;
        if (to_grid) {
            q[0] = s[a0];
            if (px == 3) {
                q[1] = s[a1];
                q[2] = s[a2];
            }
        } else {
            s[a0] = q[0];
            if (px == 3) {
                s[a1] = q[1];
                s[a2] = q[2];
            }
        }
    }
}

/*
 * Move the samples of a width x height image of channels (1 or 3)
 * samples per pixel between stream, in linearization order mode, and a
 * pixel grid, in one pass; towards the grid with LAYOUT_TO_GRID, else
 * towards the stream.  The stream holds the pixels row by row, each odd
 * row reversed under LAYOUT_ZIGZAG, and their samples interleaved, or
 * one plane per channel under LAYOUT_SPLIT.  Grid row y starts at
 * grid + y * pitch, or the image's rows run from the last grid row up
 * under LAYOUT_BOTTOM_UP.  A grid pixel holds the channels samples in
 * order, or, under LAYOUT_BGR, three bytes in reversed order, a single
 * channel's sample in all three (read back from the last); towards the
 * grid, the bytes past a row's pixels are zeroed.  So the row-major
 * samples are both a ROW_MAJOR stream and a grid of pitch
 * width * channels, and a BMP raster is a bottom-up BGR grid.  Returns
 * RPIM_EBOUND, before anything is touched, for a geometry, mode or
 * flags outside these, a pitch too short for a row, or a grid whose
 * size would pass INT64_MAX.
 */
int rpim_layout(uint8_t *stream, int64_t width, int64_t height,
                int64_t channels, int64_t mode, uint8_t *grid, int64_t pitch,
                int64_t flags)
{
    int64_t px = flags & LAYOUT_BGR ? 3 : channels;
    if (width < 1 || height < 1 || (channels != 1 && channels != 3)
        || mode < 0 || mode > 3 || flags < 0 || flags > 7
        || width > INT64_MAX / 3 || pitch < width * px
        || pitch > INT64_MAX / height)
        return RPIM_EBOUND;
    /* the stream's distance between a pixel's samples and between
       pixels, and its offset of grid byte b's sample */
    int64_t plane = mode & LAYOUT_SPLIT ? width * height : 1;
    int64_t step = mode & LAYOUT_SPLIT ? 1 : channels;
    int64_t at[3];
    for (int64_t b = 0; b < px; b++)
        at[b] = !(flags & LAYOUT_BGR) ? b * plane
                : channels == 3 ? (2 - b) * plane : 0;
    for (int64_t y = 0; y < height; y++) {
        uint8_t *s = stream + y * width * step;
        uint8_t *row = grid + (flags & LAYOUT_BOTTOM_UP ? height - 1 - y : y)
                              * pitch;
        int64_t i = 0, dir = px;
        if (flags & LAYOUT_TO_GRID)
            memset(row + width * px, 0, (size_t)(pitch - width * px));
        if ((mode & LAYOUT_ZIGZAG) && (y & 1)) {
            i = (width - 1) * px;
            dir = -px;
        }
        if (flags & LAYOUT_TO_GRID) {
            if (px == 3)
                move_row(s, step, at, row, i, dir, width, 3, 1);
            else
                move_row(s, step, at, row, i, dir, width, 1, 1);
        } else if (px == 3)
            move_row(s, step, at, row, i, dir, width, 3, 0);
        else
            move_row(s, step, at, row, i, dir, width, 1, 0);
    }
    return RPIM_OK;
}
