"""Re-Pair grammar compression over integer symbol sequences.

The compressor repeatedly replaces the most frequent adjacent symbol pair
with a fresh nonterminal and records the replacement as a grammar rule,
until no pair repeats.  Terminals are byte values 0-255; the k-th rule
introduces nonterminal 256 + k, and every rule body references only
terminals and earlier nonterminals, so the grammar is a straight-line
program deriving exactly one string.

Pair occurrences are counted greedily left to right without overlap, so a
run of the same symbol of length L contributes floor(L/2) occurrences of
its self-pair.  Counts are maintained incrementally: the working sequence
keeps doubly-linked occurrence threads per pair plus live-neighbor links
across the tombstones that replacements leave behind, and the pair table
keeps a bucket queue keyed by count for amortized constant-time extraction
of the current maximum.
"""

from __future__ import annotations

import heapq
import operator
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernel
from .errors import MalformedGrammarError

NONTERMINAL_BASE = 256

TOMBSTONE = -1

_SYMBOL_SPACE = 1 << 32
_CODE_MASK = _SYMBOL_SPACE - 1

# thread-insertion sentinel: append at the record's tail
_TAIL = -2


class Rule(NamedTuple):
    """One replacement: a nonterminal standing for the pair (left, right)."""

    left: int
    right: int


class Grammar:
    """Rules as two int64 arrays: rule k defines nonterminal
    NONTERMINAL_BASE + k as the pair (left[k], right[k]).

    Length, iteration, indexing and rules give Rule values.
    """

    __slots__ = ("left", "right")

    def __init__(self, rules: Iterable[tuple[int, int]] = ()) -> None:
        pairs = np.array(list(rules), dtype=np.int64).reshape(-1, 2)
        self.left = np.ascontiguousarray(pairs[:, 0])
        self.right = np.ascontiguousarray(pairs[:, 1])

    @classmethod
    def from_arrays(cls, left, right) -> Grammar:
        """The grammar whose rule k is (left[k], right[k]); int64 arrays
        are wrapped, not copied."""
        left = np.ascontiguousarray(left, dtype=np.int64)
        right = np.ascontiguousarray(right, dtype=np.int64)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("rule sides must be two one-dimensional arrays "
                             "of one length")
        grammar = cls.__new__(cls)
        grammar.left = left
        grammar.right = right
        return grammar

    @property
    def rules(self) -> list[Rule]:
        return list(self)

    def __len__(self) -> int:
        return len(self.left)

    def __iter__(self) -> Iterator[Rule]:
        return map(Rule, self.left.tolist(), self.right.tolist())

    def __getitem__(self, ordinal: int) -> Rule:
        return Rule(int(self.left[ordinal]), int(self.right[ordinal]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return (np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

    def __repr__(self) -> str:
        return f"Grammar({self.rules!r})"


@dataclass(frozen=True)
class CompressorConfig:
    min_frequency: int = 2
    max_rules: int | None = None

    def __post_init__(self) -> None:
        if self.min_frequency < 2:
            raise ValueError("min_frequency must be at least 2")
        if self.max_rules is not None and self.max_rules < 0:
            raise ValueError("max_rules must be non-negative")


def count_pairs(seq: Sequence[int]) -> dict[tuple[int, int], int]:
    """Greedy left-to-right non-overlapping counts of every adjacent pair.

    An occurrence counted at position i suppresses one starting at i + 1,
    which only matters for self-pairs: [a,a,a] counts (a,a) once.
    """
    counts: dict[tuple[int, int], int] = {}
    skip_at = -1
    for i in range(len(seq) - 1):
        if i == skip_at:
            continue
        a = seq[i]
        b = seq[i + 1]
        pair = (a, b)
        counts[pair] = counts.get(pair, 0) + 1
        if a == b and i + 2 < len(seq) and seq[i + 2] == a:
            skip_at = i + 1
    return counts


class PairRecord:
    """Count and occurrence thread for one pair seen at least twice."""

    __slots__ = ("left", "right", "count", "thread_head", "thread_tail", "stamp")

    def __init__(self, left: int, right: int, count: int,
                 thread_head: int, thread_tail: int) -> None:
        self.left = left
        self.right = right
        self.count = count
        self.thread_head = thread_head
        self.thread_tail = thread_tail
        # identity of this record's newest bucket-queue entry; -1 = none yet
        self.stamp = -1

    @property
    def pair(self) -> tuple[int, int]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return (f"PairRecord(pair=({self.left}, {self.right}), count={self.count}, "
                f"thread={self.thread_head}..{self.thread_tail})")


class SequenceArray:
    """Working sequence under replacement.

    Parallel arrays per slot: the symbol (TOMBSTONE once vacated), the
    prev/next links of the occurrence thread the slot belongs to, and a
    threaded flag marking slots that start a counted occurrence.  live_prev
    and live_next skip tombstones in both directions.  Index -1 means
    absent throughout.
    """

    __slots__ = ("symbols", "prev_occurrence", "next_occurrence", "threaded",
                 "live_prev", "live_next", "live_count")

    def __init__(self, symbols, prev_occurrence=None, next_occurrence=None,
                 threaded=None):
        if not isinstance(symbols, list):
            symbols = list(symbols)
        n = len(symbols)
        self.symbols: list[int] = symbols
        self.prev_occurrence: list[int] = (
            [-1] * n if prev_occurrence is None else prev_occurrence)
        self.next_occurrence: list[int] = (
            [-1] * n if next_occurrence is None else next_occurrence)
        self.threaded: bytearray = bytearray(n) if threaded is None else threaded
        self.live_prev: list[int] = list(range(-1, n - 1))
        self.live_next: list[int] = list(range(1, n + 1))
        if n:
            self.live_next[n - 1] = -1
        self.live_count: int = n

    def working_sequence(self) -> list[int]:
        """Live symbols left to right, tombstones skipped."""
        if self.live_count == len(self.symbols):
            return list(self.symbols)
        return [s for s in self.symbols if s != TOMBSTONE]


class PairTable:
    """Pair statistics: full records for counts >= 2, seen-once slots, and
    a count-indexed bucket queue for max extraction.

    records and seen_once are keyed by the pair code (left << 32) | right;
    seen_once maps a pair counted exactly once to its occurrence's slot.

    Bucket entries are (code, stamp) pairs in min-heaps, so equal-count
    ties resolve to the lexicographically smallest pair.  Entries go stale
    when a count changes; extraction discards entries whose stamp no longer
    matches the record and lazily re-files entries whose count moved.
    """

    __slots__ = ("records", "seen_once", "_buckets", "_pending", "_stamp",
                 "_max_count")

    def __init__(self) -> None:
        self.records: dict[int, PairRecord] = {}
        self.seen_once: dict[int, int] = {}
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        self._pending: set[int] = set()
        self._stamp = 0
        self._max_count = 0

    def _flush_pending(self) -> None:
        # file a fresh bucket entry for every record whose count grew
        records = self.records
        buckets = self._buckets
        for code in self._pending:
            record = records.get(code)
            if record is None:
                continue
            self._stamp += 1
            record.stamp = self._stamp
            heapq.heappush(buckets.setdefault(record.count, []),
                           (code, self._stamp))
            if record.count > self._max_count:
                self._max_count = record.count
        self._pending.clear()

    def _extract_max(self, min_frequency: int) -> PairRecord | None:
        """Pop and return the most frequent record, or None below threshold."""
        buckets = self._buckets
        records = self.records
        while self._max_count >= min_frequency:
            heap = buckets.get(self._max_count)
            if not heap:
                buckets.pop(self._max_count, None)
                self._max_count -= 1
                continue
            code, stamp = heapq.heappop(heap)
            record = records.get(code)
            if record is None or record.stamp != stamp:
                continue
            if record.count != self._max_count:
                # count decreased since this entry was filed; re-file it
                self._stamp += 1
                record.stamp = self._stamp
                heapq.heappush(buckets.setdefault(record.count, []),
                               (code, self._stamp))
                continue
            del records[code]
            return record
        return None

    def _credit(self, array: SequenceArray, left: int, right: int,
                slot: int, after: int = _TAIL) -> None:
        """Register a new counted occurrence of (left, right) at slot.

        `after` places the slot in the record's thread: _TAIL appends, -1
        prepends, otherwise the slot is spliced in behind that thread slot.
        """
        code = (left << 32) | right
        prev_occ = array.prev_occurrence
        next_occ = array.next_occurrence
        array.threaded[slot] = 1
        record = self.records.get(code)
        if record is None:
            first = self.seen_once.pop(code, -1)
            if first < 0:
                self.seen_once[code] = slot
                prev_occ[slot] = -1
                next_occ[slot] = -1
                return
            lo, hi = (first, slot) if first < slot else (slot, first)
            prev_occ[lo] = -1
            next_occ[lo] = hi
            prev_occ[hi] = lo
            next_occ[hi] = -1
            self.records[code] = PairRecord(left, right, 2, lo, hi)
            self._pending.add(code)
            return
        record.count += 1
        if after == _TAIL:
            after = record.thread_tail
        if after < 0:
            follower = record.thread_head
            record.thread_head = slot
            prev_occ[slot] = -1
        else:
            follower = next_occ[after]
            next_occ[after] = slot
            prev_occ[slot] = after
        next_occ[slot] = follower
        if follower < 0:
            record.thread_tail = slot
        else:
            prev_occ[follower] = slot
        self._pending.add(code)

    def _uncredit(self, array: SequenceArray, left: int, right: int,
                  slot: int) -> int:
        """Drop the counted occurrence of (left, right) at slot.

        Returns the removed slot's thread predecessor (-1 if it was the
        head); run-head repair uses it as the splice-back anchor.
        """
        code = (left << 32) | right
        prev_occ = array.prev_occurrence
        next_occ = array.next_occurrence
        array.threaded[slot] = 0
        record = self.records.get(code)
        if record is None:
            if self.seen_once.pop(code) != slot:
                raise AssertionError("seen-once slot out of sync")
            return -1
        p = prev_occ[slot]
        n = next_occ[slot]
        if p < 0:
            record.thread_head = n
        else:
            next_occ[p] = n
        if n < 0:
            record.thread_tail = p
        else:
            prev_occ[n] = p
        prev_occ[slot] = -1
        next_occ[slot] = -1
        record.count -= 1
        if record.count == 1:
            # demote: the surviving occurrence is tracked as seen-once
            del self.records[code]
            self.seen_once[code] = record.thread_head
            self._pending.discard(code)
        return p


def build_sequence_array(seq) -> tuple[SequenceArray, PairTable]:
    """Index a sequence: occurrence threads plus pair counts.

    Accepts bytes or any integer sequence with values in [0, 2**32).
    """
    if isinstance(seq, (bytes, bytearray)):
        symbols = np.frombuffer(seq, dtype=np.uint8).astype(np.int64)
    else:
        symbols = np.asarray(seq, dtype=np.int64)
        if symbols.ndim != 1 and symbols.size:
            raise ValueError("sequence must be one-dimensional")
    n = int(symbols.size)
    table = PairTable()
    if n and (int(symbols.min()) < 0 or int(symbols.max()) >= _SYMBOL_SPACE):
        raise ValueError("symbols must fit unsigned 32-bit values")
    if n < 2:
        return SequenceArray(symbols.tolist()), table

    wide = symbols.astype(np.uint64)
    codes = (wide[:-1] << np.uint64(32)) | wide[1:]

    # greedy non-overlap: within a run of equal symbols only even offsets
    # from the run head start a counted occurrence
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(symbols[1:], symbols[:-1], out=change[1:])
    run_head = np.flatnonzero(change)
    offsets = np.arange(n, dtype=np.int64) - run_head[np.cumsum(change) - 1]
    counted = change[1:] | ((offsets[:-1] & 1) == 0)

    slots = np.flatnonzero(counted)
    slot_codes = codes[slots]
    order = np.argsort(slot_codes, kind="stable")
    sorted_slots = slots[order]
    sorted_codes = slot_codes[order]

    next_occ = np.full(n, -1, dtype=np.int64)
    prev_occ = np.full(n, -1, dtype=np.int64)
    same = sorted_codes[1:] == sorted_codes[:-1]
    left_link = sorted_slots[:-1][same]
    right_link = sorted_slots[1:][same]
    next_occ[left_link] = right_link
    prev_occ[right_link] = left_link

    threaded = np.zeros(n, dtype=np.uint8)
    threaded[slots] = 1

    array = SequenceArray(symbols.tolist(), prev_occ.tolist(),
                          next_occ.tolist(), bytearray(threaded.tobytes()))

    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    ends = np.append(starts[1:], len(sorted_slots))
    heads = sorted_slots[starts].tolist()
    tails = sorted_slots[ends - 1].tolist()
    group_counts = (ends - starts).tolist()
    group_codes = sorted_codes[starts].tolist()

    records = table.records
    seen_once = table.seen_once
    for code, cnt, head, tail in zip(group_codes, group_counts, heads, tails):
        if cnt == 1:
            seen_once[code] = head
        else:
            records[code] = PairRecord(code >> 32, code & _CODE_MASK,
                                       cnt, head, tail)
            table._pending.add(code)
    table._flush_pending()
    return array, table


def _repair_run_head(array: SequenceArray, table: PairTable, symbol: int,
                     start: int, anchor: int) -> None:
    """Recount a run's self-pair credits after its head symbol was removed.

    Erosion at the head shifts the greedy parity of every credit in the
    remainder, so they are unthreaded and re-filed from the new head.  The
    last run slot is skipped: its flag, if set, belongs to the pair formed
    with the symbol after the run.  Cost is linear in the run length.
    """
    syms = array.symbols
    live_next = array.live_next
    threaded = array.threaded
    run = []
    s = start
    while s >= 0 and syms[s] == symbol:
        run.append(s)
        s = live_next[s]
    last = len(run) - 1
    for idx in range(last):
        s = run[idx]
        if threaded[s]:
            table._uncredit(array, symbol, symbol, s)
    for idx in range(0, last, 2):
        s = run[idx]
        table._credit(array, symbol, symbol, s, anchor)
        anchor = s


def replace_step(array: SequenceArray, table: PairTable, rules: list[Rule],
                 min_frequency: int = 2) -> bool:
    """Replace every occurrence of the most frequent pair with a fresh
    nonterminal, appending its rule to rules.

    Returns False (state untouched) when no pair reaches min_frequency.
    Consecutive occurrences are processed as one chain so that the pairs a
    replacement creates are counted exactly once: inner left/right contexts
    of a chain cancel, and the run of fresh nonterminals a chain leaves
    behind gets its self-pair credits by position parity.
    """
    record = table._extract_max(min_frequency)
    if record is None:
        return False
    left_sym = record.left
    right_sym = record.right
    fresh = NONTERMINAL_BASE + len(rules)
    if fresh >= _SYMBOL_SPACE:
        raise OverflowError("rule ordinals exhausted the 32-bit symbol space")
    rules.append(Rule(left_sym, right_sym))
    self_pair = left_sym == right_sym

    syms = array.symbols
    prev_occ = array.prev_occurrence
    next_occ = array.next_occurrence
    live_prev = array.live_prev
    live_next = array.live_next
    threaded = array.threaded
    removed = 0

    slot = record.thread_head
    while slot >= 0:
        i = slot
        upcoming = next_occ[i]
        threaded[i] = 0
        prev_occ[i] = -1
        next_occ[i] = -1

        p = live_prev[i]
        if p >= 0 and threaded[p]:
            # the (left-context, left_sym) occurrence dies with this slot
            table._uncredit(array, syms[p], left_sym, p)

        link = 0
        while True:
            j = live_next[i]
            q = live_next[j]
            anchor = -1
            if threaded[j]:
                # the (right_sym, right-context) occurrence dies with j
                anchor = table._uncredit(array, right_sym, syms[q], j)
            syms[i] = fresh
            syms[j] = TOMBSTONE
            live_next[i] = q
            if q >= 0:
                live_prev[q] = i
            removed += 1

            if q >= 0 and q == upcoming:
                # adjacent occurrence: extend the chain
                upcoming = next_occ[q]
                threaded[q] = 0
                prev_occ[q] = -1
                next_occ[q] = -1
                link += 1
                if link & 1:
                    # self-pair credit for the fresh-symbol run, at slot i
                    table._credit(array, fresh, fresh, i)
                i = q
                continue

            if q >= 0:
                y = syms[q]
                if y == right_sym and not self_pair:
                    # the removal eroded the head of a right_sym run
                    _repair_run_head(array, table, right_sym, q, anchor)
                table._credit(array, fresh, y, i)
            if p >= 0:
                table._credit(array, syms[p], fresh, p)
            break

        slot = upcoming

    array.live_count -= removed
    table._flush_pending()
    return True


def compress(seq, config: CompressorConfig | None = None
             ) -> tuple[Grammar, np.ndarray]:
    """Compress a terminal sequence; returns (grammar, final sequence),
    the final sequence as an int64 array.

    seq is bytes or a one-dimensional sequence of integers in 0-255;
    anything else raises ValueError.  Bytes reach the engine without a
    copy.  The work runs in the C engine (_kernel.c), built with the
    system C compiler on first use.  When it cannot be built or loaded,
    reference_compress runs instead, with one warning per process; both
    produce identical output.
    """
    if config is None:
        config = CompressorConfig()
    if isinstance(seq, (bytes, bytearray)):
        symbols = np.frombuffer(seq, dtype=np.uint8)
    else:
        # a memoryview keeps its item type and shape here, so one over
        # int64 items is not read as its raw bytes
        values = np.asarray(seq)
        if values.ndim != 1 or (values.size
                                and values.dtype.kind not in "biu"):
            raise ValueError("compress input must be a one-dimensional "
                             "sequence of integers")
        if values.size and (int(values.min()) < 0
                            or int(values.max()) >= NONTERMINAL_BASE):
            raise ValueError("compress input must be terminal symbols 0-255")
        symbols = values.astype(np.uint8, copy=False)
    if not _kernel.available():
        return reference_compress(symbols, config)
    rule_left, rule_right, final = _kernel.compress_array(
        symbols, config.min_frequency, config.max_rules)
    # the int32 views share the kernel's n-sized buffers; the int64
    # copies let those go
    return (Grammar.from_arrays(rule_left, rule_right),
            final.astype(np.int64))


def reference_compress(seq, config: CompressorConfig | None = None
                       ) -> tuple[Grammar, np.ndarray]:
    """The pure-Python engine: build_sequence_array, then replace_step until
    no pair reaches min_frequency or max_rules rules exist.

    It is the oracle the C engine is tested against and compress's
    fallback.  seq must hold terminal symbols; compress checks that.
    """
    if config is None:
        config = CompressorConfig()
    array, table = build_sequence_array(seq)
    rules: list[Rule] = []
    max_rules = config.max_rules
    while max_rules is None or len(rules) < max_rules:
        if not replace_step(array, table, rules, config.min_frequency):
            break
    return Grammar(rules), np.array(array.working_sequence(), dtype=np.int64)


def _checked_symbols(grammar: Grammar, seq) -> np.ndarray:
    """seq as an int64 array, once the grammar and seq are known to
    reference only defined symbols; raises MalformedGrammarError."""
    bounds = NONTERMINAL_BASE + np.arange(len(grammar))
    bad = np.flatnonzero((grammar.left < 0) | (grammar.left >= bounds)
                         | (grammar.right < 0) | (grammar.right >= bounds))
    if bad.size:
        ordinal = int(bad[0])
        raise MalformedGrammarError(
            f"rule {ordinal} references symbol outside [0, {bounds[ordinal]})")
    symbols = np.ascontiguousarray(seq, dtype=np.int64)
    undefined = np.flatnonzero((symbols < 0)
                               | (symbols >= NONTERMINAL_BASE + len(grammar)))
    if undefined.size:
        raise MalformedGrammarError(
            f"sequence symbol {symbols[undefined[0]]} is undefined")
    return symbols


def expanded_length(grammar: Grammar, symbols: np.ndarray,
                    limit: int) -> int | None:
    """The exact expanded length of symbols, an int64 array the grammar
    defines, or None when it exceeds limit, which may be any size.

    This is the Python loop; the C engine sums the same lengths as it
    decodes a container body, for limits below 2**64.
    """
    # lengths saturate just past limit, so doubling chains stay small
    # integers; any saturated use makes the total exceed limit
    ceiling = limit + 1
    sizes = [1] * NONTERMINAL_BASE
    for left, right in zip(grammar.left.tolist(), grammar.right.tolist()):
        size = sizes[left] + sizes[right]
        sizes.append(size if size < ceiling else ceiling)
    uses = np.bincount(symbols.astype(np.intp), minlength=len(sizes)).tolist()
    total = sum(map(operator.mul, uses, sizes))
    return total if total <= limit else None


def expand(grammar: Grammar, seq: Sequence[int]) -> bytes:
    """Substitute every nonterminal down to terminals; returns the bytes.

    The C engine expands each rule reachable from seq once and copies
    that first expansion for every later use, into one buffer of the
    exact length.  Rules seq does not reach are never expanded.  When
    the engine cannot be built or loaded, reference_expand runs instead;
    both give the same bytes.
    """
    if not _kernel.available():
        return reference_expand(grammar, seq)
    symbols = np.ascontiguousarray(seq, dtype=np.int64)
    try:
        length = _kernel.expanded_length(grammar.left, grammar.right,
                                         symbols, sys.maxsize)
    except ValueError:
        # the C pass checks every rule side and symbol; name the fault
        _checked_symbols(grammar, symbols)
        raise
    if length is None:
        raise MemoryError(f"expansion exceeds {sys.maxsize} bytes")
    return _kernel.expand(grammar.left, grammar.right, symbols, length)


def reference_expand(grammar: Grammar, seq: Sequence[int]) -> bytes:
    """The pure-Python expansion: the oracle the C engine is tested
    against and expand's fallback.

    Only rules reachable from seq are materialized, so memory stays
    proportional to the output even when the grammar carries unused rules.
    """
    symbols = _checked_symbols(grammar, seq)
    # a rule references only earlier rules, so one backward pass marks
    # everything reachable from seq; live and table are indexed by symbol
    rules = grammar.rules
    live = np.zeros(NONTERMINAL_BASE + len(rules), dtype=bool)
    live[symbols] = True
    live = live.tolist()
    for symbol in range(len(live) - 1, NONTERMINAL_BASE - 1, -1):
        if live[symbol]:
            left, right = rules[symbol - NONTERMINAL_BASE]
            live[left] = live[right] = True
    table: list[bytes | None] = [bytes((t,)) for t in range(NONTERMINAL_BASE)]
    table += [None] * len(rules)
    for symbol, (left, right) in enumerate(rules, NONTERMINAL_BASE):
        if live[symbol]:
            table[symbol] = table[left] + table[right]
    gather = np.empty(len(table), dtype=object)
    gather[:] = table
    return b"".join(gather[symbols].tolist())
