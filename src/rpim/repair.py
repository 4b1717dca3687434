"""Re-Pair grammar compression over integer symbol sequences.

The compressor repeatedly replaces the most frequent adjacent symbol pair
with a fresh nonterminal and records the replacement as a grammar rule,
until no pair repeats.  Terminals are byte values 0-255; the k-th rule
introduces nonterminal 256 + k, and every rule body references only
terminals and earlier nonterminals, so the grammar is a straight-line
program deriving exactly one string.

Pair occurrences are counted greedily left to right without overlap, so a
run of the same symbol of length L contributes floor(L/2) occurrences of
its self-pair; of pairs with equal counts the smallest (left, right) is
replaced first.  compress and expand run in the C engine (_kernel.c),
which keeps the counts up to date as it replaces.  reference_compress and
reference_expand are their oracles: short, slow and written from the
definition alone.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernel
from .errors import MalformedGrammarError

NONTERMINAL_BASE = 256


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


def compress(seq, config: CompressorConfig | None = None
             ) -> tuple[Grammar, np.ndarray]:
    """Compress a terminal sequence; returns (grammar, final sequence),
    the final sequence as an int64 array.

    seq is bytes or a one-dimensional sequence of integers in 0-255;
    anything else raises ValueError.  Bytes reach the engine without a
    copy.  The work runs in the C engine (_kernel.c), built with the
    system C compiler on first use; EngineUnavailableError names the
    failure when it cannot be built or loaded.
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
    rule_left, rule_right, final = _kernel.compress_array(
        symbols, config.min_frequency, config.max_rules)
    # the int32 views share the kernel's n-sized buffers; the int64
    # copies let those go
    return (Grammar.from_arrays(rule_left, rule_right),
            final.astype(np.int64))


def reference_compress(seq, config: CompressorConfig | None = None
                       ) -> tuple[Grammar, np.ndarray]:
    """Re-Pair from its definition, the oracle compress is tested against.

    Each step counts the pairs afresh, takes the most frequent (the
    smallest pair among equals) and replaces its occurrences left to
    right, until no pair reaches min_frequency or max_rules rules exist.
    It costs O(len(seq)) per rule.  seq must hold terminal symbols.
    """
    if config is None:
        config = CompressorConfig()
    symbols = [int(s) for s in seq]
    rules: list[Rule] = []
    while config.max_rules is None or len(rules) < config.max_rules:
        counts = count_pairs(symbols)
        pair = min(counts, key=lambda p: (-counts[p], p), default=None)
        if pair is None or counts[pair] < config.min_frequency:
            break
        left, right = pair
        fresh = NONTERMINAL_BASE + len(rules)
        rules.append(Rule(left, right))
        out = []
        i = 0
        while i < len(symbols):
            if (symbols[i] == left and i + 1 < len(symbols)
                    and symbols[i + 1] == right):
                out.append(fresh)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return Grammar(rules), np.array(symbols, dtype=np.int64)


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

    The C engine sums the same lengths as it decodes a container body,
    for limits below 2**64; deserialize runs this loop for an image
    header that declares 2**64 samples or more.
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
    exact length.  Rules seq does not reach are never expanded.
    """
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
    """Expansion in Python, the oracle expand is tested against.

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
