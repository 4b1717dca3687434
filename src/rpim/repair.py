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
from collections.abc import Iterable, Sequence
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernel
from ._kernel import NONTERMINAL_BASE
from .errors import MalformedGrammarError

_INT64 = np.iinfo(np.int64)
_NOT_A_SEQUENCE = "a sequence must be one-dimensional and of integers"


class Rule(NamedTuple):
    """One replacement: a nonterminal standing for the pair (left, right)."""

    left: int
    right: int


_NOT_PAIRS = "rules must be a sequence of (left, right) pairs of integers"


def _integers(values, message: str) -> np.ndarray:
    """values as an array of their own shape, wrapped without a copy when
    they are one.  Raises ValueError with message unless they are
    integers; empty ones pass."""
    inferred = np.asarray(values)
    if not isinstance(values, np.ndarray) and inferred.dtype.kind in "fO":
        # numpy infers objects for Python ints past 64 bits, and floats
        # for ints past int64 beside negative ones; objects keep them exact
        inferred = np.asarray(values, dtype=object)
    if inferred.dtype == object:
        if not all(isinstance(v, (int, np.integer))
                   for v in inferred.ravel().tolist()):
            raise ValueError(message)
    elif inferred.size and inferred.dtype.kind not in "biu":
        raise ValueError(message)
    return inferred


def _int64(values: np.ndarray, what: str) -> np.ndarray:
    """values, integers of a shape already checked, as a contiguous int64
    array, wrapped without a copy when they are one.  Raises
    MalformedGrammarError naming the first value outside int64, which no
    grammar defines, as what."""
    if values.dtype == object:
        wide = [v for v in values.ravel().tolist()
                if not _INT64.min <= v <= _INT64.max]
    elif values.dtype == np.uint64:
        wide = values[values > _INT64.max]
    else:
        wide = []
    if len(wide):
        raise MalformedGrammarError(f"{what} {wide[0]} is undefined")
    return np.require(values, np.int64, "C")


def _readonly(values: np.ndarray) -> np.ndarray:
    """values when neither they nor the array owning their memory can be
    written through, else a read-only copy: a caller that keeps an array
    it passed cannot change what was built from it."""
    owner = values
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    # an owner over a foreign buffer, such as a bytearray, is not trusted
    if (values.flags.writeable or owner.flags.writeable
            or owner.base is not None):
        values = values.copy()
        values.flags.writeable = False
    return values


class Grammar:
    """Rules as one read-only int64 array of shape (n, 2): rule k defines
    nonterminal NONTERMINAL_BASE + k as the pair in row k.  left and
    right are read-only views of its two columns.

    Length, iteration, indexing and rules give Rule values.  rules must
    be a sequence of (left, right) pairs of integers, or an (n, 2)
    integer array; anything else raises ValueError, and a side outside
    int64 MalformedGrammarError naming it.  An array the caller can
    still write through is copied.

    Read-only stops accidental writes only: a caller who makes the array
    owning the rules writeable again, left.base, can change them.  The C
    engine checks every rule side and symbol it is given all the same.
    """

    __slots__ = ("_rules",)

    def __init__(self, rules: Iterable[tuple[int, int]] = ()) -> None:
        if not isinstance(rules, np.ndarray):
            rules = list(rules)
        pairs = _integers(rules, _NOT_PAIRS)
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(_NOT_PAIRS)
        self._rules = _readonly(_int64(pairs, "rule side"))

    @property
    def left(self) -> np.ndarray:
        return self._rules[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self._rules[:, 1]

    @property
    def rules(self) -> list[Rule]:
        return list(self)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return map(Rule, self.left.tolist(), self.right.tolist())

    def __getitem__(self, ordinal: int) -> Rule:
        return Rule(int(self.left[ordinal]), int(self.right[ordinal]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return np.array_equal(self._rules, other._rules)

    def __repr__(self) -> str:
        return f"Grammar({self.rules!r})"


def _min_frequency(value) -> int:
    """value as the count a pair must reach to be replaced; raises
    ValueError unless it is an integer of 2 or more."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("min_frequency must be an integer") from None
    if value < 2:
        raise ValueError("min_frequency must be at least 2")
    return value


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


def compress(seq, min_frequency: int = 2) -> tuple[Grammar, np.ndarray]:
    """Compress a terminal sequence; returns (grammar, final sequence),
    the final sequence as a read-only int64 array.

    seq is bytes or a one-dimensional sequence of integers in 0-255, and
    min_frequency, an integer of 2 or more, the count a pair must reach
    to be replaced; anything else raises ValueError.  Bytes reach the
    engine without a copy.  The work runs in the C engine (_kernel.c),
    built with the system C compiler on first use; EngineUnavailableError
    names the failure when it cannot be built or loaded.
    """
    min_frequency = _min_frequency(min_frequency)
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
    rules, final = _kernel.compress_array(symbols, min_frequency)
    # the int32 views share the kernel's n-sized buffers; the int64
    # copies let those go, and are handed over read-only
    rules, final = rules.astype(np.int64), final.astype(np.int64)
    rules.flags.writeable = final.flags.writeable = False
    return Grammar(rules), final


def reference_compress(seq, min_frequency: int = 2
                       ) -> tuple[Grammar, np.ndarray]:
    """Re-Pair from its definition, the oracle compress is tested against.

    Each step counts the pairs afresh, takes the most frequent (the
    smallest pair among equals) and replaces its occurrences left to
    right, until no pair reaches min_frequency.  It costs O(len(seq)) per
    rule.  seq must hold terminal symbols; min_frequency is checked as
    compress checks it.
    """
    min_frequency = _min_frequency(min_frequency)
    symbols = [int(s) for s in seq]
    rules: list[Rule] = []
    while True:
        counts = count_pairs(symbols)
        pair = min(counts, key=lambda p: (-counts[p], p), default=None)
        if pair is None or counts[pair] < min_frequency:
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


def _sequence(seq) -> np.ndarray:
    """seq as a one-dimensional int64 array, for expand, reference_expand
    and CompressedArtifact.  Raises ValueError unless seq is a
    one-dimensional sequence of integers, as compress does, and
    MalformedGrammarError naming a symbol outside int64, which no grammar
    defines."""
    values = _integers(seq, _NOT_A_SEQUENCE)
    if values.ndim != 1:
        raise ValueError(_NOT_A_SEQUENCE)
    return _int64(values, "sequence symbol")


def _checked_symbols(grammar: Grammar, symbols: np.ndarray) -> np.ndarray:
    """symbols, an int64 array, once the grammar and it are known to
    reference only defined symbols; raises MalformedGrammarError."""
    bounds = NONTERMINAL_BASE + np.arange(len(grammar))
    bad = np.flatnonzero((grammar.left < 0) | (grammar.left >= bounds)
                         | (grammar.right < 0) | (grammar.right >= bounds))
    if bad.size:
        raise _kernel.fault(_kernel.BAD_RULE, int(bad[0]))
    undefined = np.flatnonzero((symbols < 0)
                               | (symbols >= NONTERMINAL_BASE + len(grammar)))
    if undefined.size:
        index = int(undefined[0])
        raise _kernel.fault(_kernel.UNDEFINED, index, int(symbols[index]))
    return symbols


def expand(grammar: Grammar, seq: Sequence[int]) -> bytes:
    """Substitute every nonterminal down to terminals; returns the bytes.

    One C engine call checks every rule side and symbol, measures the
    output, and only then expands each rule seq reaches once, copying it
    for every later use.  Raises ValueError unless seq is a
    one-dimensional sequence of integers, MalformedGrammarError naming
    the first undefined reference, and MemoryError, before allocating,
    for an expansion past sys.maxsize bytes.
    """
    return _kernel.expand(grammar._rules, _sequence(seq))


def reference_expand(grammar: Grammar, seq: Sequence[int]) -> bytes:
    """Expansion in Python, the oracle expand is tested against.

    Only rules reachable from seq are materialized, so memory stays
    proportional to the output even when the grammar carries unused rules.
    """
    symbols = _checked_symbols(grammar, _sequence(seq))
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
