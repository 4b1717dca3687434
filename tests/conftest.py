"""Shared oracles and fixtures.

The pair-counting oracles here are written independently of the
compressor's incremental bookkeeping, so tests can cross-check the fast
implementation against slow but obviously-correct derivations:

* greedy_pair_counts scans the sequence once per distinct pair, taking
  matches left to right and skipping overlaps (naive and quadratic).
* run_pair_counts derives the same numbers arithmetically: unequal
  neighbors count every adjacency, a run of k equal symbols contributes
  floor(k/2).

full_state_check verifies a live SequenceArray/PairTable pair against
the oracle and walks every occurrence thread link by link.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from rpim import _kernel
from rpim.bench import DEFAULT_SEED, generate_corpus
from rpim.container import (
    CompressedArtifact,
    ImagePayload,
    RawPayload,
    serialize,
)
from rpim.image import LinearizationMode, decode_bmp, linearize
from rpim.repair import Grammar, Rule, compress

# rule k + 1 doubles rule k, so rule 39 stands for 2**40 bytes
DOUBLING_CHAIN = Grammar([Rule(97, 97)]
                         + [Rule(256 + k, 256 + k) for k in range(39)])
# a decompression bomb: 174 bytes declaring 2**40 raw bytes; it is well
# formed, so only an output limit rejects it
BOMB = serialize(CompressedArtifact(RawPayload(1 << 40), DOUBLING_CHAIN, [295]))

needs_c_engine = pytest.mark.skipif(not _kernel.available(),
                                    reason="C engine unavailable")


def greedy_pair_counts(seq):
    """Naive quadratic greedy non-overlapping pair counter."""
    pairs = {(seq[i], seq[i + 1]) for i in range(len(seq) - 1)}
    counts = {}
    for pair in pairs:
        i = 0
        hits = 0
        while i < len(seq) - 1:
            if (seq[i], seq[i + 1]) == pair:
                hits += 1
                i += 2
            else:
                i += 1
        counts[pair] = hits
    return counts


def run_pair_counts(seq):
    """Run-arithmetic pair counter, independent of greedy scanning."""
    counts = {}
    for k in range(len(seq) - 1):
        if seq[k] != seq[k + 1]:
            pair = (seq[k], seq[k + 1])
            counts[pair] = counts.get(pair, 0) + 1
    i = 0
    while i < len(seq):
        j = i
        while j < len(seq) and seq[j] == seq[i]:
            j += 1
        if j - i >= 2:
            pair = (seq[i], seq[i])
            counts[pair] = counts.get(pair, 0) + (j - i) // 2
        i = j
    return counts


def pair_code(left, right):
    """The key PairTable files (left, right) under."""
    return (left << 32) | right


def code_pair(code):
    """The (left, right) pair a PairTable key stands for."""
    return (code >> 32, code & 0xFFFFFFFF)


def table_counts(table):
    """Pair counts claimed by a PairTable, seen-once pairs included."""
    got = {code_pair(code): rec.count for code, rec in table.records.items()}
    for code in table.seen_once:
        pair = code_pair(code)
        assert pair not in got, f"records/seen_once overlap at {pair}"
        got[pair] = 1
    return got


def check_threads(array, table):
    """Walk every occurrence thread and verify each link and flag."""
    for code, rec in table.records.items():
        pair = code_pair(code)
        slot = rec.thread_head
        seen = 0
        prev = -1
        last = -1
        while slot >= 0:
            assert array.threaded[slot], f"{pair}: slot {slot} not flagged"
            assert array.prev_occurrence[slot] == prev, \
                f"{pair}: prev link broken at {slot}"
            assert slot > last, f"{pair}: thread not left-to-right at {slot}"
            left = array.symbols[slot]
            succ = array.live_next[slot]
            assert succ >= 0, f"{pair}: slot {slot} has no live successor"
            right = array.symbols[succ]
            assert (left, right) == pair, \
                f"{pair}: thread holds occurrence ({left},{right}) at {slot}"
            seen += 1
            last = slot
            prev = slot
            slot = array.next_occurrence[slot]
        assert seen == rec.count, \
            f"{pair}: thread length {seen} != count {rec.count}"
        assert rec.thread_tail == last, f"{pair}: stale tail"


def full_state_check(array, table, label=""):
    """Table counts must match the oracle and threads must be sound."""
    seq = array.working_sequence()
    want = greedy_pair_counts(seq)
    want = {p: c for p, c in want.items() if c > 0}
    got = table_counts(table)
    assert got == want, (
        f"{label}: table/oracle mismatch\n"
        f"  wrong in table: { {k: v for k, v in got.items() if want.get(k) != v} }\n"
        f"  missing/wrong:  { {k: v for k, v in want.items() if got.get(k) != v} }")
    check_threads(array, table)


@dataclass(frozen=True)
class CorpusRun:
    """One compressed (corpus image, mode) pair with its artifacts."""

    name: str
    mode: LinearizationMode
    file_size: int
    stream: bytes
    grammar: object
    final: list
    blob_size: int
    wall_time: float

    @property
    def ratio(self) -> float:
        return self.blob_size / self.file_size


@pytest.fixture(scope="session")
def warm_engine():
    """Build or load the C engine before anything is timed.

    The first compress call compiles _kernel.c (or loads the cached
    library), so no one-time build cost is billed to a timed criterion.
    """
    compress(bytes(range(16)) * 8)
    return True


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate_corpus(path, DEFAULT_SEED)
    return path


@pytest.fixture(scope="session")
def corpus_runs(corpus_dir, warm_engine):
    """Compress every corpus image in every mode, once per session.

    Wall time wraps compression and serialization only, mirroring the
    benchmark harness, so acceptance checks can reuse these runs
    without re-measuring.
    """
    runs = []
    for path in sorted(corpus_dir.glob("*.bmp")):
        data = path.read_bytes()
        buf = decode_bmp(data)
        for mode in LinearizationMode:
            stream = linearize(buf, mode)
            start = time.perf_counter()
            grammar, final = compress(stream)
            payload = ImagePayload(buf.width, buf.height, buf.channels, mode)
            blob = serialize(CompressedArtifact(payload, grammar, final))
            wall = time.perf_counter() - start
            runs.append(CorpusRun(path.stem, mode, len(data), stream,
                                  grammar, final, len(blob), wall))
    return runs
