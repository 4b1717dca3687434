"""Shared oracles and fixtures.

The pair-counting oracles here are written independently of the
compressor's incremental bookkeeping, so tests can cross-check the fast
implementation against slow but obviously-correct derivations:

* greedy_pair_counts scans the sequence once per distinct pair, taking
  matches left to right and skipping overlaps (naive and quadratic).
* run_pair_counts derives the same numbers arithmetically: unequal
  neighbors count every adjacency, a run of k equal symbols contributes
  floor(k/2).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

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


def peak_rss_growth(setup: str, work: str) -> float:
    """How far work raises the peak RSS of a fresh Python process, in
    KiB, measured after setup; both are Python source, run with rpim
    importable.

    The peak is the process's VmHWM.  ru_maxrss would not do: a child
    starts at its parent's peak, carried over fork and exec, so under a
    large pytest process it hides any growth.
    """
    script = "\n".join([
        "def peak():",
        "    with open('/proc/self/status') as status:",
        "        return next(int(line.split()[1]) for line in status",
        "                    if line.startswith('VmHWM:'))",
        textwrap.dedent(setup),
        "before = peak()",
        textwrap.dedent(work),
        "print(peak() - before)"])
    env = {**os.environ, "PYTHONPATH": str(Path(_kernel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return float(result.stdout)


def break_compiler(monkeypatch, tmp_path):
    """Point the engine build at a compiler that does not exist and an
    empty cache, and forget this process's load outcome; monkeypatch
    restores all of it.  Returns the cache directory."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "COMPILER", str(tmp_path / "missing-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_error", None)
    return cache


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
