"""Rounds of round-trip operations, timed untraced or traced per layer.

A round runs every input of a workload once.  One operation is one
input's compress path and decompress path, each timed as a whole from
outside rpim, followed by the output checks, which are not timed.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from types import SimpleNamespace

import numpy as np

import checks
import rpim
from rpim import _kernel

# public call -> layer span name
LAYERS = {
    "decode_bmp": "image.decode",
    "linearize": "image.linearize",
    "compress": "repair.compress",
    "serialize": "container.serialize",
    "deserialize": "container.deserialize",
    "expand": "repair.expand",
    "expand_bytes": "repair.expand_bytes",
    "delinearize": "image.delinearize",
    "encode_bmp": "image.encode",
}
KERNEL_SPAN = "kernel.compress"

PLAIN = SimpleNamespace(
    decode_bmp=rpim.decode_bmp, linearize=rpim.linearize,
    compress=rpim.compress, serialize=rpim.serialize,
    deserialize=rpim.deserialize, expand=rpim.expand, expand_bytes=bytes,
    delinearize=rpim.delinearize, encode_bmp=rpim.encode_bmp)


class Tracer:
    """Spans kept in memory: [operation, name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([self.op, name, 0.0, 0.0, parent])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][2:4] = (start, end)
        return traced

    def self_times(self, first: int) -> dict[str, float]:
        """Self time per span name over spans[first:]: each span's duration
        minus the durations of its child spans."""
        totals = dict.fromkeys([*LAYERS.values(), KERNEL_SPAN], 0.0)
        for _, name, start, end, parent in self.spans[first:]:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][1]] -= end - start
        return totals

    def count(self, first: int, name: str) -> int:
        return sum(1 for span in self.spans[first:] if span[1] == name)

    @staticmethod
    def cost_per_span(calls: int = 50_000) -> float:
        """Seconds a traced call adds to a plain one, from a no-op timed both
        ways."""
        def noop():
            return None
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter()
        for _ in range(calls):
            traced()
        return (time.perf_counter() - 2 * plain + start) / calls


def operate(item, api):
    """One round trip, as the CLI runs it.

    Returns (artifact, blob, restored, compress seconds, decompress seconds).
    """
    start = time.perf_counter()
    if item.mode is None:
        payload = rpim.RawPayload(len(item.data))
        stream = item.data
    else:
        buf = api.decode_bmp(item.data)
        mode = rpim.MODE_BY_LABEL[item.mode]
        payload = rpim.ImagePayload(buf.width, buf.height, buf.channels, mode)
        stream = api.linearize(buf, mode)
    grammar, final = api.compress(stream)
    artifact = rpim.CompressedArtifact(payload, grammar, final)
    blob = api.serialize(artifact)
    compressed = time.perf_counter()
    back = api.deserialize(blob)
    data = api.expand_bytes(api.expand(back.grammar, back.sequence))
    payload = back.payload
    if isinstance(payload, rpim.RawPayload):
        restored = data
    else:
        restored = api.encode_bmp(api.delinearize(
            data, payload.mode, payload.width, payload.height,
            payload.channels))
    done = time.perf_counter()
    return artifact, blob, restored, compressed - start, done - compressed


def check(item, artifact, restored) -> str | None:
    """The first output check that fails, or None."""
    rules = np.fromiter(itertools.chain.from_iterable(artifact.grammar.rules),
                        np.int64, 2 * len(artifact.grammar.rules))
    rules = rules.reshape(-1, 2)
    final = np.fromiter(artifact.sequence, np.int64, len(artifact.sequence))
    for reason in (checks.round_trip(restored, item.data),
                   checks.rules_reference_earlier(rules),
                   checks.no_repeated_pair(final),
                   checks.length_bound(final.size, item.terminals,
                                       len(rules))):
        if reason is not None:
            return reason
    return None


def byte_split(artifact, blob) -> tuple[int, int, int]:
    """Header, rules and sequence bytes, from the lengths of serialize on the
    payload alone, on the payload plus rules, and on the whole artifact."""
    header = len(rpim.serialize(rpim.CompressedArtifact(
        artifact.payload, rpim.Grammar([]), [])))
    with_rules = len(rpim.serialize(rpim.CompressedArtifact(
        artifact.payload, artifact.grammar, [])))
    return header, with_rules - header, len(blob) - with_rules


class Bench:
    """The operations of one workload, run in whole rounds."""

    def __init__(self, items) -> None:
        self.items = items
        self.tracer = Tracer()
        self.traced = SimpleNamespace(**{
            call: self.tracer.wrap(name, getattr(PLAIN, call))
            for call, name in LAYERS.items()})
        self.failures: list[str] = []
        self._splits: dict[int, tuple[int, int, int]] = {}

    def round(self, traced: bool) -> dict:
        api = self.traced if traced else PLAIN
        original = _kernel.compress_array
        if traced:
            # rpim.repair calls _kernel.compress_array through the module
            _kernel.compress_array = self.tracer.wrap(KERNEL_SPAN, original)
        first_span = len(self.tracer.spans)
        stats = dict(compress_s=0.0, decompress_s=0.0, in_bytes=0,
                     out_bytes=0, failed=0, rules=0, final_symbols=0,
                     split=[0, 0, 0], traced=traced, ops=[])
        gc.collect()
        try:
            for index, item in enumerate(self.items):
                self.tracer.op = index
                try:
                    artifact, blob, restored, t_c, t_d = operate(item, api)
                    reason = check(item, artifact, restored)
                except Exception as exc:  # an operation that raises fails
                    reason = f"{type(exc).__name__}: {exc}"
                if reason is not None:
                    stats["failed"] += 1
                    self.failures.append(f"{item.name}: {reason}")
                    continue
                stats["ops"].append((index, t_c, t_d))
                stats["compress_s"] += t_c
                stats["decompress_s"] += t_d
                stats["in_bytes"] += len(item.data)
                stats["out_bytes"] += len(blob)
                stats["rules"] += len(artifact.grammar.rules)
                stats["final_symbols"] += len(artifact.sequence)
                if traced:
                    if index not in self._splits:
                        self._splits[index] = byte_split(artifact, blob)
                    for k, size in enumerate(self._splits[index]):
                        stats["split"][k] += size
        finally:
            _kernel.compress_array = original
        if traced:
            stats["layers"] = self.tracer.self_times(first_span)
            stats["spans"] = len(self.tracer.spans) - first_span
            stats["kernel_calls"] = self.tracer.count(first_span, KERNEL_SPAN)
            stats["compress_calls"] = self.tracer.count(first_span,
                                                        LAYERS["compress"])
        return stats

    def run(self, seconds: float, trace: bool) -> list[dict]:
        """Whole rounds for about `seconds`: another round starts only if a
        round of the mean length so far would end in time.  With trace,
        untraced and traced rounds alternate and there is one of each at
        least."""
        operate(self.items[0], PLAIN)  # untimed: lazy set-up is not measured
        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            rounds.append(self.round(traced=trace and len(rounds) % 2 == 1))
            elapsed = time.perf_counter() - start
            if (len(rounds) >= (2 if trace else 1)
                    and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                return rounds


def end_to_end(rounds, setup) -> dict:
    med = statistics.median
    return {
        "compress_mb_s": (med(r["in_bytes"] / r["compress_s"]
                              for r in rounds) / 1e6, "MB/s"),
        "decompress_mb_s": (med(r["in_bytes"] / r["decompress_s"]
                                for r in rounds) / 1e6, "MB/s"),
        "ratio": (sum(r["out_bytes"] for r in rounds)
                  / sum(r["in_bytes"] for r in rounds), "out/in"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup["setup_s"], "s"),
    }


def per_layer(rounds, setup) -> dict:
    """Per-round figures: medians over traced rounds for times; counts and
    bytes are the same in every round."""
    med = statistics.median
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layer = {name: med(r["layers"][name] for r in traced)
             for name in traced[0]["layers"]}
    first = traced[0]
    header, rules, sequence = first["split"]
    return {
        "kernel.compress_s": (layer[KERNEL_SPAN], "s"),
        "kernel.calls": (first["kernel_calls"], "count"),
        "kernel.load_s": (setup["kernel.load_s"], "s"),
        "kernel.build_s": (setup["kernel.build_s"], "s"),
        "repair.compress_self_s": (layer["repair.compress"], "s"),
        "repair.expand_s": (layer["repair.expand"], "s"),
        "repair.expand_bytes_s": (layer["repair.expand_bytes"], "s"),
        "repair.rules": (first["rules"], "count"),
        "repair.final_symbols": (first["final_symbols"], "count"),
        "container.serialize_s": (layer["container.serialize"], "s"),
        "container.deserialize_s": (layer["container.deserialize"], "s"),
        "container.header_bytes": (header, "B"),
        "container.rules_bytes": (rules, "B"),
        "container.sequence_bytes": (sequence, "B"),
        "image.decode_s": (layer["image.decode"], "s"),
        "image.linearize_s": (layer["image.linearize"], "s"),
        "image.delinearize_s": (layer["image.delinearize"], "s"),
        "image.encode_s": (layer["image.encode"], "s"),
        "trace.overhead_s": (
            med(r["compress_s"] + r["decompress_s"] for r in traced)
            - med(r["compress_s"] + r["decompress_s"] for r in plain), "s"),
        "trace.wrapper_s": (first["spans"] * Tracer.cost_per_span(), "s"),
    }
