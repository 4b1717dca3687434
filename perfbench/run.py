"""The rpim benchmark: one workload per process, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed, then repeats whole
rounds (every input once) for about S seconds: another round starts only
if it would end in time.  One operation is one input's round trip plus its
checks:

    compress    decode_bmp -> linearize -> compress -> serialize
    decompress  deserialize -> expand -> bytes -> delinearize -> encode_bmp

Raw streams skip the image steps, as `rpim compress --raw` and
`rpim decompress` do.  Only the two paths are timed; the checks in
checks.py run between them and the next operation.

With --trace 0 the last line of standard output is the result with the
end-to-end metrics.  With --trace 1 the run alternates untraced and traced
rounds and reports the per-layer metrics, taken from timing wrappers
around each public rpim call (and around rpim._kernel.compress_array as
rpim.repair calls it), plus the traced-minus-untraced round time as the
tracing overhead.  Spans are written to perfbench/results/.

The C engine is built into perfbench/.cache (XDG_CACHE_HOME), which is
warmed before set-up is timed.  A run refuses to report if rpim would
compress with the pure-Python fallback, since every figure is defined on
the C engine.  Exit codes: 0 result printed, 2 rpim missing or set-up
failed, 3 the C engine is unavailable, 4 every operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

# fresh interpreters timed for setup_s (median reported)
SETUP_PROBES = 9
# cold builds into an empty cache timed for kernel.build_s in traced runs
COLD_BUILDS = 3
PROBE_TIMEOUT_S = 600


class SetupError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _probe(cache: Path) -> dict:
    """Run setup_probe.py in a fresh interpreter against the given cache."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           str(SRC)], env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"importing rpim failed:\n{proc.stderr.strip()}", 2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(trace: bool) -> dict:
    """Warm the build cache, then time import plus engine load; cold builds
    into empty caches as well when tracing."""
    if _probe(CACHE)["engine"] != "c":
        raise SetupError("the C engine could not be built or loaded", 3)
    probes = [_probe(CACHE) for _ in range(SETUP_PROBES)]
    setup = {"setup_s": statistics.median(p["import_s"] + p["load_s"]
                                          for p in probes),
             "kernel.load_s": statistics.median(p["load_s"] for p in probes)}
    if trace:
        builds = []
        for _ in range(COLD_BUILDS):
            cold = Path(tempfile.mkdtemp(prefix="cold-", dir=CACHE))
            try:
                builds.append(_probe(cold))
            finally:
                shutil.rmtree(cold)
        setup["kernel.build_s"] = statistics.median(p["load_s"]
                                                    for p in builds)
        probes += builds
    if any(p["engine"] != "c" for p in probes):
        raise SetupError("the C engine did not load in every probe", 3)
    return setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rpim" / "__init__.py").is_file():
        print(f"run.py: no rpim package under {SRC}", file=sys.stderr)
        return 2
    # set before numpy is imported: the engine build and its temporary
    # files stay inside the checkout, numeric libraries stay single-threaded
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(XDG_CACHE_HOME=str(CACHE), TMPDIR=str(CACHE / "tmp"),
                      OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    checks.self_test()
    try:
        setup = measure_setup(bool(args.trace))
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return exc.code
    items = workloads.WORKLOADS[args.workload](args.seed)

    import rounds
    from rpim import _kernel
    if not _kernel.available():
        print("run.py: rpim would compress with the pure-Python fallback; "
              "every figure is defined on the C engine", file=sys.stderr)
        return 3
    bench = rounds.Bench(items)
    start = time.perf_counter()
    runs = bench.run(args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "engine": "c",
            "rounds": len(runs), "items_per_round": len(items),
            "input_bytes_per_round": sum(len(i.data) for i in items),
            "measured_s": time.perf_counter() - start,
            "round_s": [[r["compress_s"], r["decompress_s"], r["traced"]]
                        for r in runs],
            "failures": bench.failures[:10]}
    attempted = len(runs) * len(items)
    failed = sum(r["failed"] for r in runs)
    if failed == attempted:
        print(f"run.py: every operation failed: {bench.failures[:3]}",
              file=sys.stderr)
        return 4
    if args.trace:
        if any(r["kernel_calls"] != r["compress_calls"]
               for r in runs if r["traced"]):
            print("run.py: compress did not call the C kernel once per "
                  "operation; the Python fallback ran", file=sys.stderr)
            return 3
        metrics = rounds.per_layer(runs, setup)
    else:
        metrics = rounds.end_to_end(runs, setup)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(bench.tracer.spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"info": info, "result": result,
         "ops": [r["ops"] for r in runs]}))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
