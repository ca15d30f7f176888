"""Benchmark of the wvdnet chain: train-300, preprocess-44k and stream-4k.

Run from the repository root:

    python3 perfbench/run.py --workload stream-4k --seed 1 --seconds 30 --trace 0

One run builds the workload's inputs from the seed (three times, to time the
set-up), warms up with one operation, then times operations for --seconds
seconds and checks every output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first half of
the time untraced and the second half with every layer traced, and reports
per-layer metrics, the tracing overhead between the two halves, and writes
the spans to .perfbench/spans/. --smoke shrinks every size so that a run takes
seconds. --write-reference records the reference group's outputs in
reference.json instead of checking them.

Exit status: 0 when every output check passed, 1 when one failed (the result
line still prints), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 3


def load_package():
    """Import wvdnet from this checkout's src/ and nowhere else."""
    if not (SRC / "wvdnet" / "__init__.py").is_file():
        print(f"perfbench: no wvdnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import wvdnet

    if Path(wvdnet.__file__).resolve().parent != SRC / "wvdnet":
        print(f"perfbench: imported wvdnet from {wvdnet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    """What the numbers depend on: cores, interpreter, numpy and BLAS."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "machine": platform.machine(),
    }
    try:  # scipy-openblas, as bundled with numpy wheels
        import ctypes
        import glob

        libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                env["blas_threads"] = getattr(lib, symbol)()
                break
    except (IndexError, OSError):
        pass
    return env


def end_to_end_metrics(workload, op_seconds, setup_s, attempted, failed):
    return {
        "items_per_s": (statistics.median(workload.items / t for t in op_seconds), "items/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


PER_LAYER_UNITS = {
    "calls": "calls/item", "bytes": "bytes/item", "rows": "count", "kernel_mb": "MB",
    "gflop": "GFLOP", "im2col_mb": "MB", "weight_mb": "MB", "skipped": "count",
    "new_audio_ratio": "ratio", "overhead_pct": "%",
}

# Computed from shapes and settings, not measured.
COMPUTED = ("tfd.pseudo_wvd.rows", "tfd.pseudo_wvd.kernel_mb", ".gflop", ".im2col_mb",
            "neuralnet.fc1.weight_mb", "evaluation.new_audio_ratio")


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "ms")


class Run:
    """Operation counter and failure tally shared by warm-up and timing."""

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.attempted = 0
        self.failed = 0

    def step(self):
        """Run one operation; return its time, or None when it failed."""
        wl, i = self.workload, self.index
        self.index += 1
        self.attempted += wl.items
        start = time.perf_counter()
        try:
            output = wl.run(i)
            elapsed = time.perf_counter() - start
            wl.check(i, output)
            return elapsed
        except Exception:  # every failure is counted and reported, then the run goes on
            self.failed += wl.items
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def measure(self, seconds):
        """Time operations until `seconds` have passed; at least one."""
        times = []
        deadline = time.perf_counter() + seconds
        while True:
            elapsed = self.step()
            if elapsed is not None:
                times.append(elapsed)
            if time.perf_counter() >= deadline:
                return times


def set_up(workload, work: Path):
    """Build the inputs SETUP_REPEATS times, keep the last, then warm up."""
    builds = []
    for k in range(SETUP_REPEATS):
        target = work / f"setup-{k}"
        start = time.perf_counter()
        workload.build(target)
        builds.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(work / f"setup-{k - 1}")
    return statistics.median(builds), builds


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402 - needs load_package() first

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; runs in seconds")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference group's outputs instead of checking them")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    mode = "smoke" if args.smoke else "full"
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    reference = None if args.write_reference else references.get(mode, {}).get(args.workload, {})
    workload = WORKLOADS[args.workload](args.seed, args.smoke, reference)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        build_s, builds = set_up(workload, work)
        run = Run(workload)
        warm = time.perf_counter()
        run.step()
        warm_up_s = time.perf_counter() - warm
        setup_s = build_s + warm_up_s
        print(f"set-up: builds {', '.join(f'{b:.3f}' for b in builds)} s, "
              f"warm-up {warm_up_s:.3f} s")

        if args.trace:
            metrics, spans_file = traced_run(run, workload, args, env)
            print(f"spans: {spans_file}")
        else:
            times = run.measure(args.seconds)
            if not times:
                times = [float("inf")]
            metrics = end_to_end_metrics(workload, times, setup_s, run.attempted, run.failed)
            quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
            print(f"timed: {len(times)} operations of {workload.items} {workload.item}, "
                  f"quartiles {' / '.join(f'{q * 1e3:.1f}' for q in quartiles)} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"output digest: {workload.output_digest()}")
    if args.write_reference:
        references.setdefault(mode, {})[args.workload] = workload.recorded
        text = json.dumps(references, indent=1, sort_keys=True)
        # One line per list of numbers keeps the file short and diffable.
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
        REFERENCE_FILE.write_text(text + "\n")
        print(f"wrote {mode}/{args.workload} to {REFERENCE_FILE}")

    for name, (value, unit) in metrics.items():
        tag = " (computed)" if any(c in name for c in COMPUTED) else ""
        print(f"  {name:40s} {value:14.4f} {unit}{tag}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(run, workload, args, env):
    """Untraced first half, traced second half; per-layer metrics from the
    traced half, overhead from comparing the two."""
    import tracing

    untraced = run.measure(args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    if hasattr(workload, "net"):  # built during set-up, before tracing started
        tracer.instrument(workload.net)
    skipped_before, items_before = workload.skipped, run.attempted
    try:
        traced = run.measure(args.seconds / 2)
    finally:
        tracer.restore()

    from wvdnet.neuralnet import reference_config

    layer_metrics = tracing.layer_metrics(tracer.spans, tracing.layer_labels(reference_config()),
                                          run.attempted - items_before)
    layer_metrics["datasets.skipped"] = float(workload.skipped - skipped_before)
    streams = layer_metrics["evaluation.window_ms_p50"] > 0
    layer_metrics["evaluation.new_audio_ratio"] = (
        workload.cfg.stride_seconds / workload.cfg.window_seconds if streams else 0.0)
    layer_metrics["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(untraced) - 1) * 100
        if traced and untraced else 0.0)

    spans_file = ROOT / ".perfbench" / "spans" / (
        f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl")
    tracing.write_spans(spans_file, tracer.spans, {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "environment": env, "untraced_op_s": untraced, "traced_op_s": traced,
    })
    return {name: (value, unit_of(name)) for name, value in layer_metrics.items()}, spans_file


if __name__ == "__main__":
    load_package()
    sys.exit(main())
