"""cpflow benchmark: one workload per process, BLAS pinned to one thread.

    python3 bench/run.py --workload {flow,operator,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end figures of BENCHMARK.json, timings in calibrated seconds (see
workloads.calibration_s), and an earlier line gives the timings as measured
by the wall clock; with --trace 1 a warm-up round, an
untraced round and a traced round run, and the metrics are the per-layer
figures of the traced round plus the tracing overhead. See bench/README.md.
"""

import os

# before numpy loads anywhere: one BLAS/OpenMP thread, recorded below
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import numpy, cpflow; print(time.perf_counter() - start)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("flow", "operator", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import cpflow from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cpflow", "__init__.py")):
        sys.exit(f"no program source at {SRC}/cpflow")
    if "numpy" in sys.modules:
        sys.exit("numpy was loaded before the thread settings")
    sys.path.insert(0, SRC)
    import cpflow
    if not os.path.abspath(cpflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"cpflow imported from {cpflow.__file__}, not {SRC}")


def import_seconds():
    """Import time of numpy and cpflow in a fresh interpreter, which a user
    of the program pays once per process."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:       # older numpy has no dict form
        blas = "unknown"
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
    }


def run(args):
    import_program()
    import workloads
    import tracer as tracing

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        print(json.dumps({"env": environment(args.seed)}), flush=True)
        rec = workloads.Record()
        if args.trace:
            return run_traced(args, wl, rec, tracing)
        wl.plan(args.seed)
        # (seconds, scale to calibrated seconds) of each import and build
        imports, builds, inputs = [], [], None
        for _ in range(SETUP_REPEATS):
            child_s, _, scale = workloads.calibrated(import_seconds)
            imports.append((child_s, scale))
            inputs = None       # each build starts from the same heap
            gc.collect()
            inputs, wall, scale = workloads.calibrated(lambda: wl.build(args.seed))
            builds.append((wall, scale))
        setup_wall = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in builds)
        setup_s = (statistics.median(t * c for t, c in imports)
                   + statistics.median(t * c for t, c in builds))
        start = time.perf_counter()
        rounds, longest = 0, 0.0
        while rounds < wl.min_rounds or time.perf_counter() - start + longest <= args.seconds:
            t0 = time.perf_counter()
            wl.run_round(inputs, rec)
            longest = max(longest, time.perf_counter() - t0)
            rounds += 1
        metrics = dict(wl.metrics(rec.times), setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        units = {"task_s": "s", "rate_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        wall = dict(wl.metrics(rec.wall_times), setup_s=setup_wall)
        print(json.dumps({"rounds": rounds, "problems": rec.problems, "wall": wall}), flush=True)
        return result(rec, {k: (v, units[k]) for k, v in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_traced(args, wl, rec, tracing):
    """Traced build; an untraced warm-up round, then one untraced and one
    traced round, compared by the time spent inside operations."""
    from cpflow import verify

    wl.plan(args.seed)
    tr = tracing.Tracer()
    tr.install()
    try:
        inputs = wl.build(args.seed)
    finally:
        tr.uninstall()
    wl.run_round(inputs, rec)
    before = rec.work_s
    wl.run_round(inputs, rec)
    untraced = rec.work_s - before
    tr.install()
    try:
        before = rec.work_s
        wl.run_round(inputs, rec)
        traced = rec.work_s - before
    finally:
        tr.uninstall()
    tr.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    layers = tr.layer_metrics(verify.SUITE_NAMES)
    metrics = {k: (v, unit) for k, (v, unit, _) in layers.items()}
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    print(json.dumps({"untraced_round_s": untraced, "traced_round_s": traced,
                      "spans": len(tr.spans), "problems": rec.problems}), flush=True)
    return result(rec, metrics)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(rec, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (args.seconds > 0):
        sys.exit("--seconds must be positive")
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
