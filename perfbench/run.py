#!/usr/bin/env python3
"""Outside-in benchmark of filmline: forecaster fit, surrogate grid, plant cell.

Run from the repository root:

    python3 perfbench/run.py --workload forecaster_fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

The untraced run (``--trace 0``) prints the end-to-end metrics. The traced
run (``--trace 1``) wraps the program's public callables from outside,
times one operation untraced and one traced, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every validity check passed and no operation failed. See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads: one thread gave the
# steadier timings on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("forecaster_fit", "surrogate_grid", "plant_cell")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_windows_per_s": "1/s",
    "fit_mae_width_mm": "mm",
    "fit_mae_thickness_mm": "mm",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import filmline from this checkout's ``src``; None when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "filmline", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import filmline

    if os.path.dirname(os.path.dirname(os.path.abspath(filmline.__file__))) != SRC:
        return None
    return filmline


def run_metadata(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "filmline"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "filmline", name)) as fh:
                src_lines += sum(1 for _ in fh)
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "none"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_revision": git_rev,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time the operations, check, and return the result record."""
    import numpy

    import layers
    import spans
    import workloads

    out_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    wl = workloads.WORKLOADS[name]()
    clock = workloads.clock
    tracer = spans.Tracer(clock) if trace else None
    attempted = failed = 0
    errors: list[str] = []
    fingerprints: dict = {}

    # set-up, repeated; the traced run traces one repetition. `measures`
    # holds rates a workload samples outside its timed operation.
    setup_times, measures = [], []
    repeats = 1 if trace else wl.setup_repeats
    for _ in range(repeats):
        if tracer:
            layers.instrument(tracer)
        started = clock()
        try:
            measures.append(wl.setup(seed, out_dir))
        finally:
            setup_times.append(clock() - started)
            if tracer:
                tracer.uninstall()
    attempted += getattr(wl, "setup_attempted", 0)

    # timed operations on the same inputs, repeated until `seconds` have
    # passed; the traced run times one untraced and one traced operation
    ops = []
    started = clock()
    while True:
        res = workloads.OpResult()
        t0 = clock()
        wl.operation(res)
        dt = clock() - t0
        wl.inspect(res)
        ops.append((dt, res))
        if not trace and hasattr(wl, "resample"):
            measures.append(wl.resample())
        if trace or clock() - started >= seconds:
            break
    traced = None
    if tracer:
        tracer.op = "op"
        layers.instrument(tracer)
        res = workloads.OpResult()
        t0 = clock()
        try:
            wl.operation(res)
        finally:
            dt = clock() - t0
            tracer.uninstall()
        wl.inspect(res)
        traced = (dt, res)
    wl.finish()

    for _, res in ops + ([traced] if traced else []):
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        for key, digest in res.fingerprints.items():
            fingerprints.setdefault(key, set()).add(digest)

    result = {
        "workload": name, "seed": seed, "trace": trace,
        "meta": run_metadata(numpy),
        "ops": len(ops),
        "op_wall_s": [dt for dt, _ in ops],
        "setup_s_each": setup_times,
        "fingerprints": {k: sorted(v) for k, v in fingerprints.items()},
        "errors": errors,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        metrics, tails = layers.per_layer_metrics(tracer, "op")
        untraced = median(dt for dt, _ in ops)
        metrics["trace.overhead_s"] = traced[0] - untraced
        result["traced_wall_s"] = traced[0]
        result["untraced_wall_s"] = untraced
        result["tails"] = {k: {"percentile": q, "samples": n} for k, (q, n) in tails.items()}
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
        units = layers.PER_LAYER
    else:
        def rate(attr, key):
            per_op = [getattr(res, attr) / dt for dt, res in ops if getattr(res, attr)]
            if per_op:
                return median(per_op)
            return median(m[key] for m in measures)

        mae_w, mae_h = wl.fit_metrics()
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(dt for dt, _ in ops),
            "fit_windows_per_s": rate("fit_windows", "fit_windows_per_s"),
            "fit_mae_width_mm": mae_w,
            "fit_mae_thickness_mm": mae_h,
            "env_steps_per_s": rate("env_steps", "env_steps_per_s"),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    result["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def print_result(result: dict):
    print(f"== {result['workload']} seed {result['seed']} "
          f"({'traced' if result['trace'] else 'untraced'}, {result['ops']} operation(s))")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for key, digests in result["fingerprints"].items():
        print(f"sha256 {key} {' '.join(digests)}")
    for name, m in result["metrics"].items():
        extra = ""
        if name in result.get("tails", {}):
            t = result["tails"][name]
            extra = f"  (p{t['percentile']:g} of {t['samples']} samples)"
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{extra}")
    if result["trace"]:
        print(f"traced wall {result['traced_wall_s']:.3f} s, untraced "
              f"{result['untraced_wall_s']:.3f} s, {result['spans']} spans")
    for err in result["errors"]:
        print(f"failed: {err}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return proc.returncode or 1
        merged["correct"] &= last["correct"] and proc.returncode == 0
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] and merged["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if load_program() is None:
        print(f"perfbench: no filmline sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    import workloads

    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.CheckFailed as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"validity check failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print_result(result)
    ok = result["failed"] == 0
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
