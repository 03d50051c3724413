#!/usr/bin/env python3
"""mrcner benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-mrc --seed 1 --seconds 35 --trace 0

Run from the repository root; it imports mrcner from ./src. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics BENCHMARK.json lists with --trace 0, its
per-layer metrics with --trace 1. The line before it records the
environment, the generated corpus and every rep. Scratch files live under
./.perfbench_work and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A second OpenBLAS thread does not speed up mrcner's 64-wide matmuls and
# slows training (perfbench/results/blas_threads.json).
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True, help="time spent on timed reps")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "mrcner" / "__init__.py").is_file():
        print(json.dumps({"error": f"no mrcner sources under {src}"}), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    import bench

    if args.workload not in bench.WORKLOADS:
        print(json.dumps({"error": f"unknown workload {args.workload!r}"}), file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = bench.Bench(bench.WORKLOADS[args.workload], args.seed, workdir)
    start_dir = os.getcwd()
    metrics: dict = {}
    detail: dict = {}
    try:
        if args.trace:
            metrics, detail = runner.traced(args.seconds)
        else:
            metrics, detail = runner.measure(args.seconds)
    except bench.CommandFailed as exc:
        detail["error"] = str(exc)
    finally:
        os.chdir(start_dir)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "failures": runner.failures,
        **detail,
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if not runner.failures and len(result["metrics"]) == len(units) else 1


if __name__ == "__main__":
    sys.exit(main())
