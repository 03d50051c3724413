#!/usr/bin/env python3
"""Time and size one mrcner command in a fresh Python process.

    python3 tools/fresh_run.py predict --checkpoint m.ckpt --triples test.jsonl --out p.jsonl
    python3 tools/fresh_run.py --rounds 5 predict --checkpoint m.ckpt ...

The arguments are an mrcner command line. It runs as `python -m mrcner
<arguments>` in a new subprocess, from the current directory, importing
mrcner from the repository's `src/`, with BLAS pinned as in
`perfbench/run.py`. The command's standard output goes to standard error,
and its exit status becomes this script's.

It prints one JSON line: the command, its exit status, wall seconds, and
the user and system seconds, minor page faults and peak RSS of the
subprocess and the helpers it forked, as `os.wait4` reports them (what the
subprocess adds to `getrusage(RUSAGE_CHILDREN)`). Linux reports the peak
RSS of the largest single process, so it is the command's own or that of
one of its forked helpers, not their sum.

With `--rounds N` (before the command) it runs the command N times, one
fresh process after another, and prints each round's line as it ends. If
every round exits 0 and N > 1, a last line gives the command, N and the
medians of wall seconds, minor faults and peak RSS. A round that fails ends
the run with its exit status. One run's faults vary widely between rounds
of the same command, so compare medians.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402 - perfbench/run.py, for its BLAS pinning


def fresh_run(argv) -> dict:
    """The exit status and resource use of `python -m mrcner *argv`."""
    env = dict(os.environ, **{var: str(run.BLAS_THREADS) for var in run.BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mrcner", *argv], env=env, stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "command": argv[0],
        "exit": proc.returncode,
        "wall_s": round(wall, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "minor_faults": usage.ru_minflt,
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 2),  # Linux reports KiB
    }


MEDIANS = ("wall_s", "minor_faults", "peak_rss_mib")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    rounds = 1
    if argv[:1] == ["--rounds"]:
        rounds = int(argv[1]) if len(argv) > 1 and argv[1].isdigit() else 0
        if rounds < 1:
            print("--rounds takes a positive integer", file=sys.stderr)
            return 2
        argv = argv[2:]
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    results = []
    for _ in range(rounds):
        result = fresh_run(argv)
        print(json.dumps(result), flush=True)
        if result["exit"] != 0:
            return result["exit"]
        results.append(result)
    if rounds > 1:
        medians = {key: statistics.median(r[key] for r in results) for key in MEDIANS}
        print(json.dumps({"command": argv[0], "rounds": rounds, **medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
