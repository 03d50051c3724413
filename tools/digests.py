#!/usr/bin/env python3
"""SHA-256 of every artifact the benchmark workloads produce, for one seed.

    python3 tools/digests.py [--seed 7]

It runs from any directory, imports mrcner from the repository's `src/`
and the workloads from its `perfbench/`, and changes nothing under either.
For each workload in `perfbench/bench.py`'s WORKLOADS it generates the
workload's splits with `perfbench/corpus_gen.py` (lexicon seed N, split seed
"N:<split>"), then, in a temporary directory, runs `convert` on every split,
`train`, `predict` on the workload's predict split and `evaluate` through
`mrcner.cli.main` with the workload's arguments, as the benchmark does. BLAS
is pinned as in `perfbench/run.py`.

Where `os.sched_setaffinity` exists, each run also trains and predicts a
second time with this process pinned to one CPU, which keeps `train` from
forking its helper and `predict` from forking workers, then restores the
process's CPUs. If the two checkpoints, the two manifests (without
`wall_clock_sec`) or the two prediction files differ, the script exits 1.

Three more runs reach paths no workload does. Each is train-mrc's pipeline
with one epoch of training: one with the ablation end head, one with
query-first input order and one with dropout 0.1.

It prints one JSON object: per workload and extra run, the digest of each split's triples,
the checkpoint, the manifest with `wall_clock_sec` removed (the only field
that changes between runs), the predictions and the metrics. Two commits
that compute the same outputs print the same object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402 - perfbench/run.py, for its BLAS pinning


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def on_one_cpu(call):
    """call() with this process pinned to the first of its CPUs; its CPUs are
    restored afterwards."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return call()
    finally:
        os.sched_setaffinity(0, cpus)


def manifest_without_clock(checkpoint: str) -> bytes:
    """The sorted JSON of a checkpoint's manifest without `wall_clock_sec`,
    the only field that changes between runs."""
    manifest = json.loads(Path(f"{checkpoint}.manifest.json").read_text())
    del manifest["wall_clock_sec"]
    return json.dumps(manifest, sort_keys=True).encode()


def workload_digests(workload, seed: int) -> dict[str, str]:
    """Run the workload's pipeline in the current directory; returns the
    digest of each artifact by name."""
    import corpus_gen as cg
    from mrcner import cli

    def mrcner(*argv: str) -> None:
        with redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"{workload.name}: mrcner {' '.join(argv)} exited {code}")

    lexicon = cg.Lexicon(seed, workload.filler_vocab, workload.entity_phrases)
    splits = [split for split, _ in workload.splits]
    for split, spec in workload.splits:
        text = cg.generate(spec, lexicon, f"{seed}:{split}", cg.CorpusStats())
        Path(f"{split}.conll").write_text(text)
    for split in splits:
        mrcner("convert", "--input", f"{split}.conll", "--entity-type", cg.ENTITY_TYPE,
               "--out", f"{split}.jsonl", *workload.convert_args)
    train_args = ["--train", "train.jsonl", *workload.train_args]
    if "dev" in splits:
        train_args += ["--dev", "dev.jsonl"]
    if workload.config:
        Path("config.json").write_text(json.dumps(workload.config))
        train_args += ["--config", "config.json"]
    mrcner("train", "--out", "model.ckpt", *train_args)
    test = f"{workload.predict_split}.jsonl"
    mrcner("predict", "--checkpoint", "model.ckpt", "--triples", test, "--out", "pred.jsonl")
    if hasattr(os, "sched_setaffinity"):
        on_one_cpu(lambda: mrcner("train", "--out", "model-one-cpu.ckpt", *train_args))
        on_one_cpu(lambda: mrcner("predict", "--checkpoint", "model.ckpt", "--triples", test,
                                  "--out", "pred-one-cpu.jsonl"))
        for what, one_cpu, all_cpus in (
                ("checkpoints", Path("model-one-cpu.ckpt").read_bytes(),
                 Path("model.ckpt").read_bytes()),
                ("manifests", manifest_without_clock("model-one-cpu.ckpt"),
                 manifest_without_clock("model.ckpt")),
                ("predictions", Path("pred-one-cpu.jsonl").read_bytes(),
                 Path("pred.jsonl").read_bytes())):
            if one_cpu != all_cpus:
                raise RuntimeError(f"{workload.name}: {what} on one CPU differ from those "
                                   f"on {len(os.sched_getaffinity(0))}")
    mrcner("evaluate", "--gold", test, "--predictions", "pred.jsonl", "--out", "metrics.json")

    digests = {f"{split} triples": sha256(Path(f"{split}.jsonl").read_bytes()) for split in splits}
    digests["checkpoint"] = sha256(Path("model.ckpt").read_bytes())
    digests["manifest without wall_clock_sec"] = sha256(manifest_without_clock("model.ckpt"))
    digests["predictions"] = sha256(Path("pred.jsonl").read_bytes())
    digests["metrics"] = sha256(Path("metrics.json").read_bytes())
    return digests


def extra_runs(workloads) -> dict:
    """train-mrc at one epoch with the ablation end head, with query-first
    order and with dropout, by name."""
    base = workloads["train-mrc"]
    one_epoch = ("--epochs", "1")
    runs = (
        replace(base, name=f"{base.name}-ablation",
                train_args=(*one_epoch, "--head-variant", "ablation")),
        replace(base, name=f"{base.name}-query-first", train_args=one_epoch,
                config={"order": "query-first"}),
        replace(base, name=f"{base.name}-dropout", train_args=(*one_epoch, "--dropout", "0.1")),
    )
    return {run.name: run for run in runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    args = p.parse_args(argv)
    # BLAS reads its thread count once, when numpy is first imported.
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    import bench

    start_dir = os.getcwd()
    result = {}
    try:
        for name, workload in {**bench.WORKLOADS, **extra_runs(bench.WORKLOADS)}.items():
            with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as directory:
                os.chdir(directory)
                try:
                    result[name] = workload_digests(workload, args.seed)
                finally:
                    os.chdir(start_dir)
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps({"seed": args.seed, "digests": result}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
