"""Workloads and the measured loop of the mrcner benchmark.

Every step runs the same in-process `mrcner.cli.main` command a user runs,
on CoNLL files generated from the workload seed. A repetition ("rep") is
one pass of the workload's timed pipeline; a run repeats it until its time
is used and reports medians over all samples of the run. Timed calls are
rescaled to reference seconds by calibration.py, which removes the shared
host's drift in speed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from mrcner import cli
from mrcner import model as model_mod
from mrcner.mrc_data import read_triples

import calibration
import corpus_gen as cg
import tracing


@dataclass(frozen=True)
class Workload:
    name: str
    filler_vocab: int
    entity_phrases: int
    splits: tuple[tuple[str, cg.CorpusSpec], ...]
    convert_args: tuple[str, ...]
    train_args: tuple[str, ...]
    predict_split: str
    setups: int  # set-ups before each rep; the rep runs in the last one
    train_in_setup: bool = False  # the checkpoint is trained in set-up, not in the rep
    config: dict | None = None  # TrainConfig fields without a CLI flag, passed via --config


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-mrc",
            filler_vocab=6000,
            entity_phrases=150,
            splits=(
                ("train", cg.CorpusSpec(600, 12, 40, 8)),
                ("dev", cg.CorpusSpec(150, 12, 40, 8)),
            ),
            convert_args=("--query-strategy", "q3", "--inventory-from", "train.conll", "dev.conll"),
            train_args=("--epochs", "2"),
            predict_split="train",
            setups=3,
        ),
        Workload(
            name="predict-long",
            filler_vocab=2000,
            entity_phrases=80,
            splits=(
                ("train", cg.CorpusSpec(200, 10, 60, 6)),
                ("test", cg.CorpusSpec(1200, 60, 140, 6)),
            ),
            convert_args=("--query-strategy", "q10", "--inventory-from", "train.conll"),
            # Small batches and min_count 2 (so [UNK] is trained) make two cheap
            # epochs enough for a checkpoint with real starts and ends; test F1
            # stays below 1 through decoys and the spans truncation drops.
            train_args=("--epochs", "2", "--batch-size", "2", "--learning-rate", "2e-3"),
            config={"min_count": 2},
            predict_split="test",
            setups=1,
            train_in_setup=True,
        ),
        Workload(
            name="train-bio-short",
            filler_vocab=400,
            entity_phrases=60,
            splits=(
                ("train", cg.CorpusSpec(1500, 5, 14, 6)),
                ("dev", cg.CorpusSpec(300, 5, 14, 6)),
            ),
            convert_args=("--mode", "bio-baseline"),
            train_args=("--mode", "bio-baseline", "--seq-len", "32", "--epochs", "2"),
            predict_split="train",
            setups=3,
        ),
    )
}


class CommandFailed(RuntimeError):
    """A CLI command exited nonzero; the run cannot go on."""


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Bench:
    """One run of one workload: set-ups, reps, and the output checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: dict[str, cg.CorpusStats] = {}
        self.digests: dict[str, str] = {}
        self.setup_count = 0
        self.calls: list[tuple[str, float, float]] = []  # (what, start, end) of timed calls
        self.points: list[tuple[float, float]] = []  # (time, seconds) calibration points
        self.calibrate()

    # -- checks ----------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same_digest(self, key: str, path) -> None:
        digest = sha256_of(path)
        first = self.digests.setdefault(key, digest)
        self.check(digest == first, f"{key} digest differs between same-seed passes")

    # -- commands --------------------------------------------------------

    def calibrate(self) -> None:
        start = time.perf_counter()
        seconds = calibration.point()
        self.points.append(((start + time.perf_counter()) / 2, seconds))

    def timed(self, what: str, start: float) -> int:
        """Record a timed call that started at `start` and ends now, then take
        a calibration point; returns the call's index."""
        self.calls.append((what, start, time.perf_counter()))
        self.calibrate()
        return len(self.calls) - 1

    def ref_seconds(self, calls) -> float:
        """Reference seconds of the indexed calls (see calibration.py)."""
        return sum(calibration.rescale(self.calls[i][1], self.calls[i][2], self.points) for i in calls)

    def rate(self, sample) -> float:
        """Work per reference second of a (work, call indexes) sample."""
        work, calls = sample
        return work / self.ref_seconds(calls)

    def cli(self, command: str, *args: str) -> int:
        """Run one CLI command in-process; returns its timed-call index."""
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if self.tracer is None:
                code = cli.main([command, *args])
            else:
                with self.tracer.span("cli." + command):
                    code = cli.main([command, *args])
            call = self.timed(command, start)
        if not self.check(code == 0, f"{command} exited {code}"):
            raise CommandFailed(f"mrcner {command} {' '.join(args)} exited {code}")
        return call

    def convert(self, split: str) -> int:
        call = self.cli(
            "convert", "--input", f"{split}.conll", "--entity-type", cg.ENTITY_TYPE,
            "--out", f"{split}.jsonl", *self.wl.convert_args,
        )
        self.same_digest(f"{split} triples", f"{split}.jsonl")
        answers = sum(len(t.answers) for t in read_triples(f"{split}.jsonl"))
        self.check(
            answers == self.stats[split].gold_spans,
            f"{split}: {answers} answers in triples, {self.stats[split].gold_spans} gold spans generated",
        )
        return call

    def train(self) -> tuple[tuple[int, list[int]], dict]:
        """Returns ((examples trained, [call]), manifest)."""
        args = ["--train", "train.jsonl", "--out", "model.ckpt", *self.wl.train_args]
        if "dev" in self.stats:
            args += ["--dev", "dev.jsonl"]
        if self.wl.config:
            Path("config.json").write_text(json.dumps(self.wl.config))
            args += ["--config", "config.json"]
        call = self.cli("train", *args)
        manifest = json.loads(Path("model.ckpt.manifest.json").read_text())
        self.same_digest("checkpoint", "model.ckpt")
        return (len(manifest["loss_curve"]) * manifest["n_train"], [call]), manifest

    def check_predictions(self, triples, seq_len: int) -> None:
        """Every predicted span lies inside the context the model was shown."""
        by_key = {(t.doc_id, t.sent_id): t for t in triples}
        bad = 0
        with open("pred.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                t = by_key[(rec["origin"]["doc_id"], rec["origin"]["sent_id"])]
                overhead = 3 + len(t.query.split()) if t.query is not None else 2
                n_ctx = min(len(t.context), seq_len - overhead)
                for s in rec["spans"]:
                    inside = 0 <= s["start"] <= s["end"] < n_ctx
                    if not inside or s["surface"] != " ".join(t.context[s["start"] : s["end"] + 1]):
                        bad += 1
        self.check(bad == 0, f"{bad} predicted spans outside their context")

    def evaluate_gold(self, split: str, triples) -> None:
        """evaluate(gold, gold) gives F1 = 1 with tp = the generated gold spans."""
        with open("gold_pred.jsonl", "w", encoding="utf-8") as fh:
            for t in triples:
                spans = [
                    {"start": s, "end": e, "surface": " ".join(t.context[s : e + 1])}
                    for s, e in t.answers
                ]
                origin = {"doc_id": t.doc_id, "sent_id": t.sent_id}
                fh.write(json.dumps({"origin": origin, "entity_type": t.entity_type, "spans": spans}) + "\n")
        self.cli("evaluate", "--gold", f"{split}.jsonl", "--predictions", "gold_pred.jsonl",
                 "--out", "gold_eval.json")
        report = json.loads(Path("gold_eval.json").read_text())
        gold = self.stats[split].gold_spans
        self.check(report["f1"] == 1.0 and report["tp"] == gold,
                   f"evaluate(gold, gold) gave f1={report['f1']} tp={report['tp']}, {gold} gold spans")

    def checkpoint_roundtrip(self, rep: dict) -> None:
        """Time one load_checkpoint and one save_checkpoint; the re-save must
        equal the CLI's bytes."""
        start = time.perf_counter()
        mdl = model_mod.load_checkpoint("model.ckpt")
        rep["load"].append(self.timed("load_checkpoint", start))
        start = time.perf_counter()
        model_mod.save_checkpoint(mdl, "resaved.ckpt")
        rep["save"].append(self.timed("save_checkpoint", start))
        self.check(Path("resaved.ckpt").read_bytes() == Path("model.ckpt").read_bytes(),
                   "load_checkpoint + save_checkpoint changed the checkpoint bytes")
        rep["seq_len"] = mdl.seq_cfg.seq_len

    # -- set-up and reps ---------------------------------------------------

    def setup(self) -> dict:
        """Generate the corpora (and train the checkpoint where the workload says so)
        in a fresh directory, which becomes the working directory."""
        start = time.perf_counter()
        directory = self.workdir / f"setup{self.setup_count}"
        directory.mkdir(parents=True)
        os.chdir(directory)
        if self.setup_count:
            shutil.rmtree(self.workdir / f"setup{self.setup_count - 1}")
        self.setup_count += 1
        lexicon = cg.Lexicon(self.seed, self.wl.filler_vocab, self.wl.entity_phrases)
        self.stats = {}
        for split, spec in self.wl.splits:
            stats = cg.CorpusStats()
            Path(f"{split}.conll").write_text(cg.generate(spec, lexicon, f"{self.seed}:{split}", stats))
            self.stats[split] = stats
        result = {}
        if self.wl.train_in_setup:
            self.convert("train")
            result["train"], _ = self.train()
        result["seconds"] = time.perf_counter() - start
        return result

    def rep(self) -> dict:
        """One pass of the timed pipeline in the current set-up directory.

        A checkpoint round trip follows every command once the checkpoint
        exists, and the convert pass runs again at the end (same inputs, so
        the same triples): each of these calls takes well under a second, so
        a run needs many, spread over its length."""
        start = time.perf_counter()
        rep: dict = {"load": [], "save": [], "convert": []}
        rep_splits = [s for s, _ in self.wl.splits if not (self.wl.train_in_setup and s == "train")]
        sentences = sum(self.stats[s].sentences for s in rep_splits)

        def convert_pass():
            rep["convert"].append((sentences, [self.convert(s) for s in rep_splits]))

        convert_pass()
        if not self.wl.train_in_setup:
            rep["train"], manifest = self.train()
            rep["f1"] = manifest["final_metrics"]["f1"]
        self.checkpoint_roundtrip(rep)

        split = self.wl.predict_split
        triples = read_triples(f"{split}.jsonl")
        rep["predict"] = (len(triples), [self.cli("predict", "--checkpoint", "model.ckpt", "--triples",
                                                  f"{split}.jsonl", "--out", "pred.jsonl")])
        self.same_digest("predictions", "pred.jsonl")
        self.checkpoint_roundtrip(rep)
        self.cli("evaluate", "--gold", f"{split}.jsonl", "--predictions", "pred.jsonl", "--out", "eval.json")
        if self.wl.train_in_setup:
            rep["f1"] = json.loads(Path("eval.json").read_text())["f1"]
        self.checkpoint_roundtrip(rep)
        self.evaluate_gold(split, triples)
        self.checkpoint_roundtrip(rep)
        convert_pass()
        self.checkpoint_roundtrip(rep)
        self.check_predictions(triples, rep["seq_len"])
        rep["wall_s"] = time.perf_counter() - start
        return rep

    def repeat(self, seconds: float, min_reps: int, fn) -> list:
        """Call fn while one more call of average length ends nearer `seconds` than stopping."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(fn())
            elapsed = time.perf_counter() - start
            if len(results) >= min_reps and elapsed + elapsed / len(results) / 2 >= seconds:
                return results

    def corpus_record(self) -> dict:
        record = {split: stats.to_dict() for split, stats in self.stats.items()}
        record["checkpoint_bytes"] = Path("model.ckpt").stat().st_size
        return record

    # -- the two kinds of run ----------------------------------------------

    def fresh_rep(self) -> dict:
        """Set-ups then a rep, so set-up samples spread over the run like the rest."""
        setups = [self.setup() for _ in range(self.wl.setups)]
        rep = self.rep()
        rep["setup_s"] = [s["seconds"] for s in setups]
        if self.wl.train_in_setup:
            rep["train"] = setups[-1]["train"]
        return rep

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced run: end-to-end metrics and a detail record."""
        reps = self.repeat(seconds, 3, self.fresh_rep)
        median = statistics.median
        metrics = {
            "train_examples_per_s": median(self.rate(r["train"]) for r in reps),
            "predict_examples_per_s": median(self.rate(r["predict"]) for r in reps),
            "convert_sentences_per_s": median(self.rate(c) for r in reps for c in r["convert"]),
            "checkpoint_save_s": median(self.ref_seconds([i]) for r in reps for i in r["save"]),
            "checkpoint_load_s": median(self.ref_seconds([i]) for r in reps for i in r["load"]),
            "checkpoint_bytes": Path("model.ckpt").stat().st_size,
            "f1": median(r["f1"] for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(t for r in reps for t in r["setup_s"]),
        }
        detail = {
            "corpus": self.corpus_record(),
            "setup_s": [t for r in reps for t in r["setup_s"]],
            "calibration_s": [c for _, c in self.points],
            "calls": [(what, end - start, self.ref_seconds([i])) for i, (what, start, end) in enumerate(self.calls)],
        }
        return metrics, detail

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Traced run: untraced and traced reps alternate (so drift in the
        machine's speed hits both alike) until `seconds`; per-layer metrics."""
        self.setup()
        tracer = tracing.Tracer()

        def pair():
            plain = self.rep()["wall_s"]
            tracing.install(tracer)
            self.tracer = tracer
            try:
                with tracer.span("bench.rep"):
                    self.rep()
            finally:
                tracer.unwrap_all()
                self.tracer = None
            return plain

        plain = self.repeat(seconds, 2, pair)
        spans = tracer.spans
        roots = [i for i, s in enumerate(spans) if s[tracing.PARENT] < 0]
        metrics = tracing.layer_metrics(spans, tracer.counts, len(roots))
        selfs = tracing.self_times(spans)
        bad = tracing.misnested(spans, selfs)
        self.check(bad == 0, f"{bad} spans outside their parent or with negative self time")
        root_s = [spans[i][tracing.END] - spans[i][tracing.START] for i in roots]
        untraced_s = statistics.median(plain)
        traced_s = statistics.median(root_s)
        metrics.update({
            "trace.root_s": statistics.fmean(root_s),
            "trace.spans": len(spans) / len(roots),
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        })
        by_name: dict[str, list] = {}
        for span, own in zip(spans, selfs):
            entry = by_name.setdefault(span[tracing.NAME], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[tracing.END] - span[tracing.START]
            entry[2] += own
        detail = {
            "corpus": self.corpus_record(),
            "untraced_rep_s": plain,
            "traced_rep_s": root_s,
            "spans": {name: dict(zip(("calls", "total_s", "self_s"), e)) for name, e in sorted(by_name.items())},
        }
        return metrics, detail
