"""Command-line pipeline: convert | train | predict | evaluate | significance.

Every artifact is a file; errors exit nonzero with a JSON diagnostic on
stderr. Log level comes from the MRCNER_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict

from . import model as model_mod
from .corpus import Sentence, entity_inventory, parse_conll_with_report, sentence_to_json
from .metrics import EvalError, aggregate, format_pct, score, t_test
from .mrc_data import example_from_triple, read_triples, triple_from_sentence, write_triples
from .model import MODE_BIO, MODE_MRC
from .query import QueryStrategy, build_query
from .train import TrainConfig, check_mode, gold_span_index, train

log = logging.getLogger("mrcner")


class CliError(ValueError):
    """Unusable command input; keyword details join the JSON diagnostic."""

    def __init__(self, message: str, **details) -> None:
        super().__init__(message)
        self.details = details


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True))
        fh.write("\n")


def cmd_convert(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        sentences, report = parse_conll_with_report(
            fh, doc_id=args.doc_id, default_entity_type=args.entity_type
        )

    query = None
    if args.mode == MODE_MRC:
        strategy = QueryStrategy.parse(args.strategy)
        inventory: dict[str, list[str]] = {}
        if strategy.kind == "sample":
            # The inventory ignores doc_id, so the input's own sentences serve
            # wherever the input is part of the pool.
            pool: list[Sentence] = []
            for path in args.inventory_from or [args.input]:
                if os.path.samefile(path, args.input):
                    pool.extend(sentences)
                    continue
                with open(path, encoding="utf-8") as fh:
                    pool.extend(
                        parse_conll_with_report(fh, default_entity_type=args.entity_type)[0]
                    )
            inventory = entity_inventory(pool)
        query = build_query(args.entity_type, strategy, inventory, args.seed)

    triples = [triple_from_sentence(s, query, entity_type=args.entity_type) for s in sentences]
    found = report.entity_spans
    answers = sum(len(t.answers) for t in triples)
    if found and not answers:
        raise CliError(f"the corpus has no spans of type {args.entity_type!r}",
                       found_entity_types=sorted(found))
    write_triples(triples, args.out)
    if args.sentences_out:
        with open(args.sentences_out, "w", encoding="utf-8") as fh:
            for s in sentences:
                fh.write(sentence_to_json(s) + "\n")

    summary = {
        "sentences": report.sentences,
        "tokens": report.tokens,
        "repaired_labels": report.repaired_labels,
        "triples": len(triples),
        "answers": answers,
        "filtered_spans": sum(found.values()) - answers,
        "entity_type": args.entity_type,
        "strategy": query.strategy.name if query else None,
    }
    print(json.dumps(summary, separators=(",", ":"), sort_keys=True))
    return 0


def cmd_train(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in TrainConfig.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
    base.update(overrides)
    config = TrainConfig.from_dict(base)

    train_triples = read_triples(args.train)
    dev_triples = read_triples(args.dev) if args.dev else []
    hashes = {"train": file_sha256(args.train)}
    if args.dev:
        hashes["dev"] = file_sha256(args.dev)

    mdl, manifest = train(config, train_triples, dev_triples, dataset_hashes=hashes)
    model_mod.save_checkpoint(mdl, args.out)
    manifest_path = args.manifest or (str(args.out) + ".manifest.json")
    write_json(manifest_path, asdict(manifest))
    if manifest.final_metrics:
        print(
            "best dev F1: "
            + format_pct(manifest.final_metrics["f1"])
            + f"% (epoch {manifest.best_epoch})"
        )
    return 0


class TripleExamples(Sequence):
    """The model inputs of `triples`, each built when it is indexed, so that
    predict holds at most one at a time in this process (forked predict
    workers build their own chunks')."""

    def __init__(self, triples, vocab, seq_cfg) -> None:
        self.triples, self.vocab, self.seq_cfg = triples, vocab, seq_cfg

    def __len__(self) -> int:
        return len(self.triples)

    def __getitem__(self, index):
        return example_from_triple(self.triples[index], self.vocab, self.seq_cfg)


def cmd_predict(args) -> int:
    mdl = model_mod.load_checkpoint(args.checkpoint)
    triples = read_triples(args.triples)
    check_mode(triples, mdl.head.mode, "input")
    predicted = model_mod.predict_examples(mdl, TripleExamples(triples, mdl.vocab, mdl.seq_cfg))
    with open(args.out, "w", encoding="utf-8") as fh:
        for t, spans in zip(triples, predicted):
            record = {
                "origin": {"doc_id": t.doc_id, "sent_id": t.sent_id},
                "entity_type": t.entity_type,
                "spans": [
                    {"start": s.start, "end": s.end, "surface": s.surface} for s in spans
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    return 0


def read_predictions(path) -> dict:
    predicted = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["origin"]["doc_id"], rec["origin"]["sent_id"], rec["entity_type"])
            if key in predicted:
                raise CliError(f"{path}: duplicate prediction sentence key {key!r}")
            spans = [(s["start"], s["end"]) for s in rec["spans"]]
            for start, end in spans:
                # bool is an int subclass, but JSON true/false is no index
                if not (type(start) is int and type(end) is int and 0 <= start <= end):
                    raise CliError(f"{path}: sentence {key!r} has span ({start!r}, {end!r}); "
                                   "a span needs integers with 0 <= start <= end")
            predicted[key] = spans
    return predicted


def cmd_evaluate(args) -> int:
    gold = gold_span_index(read_triples(args.gold))
    predicted = read_predictions(args.predictions)
    report = score(gold, predicted)
    write_json(args.out, asdict(report))
    print(
        f"P = {format_pct(report.precision)}%  R = {format_pct(report.recall)}%  "
        f"F1 = {format_pct(report.f1)}%  (tp={report.tp} fp={report.fp} fn={report.fn})"
    )
    return 0


def _score(value, path) -> float:
    """A JSON number as an F1 score; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvalError(f"{path}: F1 score {value!r} is not a number")
    return float(value)


def read_runs(paths) -> list[float]:
    """One stats JSON with a "runs" list, or several metrics JSONs with "f1"."""
    if len(paths) == 1:
        with open(paths[0], encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "runs" in doc:
            return [_score(v, paths[0]) for v in doc["runs"]]
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "f1" not in doc:
            raise EvalError(f"{path}: expected a metrics JSON with an 'f1' field")
        runs.append(_score(doc["f1"], path))
    return runs


def cmd_significance(args) -> int:
    runs_a = read_runs(args.a)
    runs_b = read_runs(args.b)
    result = t_test(runs_a, runs_b, welch=not args.equal_var)
    write_json(args.out, result.to_dict())
    stats_a, stats_b = aggregate(runs_a), aggregate(runs_b)
    if args.a_stats_out:
        write_json(args.a_stats_out, stats_a.to_dict())
    if args.b_stats_out:
        write_json(args.b_stats_out, stats_b.to_dict())
    print(
        f"A: {stats_a.mean:.4f}±{stats_a.std:.4f}  B: {stats_b.mean:.4f}±{stats_b.std:.4f}  "
        f"t = {result.t_statistic:.4f}  p = {result.p_value:.6g}  [{result.stars}]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcner",
        description="NER as reading comprehension: span-head training with a BIO baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="BIO corpus file -> (context, query, answers) triples")
    p.add_argument("--input", required=True,
                   help="CoNLL-style corpus: token and label per line, split on a tab "
                        "when the line has one, else on spaces")
    p.add_argument("--entity-type", required=True, help="entity type of this corpus")
    p.add_argument("--query-strategy", dest="strategy", default="q3",
                   help="query strategy of the MRC mode: none|q0|q3|q5|q10")
    p.add_argument("--query-seed", dest="seed", type=int, default=13,
                   help="seed of the one query sampled per run")
    p.add_argument("--mode", choices=[MODE_MRC, MODE_BIO], default=MODE_MRC)
    p.add_argument("--out", required=True)
    p.add_argument("--sentences-out", default=None,
                   help="also write parsed sentences as canonical JSON lines")
    p.add_argument("--doc-id", default="", help="document id recorded in the triples")
    p.add_argument(
        "--inventory-from",
        nargs="+",
        default=None,
        help="corpus files whose entities feed query sampling (default: the input)",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train on triples, write checkpoint + manifest")
    p.add_argument("--train", required=True, help="training triples (JSON lines)")
    p.add_argument("--dev", default=None, help="dev triples for model selection")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--config", default=None, help="JSON file of TrainConfig fields")
    p.add_argument("--mode", choices=[MODE_MRC, MODE_BIO], default=None)
    p.add_argument("--head-variant", dest="head_variant", choices=["conditioned", "ablation"], default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--model-dim", dest="model_dim", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--ffn-dim", dest="ffn_dim", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--early-stop-f1", dest="early_stop_f1", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode triples with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="entity-level P/R/F1 of predictions vs gold triples")
    p.add_argument("--gold", required=True, help="triples file with gold answers")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", help="two-sample t test over per-run F1 scores")
    p.add_argument("--a", required=True, nargs="+",
                   help="stats JSON with a 'runs' list, or several metrics JSONs")
    p.add_argument("--b", required=True, nargs="+")
    p.add_argument("--out", required=True, help="significance JSON path")
    p.add_argument("--equal-var", action="store_true", help="pooled-variance Student test")
    p.add_argument("--a-stats-out", default=None, help="write side A aggregate stats JSON")
    p.add_argument("--b-stats-out", default=None, help="write side B aggregate stats JSON")
    p.set_defaults(func=cmd_significance)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MRCNER_LOG_LEVEL", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        diagnostic.update(getattr(exc, "details", {}))
        print(json.dumps(diagnostic, ensure_ascii=False), file=sys.stderr)
        log.debug("command failed", exc_info=True)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
