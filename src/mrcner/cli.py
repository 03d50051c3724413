"""Command-line pipeline: convert | train | predict | evaluate | significance.

Every artifact is a file; errors exit nonzero with a JSON diagnostic on
stderr. Log level comes from the MRCNER_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict

from . import model as model_mod
from .corpus import (CorpusError, Sentence, dump_json, entity_inventory, open_utf8,
                     parse_conll_with_report, read_json, sentence_to_json)
from .heads import ABLATION, CONDITIONED
from .metrics import EvalError, aggregate, format_pct, score, t_test
from .mrc_data import (check_field, example_from_triple, json_spans, read_triples,
                       triple_from_sentence, write_triples)
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
        fh.write(dump_json(payload, sort_keys=True) + "\n")


def read_corpus(path, entity_type: str, doc_id: str = ""):
    """The sentences and parse report of a CoNLL file; a bad line is a
    CorpusError that names the file."""
    with open_utf8(path, CorpusError) as fh:
        try:
            return parse_conll_with_report(fh, doc_id=doc_id, default_entity_type=entity_type)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def cmd_convert(args) -> int:
    sentences, report = read_corpus(args.input, args.entity_type, args.doc_id)

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
                pool.extend(read_corpus(path, args.entity_type)[0])
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
    print(dump_json(summary, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in TrainConfig.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    base = read_json(args.config, dict, CliError) if args.config else {}
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
            fh.write(dump_json(record) + "\n")
    return 0


def read_predictions(path, context_lengths: dict) -> dict:
    """Predicted (start, end) spans by sentence key. `context_lengths` holds
    the token count of every gold sentence, and a span must end inside its
    sentence. A line that is not a prediction record, a key the gold lacks,
    a repeated key, a bad span or a byte that is not UTF-8 is a CliError
    that names the file and the line."""
    predicted = {}

    def add(rec: dict) -> None:
        origin = check_field("prediction origin", rec["origin"], dict)
        key = (check_field("doc_id", origin["doc_id"], str),
               check_field("sent_id", origin["sent_id"], int),
               check_field("entity_type", rec["entity_type"], str))
        spans = json_spans("span", rec["spans"])
        if key in predicted:
            raise CliError(f"duplicate prediction sentence key {key!r}")
        n_tokens = context_lengths.get(key)
        if n_tokens is None:
            raise CliError(f"prediction references unknown sentence {key!r}")
        for start, end in spans:
            # bool is an int subclass, but JSON true/false is no index
            if not (type(start) is int and type(end) is int and 0 <= start <= end):
                raise CliError(f"sentence {key!r} has span ({start!r}, {end!r}); "
                               "a span needs integers with 0 <= start <= end")
            if end >= n_tokens:
                raise CliError(f"sentence {key!r} has span ({start}, {end}), "
                               f"past the end of its {n_tokens}-token context")
        predicted[key] = spans

    read_json(path, add, CliError, lines=True)
    return predicted


def cmd_evaluate(args) -> int:
    gold_triples = read_triples(args.gold)
    gold = gold_span_index(gold_triples)
    context_lengths = {(t.doc_id, t.sent_id, t.entity_type): len(t.context) for t in gold_triples}
    predicted = read_predictions(args.predictions, context_lengths)
    report = score(gold, predicted)
    write_json(args.out, asdict(report))
    print(
        f"P = {format_pct(report.precision)}%  R = {format_pct(report.recall)}%  "
        f"F1 = {format_pct(report.f1)}%  (tp={report.tp} fp={report.fp} fn={report.fn})"
    )
    return 0


def _scores(doc: dict, stats: bool) -> list[float]:
    """The F1 scores of a stats JSON's "runs" list if `stats` and it has one,
    else the "f1" of a metrics JSON; a score is a number, not a boolean, in
    [0, 100], which holds both the ratio and the percent scale."""
    runs = check_field("runs", doc["runs"], list) if stats and "runs" in doc else [doc["f1"]]
    scores = [float(check_field("F1 score", v, int, float)) for v in runs]
    for score in scores:
        if not 0 <= score <= 100:
            raise EvalError(f"F1 score {score!r} is outside [0, 100]")
    return scores


def read_runs(paths) -> list[float]:
    """One stats JSON with a "runs" list, or several metrics JSONs with "f1"."""
    stats = len(paths) == 1
    return [run for path in paths
            for run in read_json(path, lambda doc: _scores(doc, stats), EvalError)]


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
    p.add_argument("--head-variant", dest="head_variant", choices=[CONDITIONED, ABLATION], default=None)
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
        print(dump_json(diagnostic), file=sys.stderr)
        log.debug("command failed", exc_info=True)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
