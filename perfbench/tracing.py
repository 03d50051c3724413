"""In-memory span tracing of mrcner's layers, wrapped from outside.

A Tracer replaces public functions of the mrcner modules with wrappers that
record one span per call: name, start, end, parent span and the origin key
of the example being processed (children inherit their parent's origin).
Each name is wrapped in the namespace its caller looks it up in, because
`from x import f` binds f into the importing module.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from mrcner.mrc_data import UNK_ID

NAME, START, END, PARENT, ORIGIN = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, origin) -> int:
        parent = self.stack[-1] if self.stack else -1
        if origin is None and parent >= 0:
            origin = self.spans[parent][ORIGIN]
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, origin])
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str, origin=None):
        idx = self._open(name, origin)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][START] = start
            self.spans[idx][END] = end

    def wrap(self, namespace, attr: str, name: str, origin=None, count=None) -> None:
        """Record a span around every call of namespace.attr until unwrap_all().

        origin(args) gives the span's origin key; count(counts, args, result)
        adds the call's work counts."""
        fn = getattr(namespace, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, origin(args) if origin else None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx][START] = start
                tracer.spans[idx][END] = end
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(namespace, attr, traced)
        self._patches.append((namespace, attr, fn))

    def unwrap_all(self) -> None:
        while self._patches:
            namespace, attr, fn = self._patches.pop()
            setattr(namespace, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and sequential, so the children of a span never
    overlap and their durations are the time of it they cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def misnested(spans, selfs, tolerance: float = 1e-9) -> int:
    """Number of spans that lie outside their parent's [start, end] or whose
    self time is negative (children that overlap or outlast it)."""
    bad = 0
    for s, own in zip(spans, selfs):
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if own < -tolerance or (parent and not parent[START] <= s[START] <= s[END] <= parent[END]):
            bad += 1
    return bad


def _origin_of_example(args):
    return args[1].origin


def _origin_of_triple(args):
    t = args[0]
    return (t.doc_id, t.sent_id, t.entity_type)


def _count_parse(counts, args, result):
    _, report = result
    counts["corpus.sentences"] += report.sentences
    counts["corpus.repaired_labels"] += report.repaired_labels


def _count_query(counts, args, result):
    counts["query.tokens"] += len(result.tokens)


def _count_example(counts, args, ex):
    counts["mrc_data.examples"] += 1
    counts["mrc_data.real_tokens"] += int(ex.attention_mask.sum())
    counts["mrc_data.positions"] += len(ex.input_ids)
    counts["mrc_data.unk_tokens"] += int((ex.input_ids == UNK_ID).sum())
    counts["mrc_data.dropped_spans"] += ex.n_dropped_spans


def _count_forward(counts, args, result):
    cfg = args[1]
    n = result[1]["n"]
    d, f = cfg.model_dim, cfg.ffn_dim
    # Multiply-adds count two FLOPs: Q/K/V/O projections, scores and the
    # weighted sum, then the two FFN matmuls, per layer.
    counts["encoder.forward_flop"] += cfg.layers * (8 * n * d * d + 4 * n * n * d + 4 * n * d * f)
    counts["encoder.forward_calls"] += 1


def _count_backward(counts, args, result):
    counts["encoder.backward_calls"] += 1


def _count_indexes(counts, args, result):
    counts["decode.starts"] += len(result.starts)
    counts["decode.ends"] += len(result.ends)


def _count_pairs(counts, args, result):
    counts["decode.pairs"] += len(result)


def _count_adam(counts, args, result):
    counts["train.adam_calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every mrcner layer."""
    cli = importlib.import_module("mrcner.cli")
    # `mrcner.train` as an attribute is the re-exported function, not the module.
    train = importlib.import_module("mrcner.train")
    model = importlib.import_module("mrcner.model")
    encoder = importlib.import_module("mrcner.encoder")
    heads = importlib.import_module("mrcner.heads")
    baseline = importlib.import_module("mrcner.baseline")
    decode = importlib.import_module("mrcner.decode")

    w = tracer.wrap
    w(cli, "parse_conll_with_report", "corpus.parse", count=_count_parse)
    w(cli, "entity_inventory", "corpus.inventory")
    w(cli, "build_query", "query.build", count=_count_query)
    w(cli, "triple_from_sentence", "mrc_data.triple")
    w(cli, "read_triples", "mrc_data.triples_io")
    w(cli, "write_triples", "mrc_data.triples_io")
    for ns in (cli, train):
        w(ns, "example_from_triple", "mrc_data.example", origin=_origin_of_triple, count=_count_example)
        w(ns, "score", "metrics.score")
    w(cli, "train", "train.train")
    w(train, "build_vocab_from_triples", "train.vocab")
    w(train, "evaluate_model", "train.dev_eval")
    w(train.Adam, "step", "train.adam", count=_count_adam)

    w(model, "example_loss_and_grads", "model.loss_and_grads", origin=_origin_of_example)
    w(model, "predict_example", "model.predict", origin=_origin_of_example)
    w(model, "save_checkpoint", "model.save")
    w(model, "load_checkpoint", "model.load")
    w(model, "copy_params", "model.copy_params")

    w(encoder, "forward", "encoder.forward", count=_count_forward)
    w(encoder, "backward", "encoder.backward", count=_count_backward)
    for fn in ("gelu", "gelu_grad", "layer_norm", "layer_norm_backward", "softmax", "softmax_backward"):
        w(encoder, fn, "encoder." + fn)

    w(heads, "span_head_grads", "heads.grads")
    w(heads, "start_logits", "heads.logits")
    w(heads, "end_logits", "heads.logits")
    w(baseline, "bio_head_grads", "baseline.grads")
    w(baseline, "bio_decode", "baseline.decode")

    w(decode, "extract_indexes", "decode.extract", count=_count_indexes)
    w(decode, "nearest_match", "decode.match", count=_count_pairs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts: Counter, reps: int) -> dict[str, float]:
    """Per-layer figures per repetition from the spans of `reps` root spans."""
    selfs = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for s, own in zip(spans, selfs):
        dur = s[END] - s[START]
        total[s[NAME]] += dur
        self_total[s[NAME]] += own
        if s[NAME] in ("model.predict", "model.save", "model.load"):
            durations.setdefault(s[NAME], []).append(dur)

    def per_rep(value: float) -> float:
        return value / reps

    def median_of(name: str) -> float:
        return statistics.median(durations[name]) if name in durations else 0.0

    predict_ms = sorted(1000.0 * d for d in durations.get("model.predict", []))
    c = counts
    forward_s = total["encoder.forward"]
    out = {
        "corpus.parse_s": per_rep(total["corpus.parse"]),
        "corpus.inventory_s": per_rep(total["corpus.inventory"]),
        "corpus.sentences": per_rep(c["corpus.sentences"]),
        "corpus.repaired_labels": per_rep(c["corpus.repaired_labels"]),
        "query.build_s": per_rep(total["query.build"]),
        "query.tokens": per_rep(c["query.tokens"]),
        "mrc_data.example_s": per_rep(total["mrc_data.example"] + total["mrc_data.triple"]),
        "mrc_data.examples": per_rep(c["mrc_data.examples"]),
        "mrc_data.real_tokens": per_rep(c["mrc_data.real_tokens"]),
        "mrc_data.pad_ratio": _ratio(c["mrc_data.real_tokens"], c["mrc_data.positions"]),
        "mrc_data.unk_rate": _ratio(c["mrc_data.unk_tokens"], c["mrc_data.real_tokens"]),
        "mrc_data.dropped_spans": per_rep(c["mrc_data.dropped_spans"]),
        "mrc_data.triples_io_s": per_rep(total["mrc_data.triples_io"]),
        "encoder.forward_self_s": per_rep(self_total["encoder.forward"]),
        "encoder.backward_self_s": per_rep(self_total["encoder.backward"]),
        "encoder.forward_calls": per_rep(c["encoder.forward_calls"]),
        "encoder.backward_calls": per_rep(c["encoder.backward_calls"]),
        "encoder.gelu_s": per_rep(total["encoder.gelu"]),
        "encoder.gelu_grad_s": per_rep(total["encoder.gelu_grad"]),
        "encoder.layer_norm_s": per_rep(total["encoder.layer_norm"]),
        "encoder.layer_norm_backward_s": per_rep(total["encoder.layer_norm_backward"]),
        "encoder.softmax_s": per_rep(total["encoder.softmax"]),
        "encoder.softmax_backward_s": per_rep(total["encoder.softmax_backward"]),
        "encoder.forward_gflop": per_rep(c["encoder.forward_flop"]) / 1e9,
        "encoder.forward_gflop_per_s": _ratio(c["encoder.forward_flop"] / 1e9, forward_s),
        "heads.grads_self_s": per_rep(self_total["heads.grads"]),
        "heads.logits_s": per_rep(total["heads.logits"]),
        "baseline.grads_s": per_rep(total["baseline.grads"]),
        "baseline.decode_s": per_rep(total["baseline.decode"]),
        "decode.extract_s": per_rep(total["decode.extract"]),
        "decode.match_s": per_rep(total["decode.match"]),
        "decode.starts": per_rep(c["decode.starts"]),
        "decode.ends": per_rep(c["decode.ends"]),
        "decode.pairs": per_rep(c["decode.pairs"]),
        "decode.pair_ratio": _ratio(c["decode.pairs"], c["decode.ends"]),
        "model.loss_and_grads_self_s": per_rep(self_total["model.loss_and_grads"]),
        "model.predict_self_s": per_rep(self_total["model.predict"]),
        "model.predict_ms_p50": _percentile(predict_ms, 0.50),
        "model.predict_ms_p99": _percentile(predict_ms, 0.99),
        "model.predict_samples": len(predict_ms),
        "model.save_s": median_of("model.save"),
        "model.load_s": median_of("model.load"),
        "model.copy_params_s": per_rep(total["model.copy_params"]),
        "train.adam_s": per_rep(total["train.adam"]),
        "train.adam_calls": per_rep(c["train.adam_calls"]),
        "train.loop_self_s": per_rep(self_total["train.train"]),
        "train.dev_eval_s": per_rep(total["train.dev_eval"]),
        "train.vocab_s": per_rep(total["train.vocab"]),
        "metrics.score_s": per_rep(total["metrics.score"]),
    }
    for command in ("convert", "train", "predict", "evaluate"):
        out[f"cli.{command}_self_s"] = per_rep(self_total["cli." + command])
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]
