"""Mini-batch training with Adam (linear warmup, then constant rate).

Batches act as gradient-accumulation groups. Each batch is cut into
`model.packs`, and each pack runs forward and backward together
(`model.pack_loss_and_grads`), which adds every example's gradients, one
example at a time in batch order, into one gradient vector laid out like the
model's parameter vector. The sum is the one per-example runs would give, bit
for bit; it is averaged and Adam steps the whole vector, so results are
deterministic for a given seed. Each example's dropout masks come from its
own seed, whatever pack it lands in. The checkpoint kept is the one with the
best dev F1 (ties resolved to the earliest epoch), and that epoch's dev
report is the manifest's final metrics.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, asdict
from itertools import islice
from typing import Sequence, get_args, get_type_hints

import numpy as np

from . import model as model_mod
from .encoder import EncoderConfig
from .heads import CONDITIONED
from .metrics import EvalReport, score
from .mrc_data import (MrcDataError, MrcExample, SeqConfig, Triple, Vocab, check_field,
                       example_from_triple)
from .model import MODE_MRC, ModelState

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    """Diverged training or inconsistent inputs."""


@dataclass
class TrainConfig:
    """Desk-scale defaults; the reference hyper-parameters the protocol was
    published with (seq_len 256/512, lr 3e-5, batch 8/16 on a pretrained
    backbone) are documented in the README and reachable via overrides."""

    seq_len: int = 128
    order: str = "context-first"
    epochs: int = 60
    batch_size: int = 8
    learning_rate: float = 1e-3
    warmup_steps: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 13
    head_variant: str = CONDITIONED
    mode: str = MODE_MRC
    min_count: int = 1
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ffn_dim: int = 256
    dropout: float = 0.0
    early_stop_f1: float | None = None

    def __post_init__(self) -> None:
        _check_types({"early_stop_f1": self.early_stop_f1})
        # A comparison with NaN is false, so each rule refuses it too.
        for rule, ok, names in (
                ("finite and positive", lambda v: 0 < v < math.inf,
                 ("batch_size", "learning_rate", "min_count", "adam_eps")),
                ("non-negative", lambda v: v >= 0, ("epochs", "warmup_steps")),
                ("in [0, 1)", lambda v: 0 <= v < 1, ("beta1", "beta2")),
                ("in [0, 1] or null", lambda v: v is None or 0 <= v <= 1, ("early_stop_f1",))):
            for name in names:
                if not ok(value := getattr(self, name)):
                    raise TrainingError(f"config field {name} must be {rule}, got {value!r}")
        if not isinstance(self.mode, str) or self.mode not in model_mod.HEADS:
            raise TrainingError(f"unknown mode {self.mode!r}; expected one of {sorted(model_mod.HEADS)}")
        # The sequence and encoder configs and the head check their own fields.
        self.seq_config()
        self.encoder_config(1)
        model_mod.HEADS[self.mode].shapes(self.model_dim, self.model_head_variant())

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The config of a JSON object's fields. An unknown field, or a value
        whose type is not exactly its field's (a boolean is no number; an int
        passes for a float), is a TrainingError that names the field."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise TrainingError(f"unknown config fields: {sorted(unknown)}")
        _check_types(data)
        return cls(**data)

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size,
            layers=self.layers,
            model_dim=self.model_dim,
            heads=self.heads,
            ffn_dim=self.ffn_dim,
            max_positions=self.seq_len,
            dropout=self.dropout,
        )

    def seq_config(self) -> SeqConfig:
        return SeqConfig(self.seq_len, self.order)

    def model_head_variant(self) -> str | None:
        """`head_variant` in MRC mode; None for the BIO head, which has no variant."""
        return self.head_variant if self.mode == MODE_MRC else None


# The types each field takes: exactly its annotation's, plus int for a float,
# so 1 is a learning rate but true is no epoch count.
_FIELD_TYPES = {
    name: tuple(t for hint in get_args(hint) or (hint,)
                for t in ((float, int) if hint is float else (hint,)))
    for name, hint in get_type_hints(TrainConfig).items()
}


def _check_types(values: dict) -> None:
    """TrainingError naming the first field whose value has none of its
    field's types."""
    for name, value in values.items():
        try:
            check_field(f"config field {name}", value, *_FIELD_TYPES[name])
        except MrcDataError as exc:
            raise TrainingError(str(exc)) from None


@dataclass
class RunManifest:
    config: dict
    dataset_hashes: dict
    inputs_hash: str
    n_train: int
    n_dev: int
    vocab_size: int
    dropped_spans: int
    loss_curve: list[float] = field(default_factory=list)
    dev_f1_curve: list[float] = field(default_factory=list)
    best_epoch: int = -1
    final_metrics: dict = field(default_factory=dict)
    wall_clock_sec: float = 0.0


class Adam:
    """Dense Adam over one flat parameter vector, with linear warmup to a
    constant learning rate. Every element's moments decay on every step,
    whether or not its gradient is zero (no lazy, row-sparse variant)."""

    def __init__(self, size: int, cfg: TrainConfig):
        self.cfg = cfg
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """params -= lr * (m / b1c) / (sqrt(v / b2c) + eps), in place, with the
        operations in that order."""
        self.step_count += 1
        c = self.cfg
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.step_count / c.warmup_steps)
        b1c = 1.0 - c.beta1**self.step_count
        b2c = 1.0 - c.beta2**self.step_count
        a, b, m, v = self._a, self._b, self.m, self.v
        m *= c.beta1
        m += np.multiply(1.0 - c.beta1, grads, out=a)
        v *= c.beta2
        np.multiply(1.0 - c.beta2, grads, out=a)
        v += np.multiply(a, grads, out=a)
        np.divide(m, b1c, out=a)
        np.multiply(lr, a, out=a)
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += c.adam_eps
        params -= np.divide(a, b, out=a)


def build_vocab_from_triples(triples: Sequence[Triple], min_count: int) -> Vocab:
    """Training-split text only: context tokens plus query words."""
    counts: Counter = Counter()
    for t in triples:
        counts.update(t.context)
        if t.query is not None:
            counts.update(t.query.split())
    return Vocab.from_counts(counts, min_count)


def check_mode(triples: Sequence[Triple], mode: str, what: str) -> None:
    """MRC triples carry a query; baseline triples carry none."""
    for t in triples:
        if (t.query is not None) != (mode == MODE_MRC):
            raise TrainingError(
                f"mode mismatch: {what} triple {t.doc_id}/{t.sent_id} "
                f"{'carries a' if t.query is not None else 'has no'} query but mode is {mode}"
            )


def gold_span_index(triples: Sequence[Triple]) -> dict[tuple[str, int, str], list[tuple[int, int]]]:
    """Gold answers keyed by (doc_id, sent_id, entity_type); a repeated key raises."""
    index: dict[tuple[str, int, str], list[tuple[int, int]]] = {}
    for t in triples:
        key = (t.doc_id, t.sent_id, t.entity_type)
        if key in index:
            raise TrainingError(f"duplicate gold sentence key {key!r}")
        index[key] = list(t.answers)
    return index


def evaluate_model(model: ModelState, examples: Sequence[MrcExample],
                   gold: dict[tuple[str, int, str], list[tuple[int, int]]]) -> EvalReport:
    """Entity-level scores of the model's predictions on `examples`, made in
    this process (`model.predict_in_process`), against `gold`."""
    predicted = {ex.origin: [(s.start, s.end) for s in spans]
                 for ex, spans in zip(examples, model_mod.predict_in_process(model, examples))}
    return score(gold, predicted)


def train(
    config: TrainConfig,
    train_triples: Sequence[Triple],
    dev_triples: Sequence[Triple],
    dataset_hashes: dict | None = None,
) -> tuple[ModelState, RunManifest]:
    """Train a model on triples; returns the best-dev model and its manifest."""
    started = time.monotonic()
    check_mode(train_triples, config.mode, "train")
    check_mode(dev_triples, config.mode, "dev")
    if not train_triples:
        raise TrainingError("no training triples")

    vocab = build_vocab_from_triples(train_triples, config.min_count)
    seq_cfg = config.seq_config()
    train_examples = [example_from_triple(t, vocab, seq_cfg) for t in train_triples]
    dev_examples = [example_from_triple(t, vocab, seq_cfg) for t in dev_triples]
    dropped = sum(ex.n_dropped_spans for ex in train_examples + dev_examples)
    if dropped:
        log.warning("truncation dropped %d gold spans", dropped)
    # Dev gold comes from the triples, not the truncated examples, so spans
    # lost to truncation still count against recall.
    dev_gold = gold_span_index(dev_triples)

    mdl = model_mod.new_model(config.mode, config.model_head_variant(),
                              config.encoder_config(vocab.size), seq_cfg, vocab, config.seed)
    optimizer = Adam(mdl.flat.size, config)
    grad_flat, grads = mdl.zero_grads()

    hashes = dataset_hashes or {}
    manifest = RunManifest(
        config=asdict(config),
        dataset_hashes=hashes,
        inputs_hash="+".join(v for _, v in sorted(hashes.items())),
        n_train=len(train_examples),
        n_dev=len(dev_examples),
        vocab_size=vocab.size,
        dropped_spans=dropped,
    )

    best_f1 = -1.0
    best_report: EvalReport | None = None
    best_snapshot = model_mod.copy_params(mdl)
    shuffle_rng = np.random.default_rng(config.seed)

    def eval_dev(epoch: int) -> EvalReport | None:
        if not dev_examples:
            return None
        report = evaluate_model(mdl, dev_examples, dev_gold)
        manifest.dev_f1_curve.append(report.f1)
        log.info("epoch %d dev P/R/F1 = %.4f/%.4f/%.4f",
                 epoch, report.precision, report.recall, report.f1)
        return report

    if config.epochs == 0:
        best_report = eval_dev(0)
        manifest.best_epoch = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_examples))
        epoch_loss = 0.0
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            grad_flat.fill(0.0)
            seeds = iter([(config.seed * 1_000_003 + epoch * 997 + int(j)) % (2**31)
                          for j in batch])
            for pack in model_mod.packs([train_examples[int(j)] for j in batch]):
                losses, _ = model_mod.pack_loss_and_grads(
                    mdl, pack, True, list(islice(seeds, len(pack))), grads
                )
                for ex, loss in zip(pack, losses):
                    if not np.isfinite(loss):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}, example "
                            f"{ex.origin[0]}/{ex.origin[1]}"
                        )
                    epoch_loss += loss
            grad_flat /= len(batch)
            optimizer.step(mdl.flat, grad_flat)
        mean_loss = epoch_loss / len(train_examples)
        manifest.loss_curve.append(mean_loss)

        report = eval_dev(epoch)
        f1 = report.f1 if report is not None else 0.0
        # Without dev data there is nothing to select on; keep the latest.
        if f1 > best_f1 or report is None:
            best_f1, best_report = f1, report
            manifest.best_epoch = epoch
            best_snapshot = model_mod.copy_params(mdl)
        log.info("epoch %d mean loss %.6f", epoch, mean_loss)
        if config.early_stop_f1 is not None and f1 >= config.early_stop_f1:
            log.info("early stop: dev F1 %.4f reached target", f1)
            break

    # The restored parameters are the best epoch's, bit for bit, so its dev
    # report is what evaluating them again would give.
    mdl.flat[...] = best_snapshot
    if best_report is not None:
        manifest.final_metrics = asdict(best_report)
    manifest.wall_clock_sec = time.monotonic() - started
    return mdl, manifest
