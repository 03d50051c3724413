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

Training runs on two CPUs where `model.fork_cpus()` reports at least two:
on Linux, while this process runs no other thread, a BLAS library's
included. `train` then forks one helper process, which shares the
model's store, the gradient vector and Adam's moments with it through
anonymous shared mappings made before the fork. For each batch, this process
trains the leading examples into the gradient vector, while the helper
trains the trailing ones, each into its own zeroed gradient slot that holds
every tensor but the token embeddings; it sends back their losses, each
one's token-embedding rows and the seconds it took. The batch is cut where
the two processes' estimated seconds come out even: each example's cost
from its real rows, weighed by how fast each process has measured so far.
This process adds the rows, and each process adds the slots, in batch
order, into one part of the gradient vector, then averages and Adam-steps
that part, block by block. Every tensor receives exactly one addition per
example and 0 + g = g, so the sum, and every parameter, has the bits it has
on one CPU. Losses are checked in batch order, so the first non-finite one
reported is the one one CPU reports, and an error the helper raises is
raised here as itself. Each epoch's dev evaluation is cut the same way:
the helper predicts the trailing dev examples and this process the rest.
The helper exits when `train` returns or raises, and is reaped; a helper
that dies is a TrainingError naming its exit status. Elsewhere the same
steps run in this process alone.
"""

from __future__ import annotations

import logging
import math
import mmap
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field, asdict
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

# The cost, in microseconds, of training an example of n real rows: fixed +
# per_row * n + per_row_squared * n * n (`_example_cost`). Where a helper
# process trains, each batch, and each epoch's dev examples, are cut where
# the two processes' costs, weighed by their measured speeds (`_Steps.ratio`),
# come out even; the cut changes which process handles an example, never
# what it computes. Fitted on a 2-vCPU x86-64 host with one BLAS thread,
# training the default model (2 layers, width 64, feed-forward 256) on
# examples of 8 to 128 rows in packs of up to 8. Cutting at half the cost,
# this process waited 0.1-0.34 s of a 2.6-2.9 s train-mrc `train` for the
# helper's examples: a batch splits only between whole examples, and the
# two CPUs ran at different speeds.
SPLIT_COST = (750.0, 26.0, 0.35)

# Most examples of a batch the helper trains. Each takes a gradient slot
# holding every tensor but the token embeddings (108k float64 values, 0.9 MB,
# for the default model at seq_len 128), so larger batches leave the rest to
# this process.
MAX_SLOTS = 31

# Adam's step over one element of the parameter vector costs about
# FINISH_COST times adding one slot's element into the gradient and zeroing
# it; `_Steps.cut` weighs the two processes' parts of the vector by it. On
# train-mrc, weighing them instead of halving the vector cut this process's
# wait for the helper's part from 0.11-0.16 s to 0.01-0.02 s per `train`.
FINISH_COST = 5.0

# The weight of each step's measured speed ratio in `_Steps.ratio`, an
# exponential average. On train-mrc (seed-22 data, six in-process `train`
# calls each, 2-vCPU x86-64 host, one BLAS thread), this process waited
# 0.22-0.41 s per `train` for the helper at weight 0 (the costs alone),
# 0.18-0.25 s at 0.1, 0.23-0.30 s at 0.25 and 0.19-0.50 s at 0.5, where one
# step's noise moves the ratio most.
SPEED_WEIGHT = 0.1

# Elements of the parameter vector that `Adam.step` steps at a time (256 KiB
# per float64 array), so that a block's gradient, slots, moments, parameters
# and two work vectors stay in cache through the step's dozen passes. On a
# 2-vCPU x86-64 host (2 MB L2 per core), `_Steps.finish` over the 493k
# parameters of a train-mrc-sized model (6000 tokens), in two parts with four slots,
# took a median 8.4 ms per step in blocks of 4096 elements, 6.6 ms in 8192,
# 5.6 ms in 16384, 5.4 ms in 32768, 5.5 ms in 65536 and 6.5 ms unblocked
# (seven rounds of 40 steps); at 173k parameters, 2.3 ms in 32768 and
# unblocked alike.
STEP_BLOCK = 32768


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
        # An int passes for a float; one too large for a float is refused here,
        # not by an OverflowError in Adam's first step.
        for name in _FLOAT_FIELDS:
            if isinstance(value := getattr(self, name), int):
                try:
                    setattr(self, name, float(value))
                except OverflowError:
                    raise TrainingError(f"config field {name} is too large for a float") from None
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
        # The manifest records head_variant as given; the BIO head has no variant,
        # so only the default, which its manifests have always written, passes.
        if self.mode != MODE_MRC and self.head_variant != CONDITIONED:
            raise TrainingError(f"config field head_variant must be {CONDITIONED!r} (the default) "
                                f"in {self.mode} mode, whose head has no variant; "
                                f"got {self.head_variant!r}")
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
_FLOAT_FIELDS = [name for name, types in _FIELD_TYPES.items() if float in types]


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
    whether or not its gradient is zero (no lazy, row-sparse variant). The
    moments are vectors from `zeros(size)`. Every operation is
    element-wise, so stepping the vector in parts, and each part in blocks,
    gives the bits stepping it whole does, and two processes that share the
    moments may each step a part."""

    def __init__(self, size: int, cfg: TrainConfig, zeros=np.zeros):
        self.cfg = cfg
        self.step_count = 0
        self.m = zeros(size)
        self.v = zeros(size)
        self._a = np.empty(min(size, STEP_BLOCK))
        self._b = np.empty_like(self._a)

    def step(self, params: np.ndarray, grads: np.ndarray, part: slice, prepare) -> None:
        """params -= lr * (m / b1c) / (sqrt(v / b2c) + eps), in place, with the
        operations in that order, over the elements in `part`, which leaves
        the gradient there zeroed for the next step. The learning rate and
        bias corrections are computed once; the part is stepped in blocks of
        STEP_BLOCK elements, and `prepare(block)` first finishes the block's
        gradient, so each block stays in cache from the gradient's last
        additions to its zeroing."""
        self.step_count += 1
        c = self.cfg
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.step_count / c.warmup_steps)
        b1c = 1.0 - c.beta1**self.step_count
        b2c = 1.0 - c.beta2**self.step_count
        start, stop, _ = part.indices(params.size)
        for first in range(start, stop, STEP_BLOCK):
            block = slice(first, min(first + STEP_BLOCK, stop))
            prepare(block)
            n = block.stop - block.start
            a, b, m, v = self._a[:n], self._b[:n], self.m[block], self.v[block]
            p, g = params[block], grads[block]
            m *= c.beta1
            m += np.multiply(1.0 - c.beta1, g, out=a)
            v *= c.beta2
            np.multiply(1.0 - c.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, b1c, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, b2c, out=b)
            np.sqrt(b, out=b)
            b += c.adam_eps
            p -= np.divide(a, b, out=a)
            g[...] = 0.0


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
                   gold: dict[tuple[str, int, str], list[tuple[int, int]]],
                   helper: "_Helper | None" = None) -> EvalReport:
    """Entity-level scores of the model's predictions on `examples` against
    `gold`, made by `model.predict_in_process` in this process, or, given
    `train`'s helper, whose steps hold `examples` as their dev examples, in
    both processes: the helper predicts a trailing part, cut as a batch is
    (`_lead_count` over the steps' `dev_costs`), while this process
    predicts the rest. An example's spans do not depend on the examples
    packed with it, so the report is the one this process gives alone."""
    cut = len(examples)
    if helper is not None:
        cut = _lead_count(helper.steps.dev_costs, helper.steps.ratio, min(1, cut))
        if cut < len(examples):
            helper.call("predict", cut)
    spans = model_mod.predict_in_process(model, examples[:cut])
    if cut < len(examples):
        spans += helper.result()
    predicted = {ex.origin: [(s.start, s.end) for s in example_spans]
                 for ex, example_spans in zip(examples, spans)}
    return score(gold, predicted)


def _shared_zeros(size: int) -> np.ndarray:
    """A zeroed float64 vector over an anonymous shared mapping, which a
    process forked from this one shares instead of copying."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size)


def _example_cost(n: int) -> float:
    """What training an example of n real rows costs, in the units of
    SPLIT_COST."""
    fixed, per_row, per_row_squared = SPLIT_COST
    return fixed + per_row * n + per_row_squared * n * n


def _lead_count(costs: list[float], ratio: float, least: int) -> int:
    """How many leading items of `costs`, at least `least`, this process
    takes so that the larger of the two processes' estimated times is
    least (the fewest such items): the sum of its items' costs, and `ratio`
    times the sum of the rest's, `ratio` being the helper's seconds per unit
    of cost over this process's."""
    total = sum(costs)
    done = sum(costs[:least])
    best, lead = max(done, ratio * (total - done)), least
    for i in range(least, len(costs)):
        done += costs[i]
        estimate = max(done, ratio * (total - done))
        if estimate < best:
            best, lead = estimate, i + 1
    return lead


class _Steps:
    """Training steps over state in anonymous shared mappings, so that a
    helper forked from this process (`_Helper`) shares it: the model's
    store, the gradient vector, Adam's moments and one gradient slot per
    tail example. A slot holds every tensor but `tok_emb`, which leads the
    store (`encoder.param_shapes`), so the slots cover `grad_flat[rest:]`.
    The gradient vector and the slots are zero between steps: `finish`
    zeroes what it has added and stepped. `dev` holds the dev examples,
    which the helper predicts a part of (`predict`); `costs` and
    `dev_costs` hold each training and dev example's `_example_cost`.

    `ratio` estimates the helper's seconds per unit of `_example_cost` over
    this process's: an exponential average, weighted SPEED_WEIGHT, of what
    each step measured, from 1. It decides who trains an example, never
    what it computes."""

    def __init__(self, mdl: ModelState, examples: Sequence[MrcExample], config: TrainConfig,
                 dev: Sequence[MrcExample] = ()):
        self.mdl, self.examples, self.dev = mdl, examples, dev
        self.ratio = 1.0
        self.costs = [_example_cost(len(ex.input_ids)) for ex in examples]
        self.dev_costs = [_example_cost(len(ex.input_ids)) for ex in dev]
        self.grad_flat, self.grads = mdl.zero_grads(_shared_zeros)
        self.optimizer = Adam(mdl.flat.size, config, _shared_zeros)
        self.rest = self.grads["tok_emb"].size
        shapes = {name: g.shape for name, g in self.grads.items() if name != "tok_emb"}
        self.slots = [model_mod.flat_store(shapes, _shared_zeros)
                      for _ in range(min(config.batch_size, len(examples), MAX_SLOTS + 1) - 1)]

    def step(self, epoch: int, batch: list[int], seeds: list[int],
             helper: "_Helper | None") -> list[float]:
        """One Adam step on the examples of `batch`, given their dropout
        seeds; returns their losses in batch order.

        With a helper, this process trains the batch's leading examples into
        the gradient vector while the helper trains the rest into its slots;
        the seconds each took update `ratio`. This process then adds the
        helper's token-embedding rows in batch order, and each process adds
        the slots into one part of the vector, averages it and steps it.
        """
        lead = len(batch) if helper is None else self.lead_count(batch)
        if helper is not None:
            helper.call("tail", epoch, batch[lead:], seeds[lead:])
        started = time.perf_counter()
        losses = self.run(epoch, batch[:lead], seeds[:lead], [self.grads] * lead)
        if helper is None:
            self.finish(slice(None), 0, len(batch))
            return losses
        lead_seconds = time.perf_counter() - started
        tail_losses, token_rows, tail_seconds = helper.result()
        if len(batch) > lead:
            lead_cost = sum(self.costs[j] for j in batch[:lead])
            tail_cost = sum(self.costs[j] for j in batch[lead:])
            measured = (tail_seconds / tail_cost) / (lead_seconds / lead_cost)
            self.ratio += SPEED_WEIGHT * (measured - self.ratio)
        for pairs in token_rows:
            for ids, rows in pairs:
                self.grads["tok_emb"][ids] += rows
        cut = self.cut(len(tail_losses))
        helper.call("finish", slice(cut, None), len(tail_losses), len(batch))
        self.finish(slice(0, cut), len(tail_losses), len(batch))
        helper.result()
        return losses + tail_losses

    def lead_count(self, batch: list[int]) -> int:
        """How many leading examples of `batch` this process trains: the
        prefix that evens out the two processes' estimated seconds
        (`_lead_count` at `ratio`), of at least one example, and of all but
        MAX_SLOTS at most."""
        return _lead_count([self.costs[j] for j in batch], self.ratio,
                           max(1, len(batch) - len(self.slots)))

    def run(self, epoch: int, indexes: list[int], seeds: list[int], sinks: list) -> list[float]:
        """Each example's loss, in order, after adding its gradients into its
        sink; TrainingError at the first loss that is not finite."""
        examples = [self.examples[j] for j in indexes]
        losses: list[float] = []
        for pack in model_mod.packs(examples):
            done = slice(len(losses), len(losses) + len(pack))
            pack_losses, _ = model_mod.pack_loss_and_grads(
                self.mdl, pack, True, seeds[done], sinks[done])
            for ex, loss in zip(pack, pack_losses):
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, example "
                                        f"{ex.origin[0]}/{ex.origin[1]}")
            losses += pack_losses
        return losses

    def tail(self, epoch: int, indexes: list[int], seeds: list[int]):
        """Trains the examples into the slots, one each; returns (their
        losses, the (ids, rows) pairs of each one's token-embedding
        gradient, the seconds that took)."""
        started = time.perf_counter()
        sinks = [{**views, "tok_emb": []} for _, views in self.slots[: len(indexes)]]
        losses = self.run(epoch, indexes, seeds, sinks)
        return losses, [sink["tok_emb"] for sink in sinks], time.perf_counter() - started

    def predict(self, start: int) -> list:
        """The spans of the dev examples from `start` on, in order."""
        return model_mod.predict_in_process(self.mdl, self.dev[start:])

    def cut(self, n_slots: int) -> int:
        """Where this process's part of the vector ends when `n_slots` slots
        are added: half of `finish`'s cost, counting FINISH_COST per element
        and one per slot added into it."""
        size, rest = self.grad_flat.size, self.rest
        half = (FINISH_COST * size + n_slots * (size - rest)) / 2
        if FINISH_COST * rest >= half:
            return int(half / FINISH_COST)
        return int((half + n_slots * rest) / (FINISH_COST + n_slots))

    def finish(self, part: slice, n_slots: int, batch_size: int) -> None:
        """Adds the first `n_slots` slots, in order, into the gradient
        vector's `part`, zeroing them, divides that part by `batch_size`,
        steps the parameters in it and zeroes it for the next batch, one
        block of the Adam step at a time."""

        def prepare(block: slice) -> None:
            first = min(max(block.start, self.rest), block.stop)  # the first a slot covers
            for flat, _ in self.slots[:n_slots]:
                piece = flat[first - self.rest : block.stop - self.rest]
                self.grad_flat[first : block.stop] += piece
                piece[...] = 0.0
            self.grad_flat[block] /= batch_size

        self.optimizer.step(self.mdl.flat, self.grad_flat, part, prepare)


class _Helper:
    """A process forked from this one that runs `_Steps` methods for it.
    `call` sends a method's name and arguments; `result` waits for what it
    returned, and raises here what it raised there, or a TrainingError
    naming the helper's exit status if it died. The helper exits when the
    pipe closes: after `close`, which also reaps it, or when this process
    dies."""

    def __init__(self, steps: _Steps):
        self.steps = steps
        self._conn, theirs = multiprocessing.Pipe()
        self._pid = os.fork()
        if self._pid == 0:
            status = 1
            try:
                self._conn.close()
                _serve(theirs, steps)
                status = 0
            finally:
                os._exit(status)
        theirs.close()

    def call(self, name: str, *args) -> None:
        try:
            self._conn.send((name, args))
        except OSError:
            raise self._died() from None

    def result(self):
        try:
            reply = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _died(self) -> TrainingError:
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return TrainingError(f"the training helper process exited with status "
                             f"{os.waitstatus_to_exitcode(status)}")

    def close(self) -> None:
        self._conn.close()
        if self._pid is not None:
            os.waitpid(self._pid, 0)
            self._pid = None


def _serve(conn, steps: _Steps) -> None:
    """Runs each call that arrives on `conn` and sends back what it returned
    or raised, until the pipe closes."""
    while True:
        try:
            name, args = conn.recv()
        except EOFError:
            return
        try:
            result = getattr(steps, name)(*args)
        except Exception as exc:  # raised again by the caller
            result = exc
        conn.send(result)


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
                              config.encoder_config(vocab.size), seq_cfg, vocab, config.seed,
                              _shared_zeros)
    steps = _Steps(mdl, train_examples, config, dev_examples)

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
    helper = None

    def eval_dev(epoch: int) -> EvalReport | None:
        if not dev_examples:
            return None
        report = evaluate_model(mdl, dev_examples, dev_gold, helper)
        manifest.dev_f1_curve.append(report.f1)
        log.info("epoch %d dev P/R/F1 = %.4f/%.4f/%.4f",
                 epoch, report.precision, report.recall, report.f1)
        return report

    if config.epochs == 0:
        best_report = eval_dev(0)
        manifest.best_epoch = 0

    try:
        if model_mod.fork_cpus() > 1:
            helper = _Helper(steps)
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(train_examples))
            epoch_loss = 0.0
            for batch_start in range(0, len(order), config.batch_size):
                batch = [int(j) for j in order[batch_start : batch_start + config.batch_size]]
                seeds = [(config.seed * 1_000_003 + epoch * 997 + j) % (2**31) for j in batch]
                for loss in steps.step(epoch, batch, seeds, helper):
                    epoch_loss += loss
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
    finally:
        if helper is not None:
            helper.close()

    # The restored parameters are the best epoch's, bit for bit, so its dev
    # report is what evaluating them again would give.
    mdl.flat[...] = best_snapshot
    if best_report is not None:
        manifest.final_metrics = asdict(best_report)
    manifest.wall_clock_sec = time.monotonic() - started
    return mdl, manifest
