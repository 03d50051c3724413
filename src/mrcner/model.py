"""Full model state (encoder + task head + vocabulary) and its checkpoint file.

The task head is looked up by mode in HEADS: `heads.SpanHeadParams` ("mrc")
or `baseline.BioHeadParams` ("bio-baseline"). Both implement one protocol of
five members: class attribute `mode`; field `variant` (None for BIO);
`shapes(model_dim, variant)`, the head's tensor names and shapes in
checkpoint order, which refuses a variant the head does not have;
`loss_and_grads(h_ctx, example)` returning (loss, dh_ctx, grads by tensor
name); and `decode(h_ctx, example)` returning entity spans. h_ctx is the
encoder output at the example's context rows. A head is built from its
tensors as keyword arguments plus `variant`.

Parameters live in one store: `ModelState.flat` is a single contiguous
float64 vector holding every trainable tensor in checkpoint order (the
encoder's, then the head's as `head.<name>`), and `ModelState.params` maps
each name to its view, laid out by `flat_store`; the head is built over its
`head.*` views. `new_model` fills each view with its `encoder.init_tensors`
draw (the encoder's from `seed`, the head's from `seed + 1`), and
`load_checkpoint` reads the blob into `flat`. Gradients
use the same layout, so training sums a batch in one vector that it zeroes
once per batch. Training cuts each batch into `packs` and runs
`pack_loss_and_grads` on each: one `encoder.forward` of the pack, then
`example_loss_and_grads(model, example, h_ctx, grads)` for each example, the
head's step, given h_ctx, the encoder's rows of the example's context, then
one `encoder.backward` of the pack. Each adds every example's gradients into
the views it is given one example at a time, in pack order (embedding
gradients only into the rows the example's ids touch). Adam (`train.Adam`)
stays dense over that vector, and a parameter snapshot is one vector copy.

Prediction shares no state between examples, so `predict_examples` (used by
`predict`) decodes its examples in forked worker processes, one per usable
CPU as long as each has MIN_WORKER_EXAMPLES examples to do; a worker takes
the next chunk of CHUNK_EXAMPLES whenever it finishes one. It runs in this
process instead on a one-CPU machine, where the OS does not report usable
CPUs (no `os.sched_getaffinity` outside Linux), and when the process runs
other threads, which a fork could deadlock. Workers inherit the model and the
examples through the fork and return only spans, reassembled in input order,
so the output is the same at every worker count. Each worker's chunk, and
the whole input when nothing is forked, goes through `predict_in_process`,
which encodes each of its `packs` with one `encoder.forward` call, keeping
each example's context rows and the [SEP] after them, then decodes each
example from its context rows with
`predict_example(model, example, h_ctx)`. Train's dev evaluation calls
`predict_in_process` and never forks: no benchmark workload has a dev split
big enough to fork.

A checkpoint (format v2) is one UTF-8 JSON header line, then the
little-endian float64 bytes of `ModelState.flat`. The header holds the mode,
the head variant, the configs, the vocabulary and `tensors`, the
`[name, shape]` pairs in store order, so `head -n1` shows everything but the
numbers. Loading builds the head class, configs, vocabulary and shapes from
the header (a value they refuse is a ModelError naming its key), checks the
header against them and the blob's length against the store, then reads the
blob from the file into a new store, with no other copy of it in memory.
A ModelError about a file names it. Files are byte-stable for a fixed seed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import baseline, encoder, heads
from .corpus import EntitySpan, dump_json, parse_json
from .encoder import EncoderConfig
from .mrc_data import MrcExample, SeqConfig, Vocab

CHECKPOINT_VERSION = 2

HEADS = {cls.mode: cls for cls in (heads.SpanHeadParams, baseline.BioHeadParams)}
MODE_MRC = heads.SpanHeadParams.mode
MODE_BIO = baseline.BioHeadParams.mode

# Fewest examples per forked predict worker. On a 2-CPU x86-64 host with
# one BLAS thread, creating and joining a 2-worker fork pool cost 19-33 ms
# (median; 43 ms at p90). The cheapest examples here (about 12 real tokens,
# BIO head) take 0.6 ms each: 100 of them ran 0.66x as fast forked, 400 1.43x.
MIN_WORKER_EXAMPLES = 200

# Examples a forked worker takes at a time; it takes the next chunk when it
# finishes one, so a worker on a CPU the host slows down does fewer. On a
# shared 2-vCPU host, with one equal shard per worker, the first worker to
# finish then sat idle for a median 15% (up to 33%) of the call, a share that
# changed from call to call; with chunks of 25 the idle share was 1.4% (up to
# 6%). Chunks of 25 ran as fast as chunks of 50 to 750; chunks of 10 were
# slower.
CHUNK_EXAMPLES = 25

# Most real rows in one pack of examples that predict or training encodes
# together (an example with more makes a pack of its own). On a 2-vCPU x86-64
# host (2 MB L2 per core) with one BLAS thread, predicting train-bio-short's
# 1500 examples of 7-16 rows in process ran at a median 1731 examples/s with
# one example per pack, 2990 with packs of at most 96 rows, 3397 with 128,
# 2916 with 192, 2819 with 256 and 2731 with 384 (seven alternating runs
# each); train-mrc's 600 examples of 31-59 rows ran at 954, 959, 1075, 899,
# 859 and 901. Larger packs' arrays leave the cache. Training packs are cut
# from batches (8 examples by default), so they seldom reach the cap.
PACK_ROWS = 128


class ModelError(ValueError):
    """Mode/variant mismatches and malformed checkpoints."""


@dataclass
class ModelState:
    encoder_cfg: EncoderConfig
    seq_cfg: SeqConfig
    vocab: Vocab
    flat: np.ndarray
    params: dict[str, np.ndarray]  # every tensor's view of `flat`, in store order
    head: heads.SpanHeadParams | baseline.BioHeadParams

    def zero_grads(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed gradient vector laid out like `flat`, with its views keyed
        like `params`."""
        return flat_store({name: arr.shape for name, arr in self.params.items()})


def _head_class(mode: str):
    if mode not in HEADS:
        raise ModelError(f"unknown mode {mode!r}")
    return HEADS[mode]


def flat_store(shapes: dict[str, tuple]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One zeroed contiguous float64 vector holding a tensor per name of
    `shapes`, in that order, and a view of it per name."""
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return flat, views


def _empty_model(encoder_cfg, seq_cfg, vocab, head_cls, variant) -> ModelState:
    """A model over a zeroed store of every tensor in checkpoint order, head
    tensors as `head.<name>`; the head is built over those views. Refuses a
    variant the head does not have."""
    shapes = encoder.param_shapes(encoder_cfg)
    head_shapes = head_cls.shapes(encoder_cfg.model_dim, variant)
    shapes.update((f"head.{name}", shape) for name, shape in head_shapes.items())
    flat, params = flat_store(shapes)
    head = head_cls(**{name: params[f"head.{name}"] for name in head_shapes}, variant=variant)
    return ModelState(encoder_cfg, seq_cfg, vocab, flat, params, head)


def new_model(
    mode: str,
    head_variant: str | None,
    encoder_cfg: EncoderConfig,
    seq_cfg: SeqConfig,
    vocab: Vocab,
    seed: int,
) -> ModelState:
    """A model of `mode` with freshly drawn parameters: the encoder's from
    `seed`, the head's from `seed + 1`. Refuses a variant the head does not
    have (HeadError)."""
    head_cls = _head_class(mode)
    mdl = _empty_model(encoder_cfg, seq_cfg, vocab, head_cls, head_variant)
    enc_shapes = encoder.param_shapes(encoder_cfg)
    head_shapes = head_cls.shapes(encoder_cfg.model_dim, head_variant)
    for prefix, shapes, draw_seed in (("", enc_shapes, seed), ("head.", head_shapes, seed + 1)):
        for name, arr in encoder.init_tensors(np.random.default_rng(draw_seed), shapes).items():
            mdl.params[prefix + name][...] = arr
    return mdl


def packs(examples: Iterable[MrcExample]) -> Iterator[list[MrcExample]]:
    """Consecutive examples in packs, in order: a pack takes examples one at
    a time while it holds at most PACK_ROWS real rows, and an example longer
    than that makes a pack of its own."""
    pack: list[MrcExample] = []
    rows = 0
    for ex in examples:
        n = int(ex.attention_mask.sum())
        if pack and rows + n > PACK_ROWS:
            yield pack
            pack, rows = [], 0
        pack.append(ex)
        rows += n
    if pack:
        yield pack


def pack_loss_and_grads(
    model: ModelState,
    pack: Sequence[MrcExample],
    train_mode: bool = True,
    dropout_seeds: Sequence[int] | None = None,
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """Forward, each example's head step (`example_loss_and_grads`), then
    backward, for a pack of examples that keeps every row; `dropout_seeds`
    holds one seed per example. Each example's gradients are added into
    `grads` (views keyed like `model.params`, e.g. from
    `model.zero_grads()`), or into zeroed ones when none are given, one
    example at a time in pack order, with the bits the example's gradients
    have in a pack of its own. Returns (each example's loss, grads)."""
    if grads is None:
        grads = model.zero_grads()[1]
    hidden, tape = encoder.forward(
        model.params, model.encoder_cfg, pack, None, train_mode, dropout_seeds
    )
    grad_h = np.zeros_like(hidden)
    losses = []
    for ex, rows in zip(pack, tape["rows"]):
        ctx = slice(rows.start + ex.context_range[0], rows.start + ex.context_range[1] + 1)
        loss, grad_h[ctx] = example_loss_and_grads(model, ex, hidden[ctx], grads)
        losses.append(loss)
    encoder.backward(model.params, model.encoder_cfg, tape, grad_h, grads)
    return losses, grads


def example_loss_and_grads(
    model: ModelState, example: MrcExample, h_ctx: np.ndarray, grads: dict[str, np.ndarray]
) -> tuple[float, np.ndarray]:
    """The head's step for one example of a pack, given h_ctx, the encoder's
    rows of its context: adds the head's gradients into `grads` and returns
    (loss, the loss's gradient with respect to h_ctx)."""
    loss, dh_ctx, head_grads = model.head.loss_and_grads(h_ctx, example)
    for name, g in head_grads.items():
        grads[f"head.{name}"] += g
    return loss, dh_ctx


def predict_example(model: ModelState, example: MrcExample, h_ctx: np.ndarray):
    """Decode one example into entity spans with the model's head, given
    h_ctx, the encoder's rows of its context."""
    return model.head.decode(h_ctx, example)


def predict_in_process(model: ModelState, examples: Iterable[MrcExample]) -> list[list[EntitySpan]]:
    """The entity spans of every example, in input order, decoded in this
    process.

    The examples are encoded in `packs`. The encoder's last layer computes
    each example's context rows and the [SEP] after them; that row keeps
    every kept slice at two rows or more, so each context row has the bits
    it has when its example is encoded alone.
    """
    return [spans for pack in packs(examples) for spans in _predict_pack(model, pack)]


def _predict_pack(model: ModelState, pack: list[MrcExample]) -> list[list[EntitySpan]]:
    keep = [slice(ex.context_range[0], ex.context_range[1] + 2) for ex in pack]
    hidden, _ = encoder.forward(model.params, model.encoder_cfg, pack, keep)
    out, first = [], 0
    for ex in pack:
        out.append(predict_example(model, ex, hidden[first : first + ex.n_context]))
        first += ex.n_context + 1  # its context rows, then its [SEP]
    return out


def predict_examples(model: ModelState, examples: Sequence[MrcExample]) -> list[list[EntitySpan]]:
    """The entity spans of every example, in input order.

    As many workers run as there are usable CPUs, but no more than one per
    MIN_WORKER_EXAMPLES examples. One worker runs `predict_in_process` here,
    and so does any count while another thread runs here. More are forked,
    inheriting the model and the sequence (which may build each example when
    it is indexed); each takes contiguous chunks of CHUNK_EXAMPLES, one at a
    time, runs `predict_in_process` on each and sends back only its spans.
    A worker's exception is raised here as itself once the running chunks
    finish; a worker that dies raises `BrokenProcessPool`. No worker
    outlives the call.
    """
    workers = min(len(examples) // MIN_WORKER_EXAMPLES, _usable_cpus())
    if workers <= 1 or threading.active_count() > 1:
        return predict_in_process(model, examples)
    cuts = [*range(0, len(examples), CHUNK_EXAMPLES), len(examples)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_take_work, initargs=(model, examples)) as pool:
        chunks = list(pool.map(_predict_chunk, zip(cuts, cuts[1:])))
    return [spans for chunk in chunks for spans in chunk]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_work: tuple[ModelState, Sequence[MrcExample]] | None = None  # set in forked workers only


def _take_work(model: ModelState, examples: Sequence[MrcExample]) -> None:
    global _work
    _work = (model, examples)


def _predict_chunk(bounds: tuple[int, int]) -> list[list[EntitySpan]]:
    model, examples = _work
    return predict_in_process(model, (examples[i] for i in range(*bounds)))


def save_checkpoint(model: ModelState, path) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.head.mode,
        "head_variant": model.head.variant,
        "encoder_config": asdict(model.encoder_cfg),
        "seq_config": asdict(model.seq_cfg),
        "vocab": model.vocab.id_to_token,
        "tensors": [[name, list(arr.shape)] for name, arr in model.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(dump_json(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.flat.astype("<f8", copy=False))  # no bytes copy of the store


def _from_header(header: dict, key: str, build):
    """`build(header[key])`; a missing key, or a TypeError or ValueError that
    `build` raises on the value, is a ModelError that names the key."""
    if key not in header:
        raise ModelError(f"checkpoint header lacks {key!r}")
    try:
        return build(header[key])
    except (TypeError, ValueError) as exc:
        raise ModelError(f"checkpoint {key}: {exc}") from None


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint, checking its header against the shapes its configs
    and vocabulary imply and its blob against the store's size, then read
    the blob into a new parameter store."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ModelError(f"{path} does not start with a header line")
        mdl = parse_json(f"{path}, header line", line, _empty_model_of_header, ModelError)
        n_bytes = 8 * mdl.flat.size
        blob_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if blob_bytes == n_bytes:
            blob_bytes = fh.readinto(memoryview(mdl.flat).cast("B"))
        if blob_bytes != n_bytes:
            raise ModelError(f"{path} holds {blob_bytes} parameter bytes, "
                             f"the model's {mdl.flat.size} float64 values need {n_bytes}")
    if not np.little_endian:
        mdl.flat.byteswap(inplace=True)  # the blob is little-endian
    return mdl


def _empty_model_of_header(header: dict) -> ModelState:
    """The zeroed model a checkpoint's header object describes, or ModelError."""
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {header.get('format_version')!r}")

    head_cls = _from_header(header, "mode", _head_class)
    encoder_cfg = _from_header(header, "encoder_config", lambda fields: EncoderConfig(**fields))
    seq_cfg = _from_header(header, "seq_config", lambda fields: SeqConfig(**fields))
    if seq_cfg.seq_len > encoder_cfg.max_positions:
        raise ModelError(f"seq_config.seq_len {seq_cfg.seq_len} exceeds "
                         f"encoder_config.max_positions {encoder_cfg.max_positions}")
    vocab = _from_header(header, "vocab", Vocab)
    if vocab.size != encoder_cfg.vocab_size:
        raise ModelError(f"checkpoint vocabulary has {vocab.size} tokens but "
                         f"encoder_config.vocab_size is {encoder_cfg.vocab_size}")
    mdl = _from_header(header, "head_variant",
                       lambda variant: _empty_model(encoder_cfg, seq_cfg, vocab, head_cls, variant))
    expected = [[name, list(arr.shape)] for name, arr in mdl.params.items()]
    stored = header.get("tensors")
    if stored != expected:
        pairs = zip_longest(stored if isinstance(stored, list) else [], expected,
                            fillvalue="no tensor")
        i, (got, want) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise ModelError(f"checkpoint tensors differ from the model's at position {i}: "
                         f"stored {got}, expected {want}")
    return mdl


def copy_params(model: ModelState) -> np.ndarray:
    return model.flat.copy()
