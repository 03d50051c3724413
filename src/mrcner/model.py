"""Full model state (encoder + task head + vocabulary) and its checkpoint file.

The task head is looked up by mode in HEADS: `heads.SpanHeadParams` ("mrc")
or `baseline.BioHeadParams` ("bio-baseline"). Both implement one protocol:
class attributes `mode`, `variant` (None for BIO) and `TENSORS` (tensor names
in checkpoint order); `shapes(model_dim, variant)` and
`init(model_dim, variant, seed)`; `loss_and_grads(h_ctx, example)` returning
(loss, dh_ctx, grads by tensor name); and `decode(h_ctx, example)` returning
entity spans. h_ctx is the encoder output at the example's context rows.

Parameters live in one store: `ModelState.flat` is a single contiguous
float64 vector holding every trainable tensor in checkpoint order (the
encoder's, then the head's as `head.<name>`), and `enc_params` and the head's
tensors are named views into it, laid out by `flat_store`. Gradients use the
same layout: `example_loss_and_grads` and `encoder.backward` add one
example's gradients into the views they are given (embedding gradients only
into the rows the example's ids touch), so training sums a batch in one
vector that it zeroes once per batch. Adam (`train.Adam`) stays dense over
that vector, and a parameter snapshot is one vector copy.

A checkpoint (format v2) is one UTF-8 JSON header line, then the
little-endian float64 bytes of `ModelState.flat`. The header holds the mode,
the head variant, the configs, the vocabulary and `tensors`, the
`[name, shape]` pairs in store order, so `head -n1` shows everything but the
numbers. Loading checks the header against the configs and the blob's length
against the store, then copies the blob into a new store in one step. Files
are byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from . import baseline, encoder, heads
from .encoder import EncoderConfig
from .mrc_data import MrcExample, SeqConfig, Vocab

CHECKPOINT_VERSION = 2

HEADS = {cls.mode: cls for cls in (heads.SpanHeadParams, baseline.BioHeadParams)}
MODE_MRC = heads.SpanHeadParams.mode
MODE_BIO = baseline.BioHeadParams.mode


class ModelError(ValueError):
    """Mode/variant mismatches and malformed checkpoints."""


@dataclass
class ModelState:
    encoder_cfg: EncoderConfig
    seq_cfg: SeqConfig
    vocab: Vocab
    flat: np.ndarray
    enc_params: dict[str, np.ndarray]
    head: heads.SpanHeadParams | baseline.BioHeadParams

    def zero_grads(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed gradient vector laid out like `flat`, with its views keyed
        like param_items."""
        return flat_store({name: arr.shape for name, arr in param_items(self)})


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


def model_shapes(encoder_cfg: EncoderConfig, head_cls, variant: str | None) -> dict[str, tuple]:
    """Every trainable tensor's shape in checkpoint order, head tensors as `head.<name>`."""
    shapes = encoder.param_shapes(encoder_cfg)
    for name, shape in head_cls.shapes(encoder_cfg.model_dim, variant).items():
        shapes[f"head.{name}"] = shape
    return shapes


def _assemble(encoder_cfg, seq_cfg, vocab, head_cls, variant, flat, views) -> ModelState:
    """A model over a filled store; the head takes the `head.*` views."""
    enc_params = dict(views)
    head = head_cls(**{n: enc_params.pop(f"head.{n}") for n in head_cls.TENSORS}, variant=variant)
    return ModelState(encoder_cfg, seq_cfg, vocab, flat, enc_params, head)


def new_model(
    mode: str,
    head_variant: str | None,
    encoder_cfg: EncoderConfig,
    seq_cfg: SeqConfig,
    vocab: Vocab,
    seed: int,
) -> ModelState:
    head_cls = _head_class(mode)
    initial = encoder.init_encoder_params(encoder_cfg, seed)
    head = head_cls.init(encoder_cfg.model_dim, head_variant, seed + 1)
    initial.update((f"head.{n}", getattr(head, n)) for n in head.TENSORS)
    flat, views = flat_store(model_shapes(encoder_cfg, head_cls, head.variant))
    for name, view in views.items():
        view[...] = initial[name]
    return _assemble(encoder_cfg, seq_cfg, vocab, head_cls, head.variant, flat, views)


def param_items(model: ModelState) -> list[tuple[str, np.ndarray]]:
    """All trainable tensors in a fixed, deterministic order."""
    head = [(f"head.{name}", getattr(model.head, name)) for name in model.head.TENSORS]
    return list(model.enc_params.items()) + head


def _context(example: MrcExample) -> slice:
    first, last = example.context_range
    return slice(first, last + 1)


def example_loss_and_grads(
    model: ModelState,
    example: MrcExample,
    train_mode: bool = True,
    dropout_seed: int | None = None,
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + full backward for one example. Its gradients are added into
    `grads` (views keyed like param_items, e.g. from `model.zero_grads()`),
    or into zeroed ones when none are given; returns (loss, grads)."""
    if grads is None:
        grads = model.zero_grads()[1]
    hidden, tape = encoder.forward(
        model.enc_params, model.encoder_cfg, example, train_mode, dropout_seed
    )
    ctx = _context(example)
    loss, dh_ctx, head_grads = model.head.loss_and_grads(hidden[ctx], example)
    grad_h = np.zeros_like(hidden)
    grad_h[ctx] = dh_ctx
    encoder.backward(model.enc_params, model.encoder_cfg, tape, grad_h, grads)
    for name, g in head_grads.items():
        grads[f"head.{name}"] += g
    return loss, grads


def predict_example(model: ModelState, example: MrcExample):
    """Decode one example into entity spans with the model's head."""
    hidden, _ = encoder.forward(model.enc_params, model.encoder_cfg, example, False)
    return model.head.decode(hidden[_context(example)], example)


def save_checkpoint(model: ModelState, path) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.head.mode,
        "head_variant": model.head.variant,
        "encoder_config": asdict(model.encoder_cfg),
        "seq_config": {"seq_len": model.seq_cfg.seq_len, "order": model.seq_cfg.order},
        "vocab": model.vocab.id_to_token,
        "tensors": [[name, list(arr.shape)] for name, arr in param_items(model)],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint, checking its header against the shapes its configs
    and vocabulary imply and its blob against the store's size, then copy
    the blob into a new parameter store."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end].decode("utf-8")) if end >= 0 else None
    except ValueError as exc:
        raise ModelError(f"checkpoint header line is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ModelError("checkpoint does not start with a JSON object header line")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {header.get('format_version')!r}")

    head_cls = _head_class(header["mode"])
    variant = header["head_variant"]
    encoder_cfg = EncoderConfig(**header["encoder_config"])
    seq_cfg = SeqConfig(**header["seq_config"])
    if seq_cfg.seq_len > encoder_cfg.max_positions:
        raise ModelError(f"seq_config.seq_len {seq_cfg.seq_len} exceeds "
                         f"encoder_config.max_positions {encoder_cfg.max_positions}")
    vocab = Vocab(list(header["vocab"]))
    if vocab.size != encoder_cfg.vocab_size:
        raise ModelError(f"checkpoint vocabulary has {vocab.size} tokens but "
                         f"encoder_config.vocab_size is {encoder_cfg.vocab_size}")
    shapes = model_shapes(encoder_cfg, head_cls, variant)
    expected = [[name, list(shape)] for name, shape in shapes.items()]
    stored = header.get("tensors")
    if stored != expected:
        pairs = zip_longest(stored if isinstance(stored, list) else [], expected,
                            fillvalue="no tensor")
        i, (got, want) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise ModelError(f"checkpoint tensors differ from the model's at position {i}: "
                         f"stored {got}, expected {want}")
    flat, views = flat_store(shapes)
    blob = memoryview(data)[end + 1 :]
    if len(blob) != 8 * flat.size:
        raise ModelError(f"checkpoint holds {len(blob)} parameter bytes, "
                         f"the model's {flat.size} float64 values need {8 * flat.size}")
    flat[:] = np.frombuffer(blob, "<f8")
    return _assemble(encoder_cfg, seq_cfg, vocab, head_cls, variant, flat, views)


def copy_params(model: ModelState) -> np.ndarray:
    return model.flat.copy()


def restore_params(model: ModelState, snapshot: np.ndarray) -> None:
    model.flat[...] = snapshot
