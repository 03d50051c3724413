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

Checkpoints are a single JSON document holding the configs and every tensor
as a flat float list, so they are human-inspectable and byte-stable for a
fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import baseline, encoder, heads
from .encoder import EncoderConfig
from .mrc_data import MrcExample, SeqConfig, Vocab

CHECKPOINT_VERSION = 1

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
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.head.mode,
        "head_variant": model.head.variant,
        "encoder_config": asdict(model.encoder_cfg),
        "seq_config": {"seq_len": model.seq_cfg.seq_len, "order": model.seq_cfg.order},
        "vocab": model.vocab.id_to_token,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in param_items(model)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, ensure_ascii=False, separators=(",", ":")))
        fh.write("\n")


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint, checking its tensors against the shapes its configs
    and vocabulary imply, straight into a new parameter store."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {doc.get('format_version')!r}")

    head_cls = _head_class(doc["mode"])
    variant = doc["head_variant"]
    encoder_cfg = EncoderConfig(**doc["encoder_config"])
    seq_cfg = SeqConfig(**doc["seq_config"])
    if seq_cfg.seq_len > encoder_cfg.max_positions:
        raise ModelError(f"seq_config.seq_len {seq_cfg.seq_len} exceeds "
                         f"encoder_config.max_positions {encoder_cfg.max_positions}")
    vocab = Vocab(list(doc["vocab"]))
    if vocab.size != encoder_cfg.vocab_size:
        raise ModelError(f"checkpoint vocabulary has {vocab.size} tokens but "
                         f"encoder_config.vocab_size is {encoder_cfg.vocab_size}")
    shapes = model_shapes(encoder_cfg, head_cls, variant)
    if set(doc["params"]) != set(shapes):
        raise ModelError(
            f"checkpoint tensors differ from the model's: missing "
            f"{sorted(set(shapes) - set(doc['params']))}, unexpected "
            f"{sorted(set(doc['params']) - set(shapes))}"
        )
    flat, views = flat_store(shapes)
    for name, view in views.items():
        entry = doc["params"][name]
        data = entry["data"]
        if not isinstance(data, list):
            raise ModelError(f"checkpoint tensor {name} holds no list of values")
        if tuple(entry["shape"]) != view.shape or len(data) != view.size:
            raise ModelError(
                f"checkpoint tensor {name} has shape {tuple(entry['shape'])} and "
                f"{len(data)} values, expected shape {view.shape}"
            )
        view.reshape(-1)[:] = data
    return _assemble(encoder_cfg, seq_cfg, vocab, head_cls, variant, flat, views)


def copy_params(model: ModelState) -> np.ndarray:
    return model.flat.copy()


def restore_params(model: ModelState, snapshot: np.ndarray) -> None:
    model.flat[...] = snapshot
