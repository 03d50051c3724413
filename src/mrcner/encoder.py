"""A small trainable transformer encoder in plain numpy, float64 throughout.

forward() returns the hidden rows of one example's real (unpadded) tokens
plus an activation tape; backward() takes the tape and an upstream gradient
of those rows and adds exact reverse-mode gradients for every parameter into
the gradient arrays it is given (or into zeroed ones).
Blocks are pre-norm (attention, then GELU feed-forward), with a final layer norm.

Token, position, and segment embeddings are summed at the input; padding is
handled by running the real (unpadded) prefix only, which is equivalent to
key-masking suffix pads and keeps pad content out of every context row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import erf

LN_EPS = 1e-12
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class EncoderError(ValueError):
    """Bad input ids, non-finite activations, or shape mismatches."""


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ffn_dim: int = 256
    max_positions: int = 128
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise EncoderError("need at least one layer")
        if self.model_dim % self.heads != 0:
            raise EncoderError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )
        if not (0.0 <= self.dropout < 1.0):
            raise EncoderError("dropout must be in [0, 1)")
        if self.vocab_size < 1:
            raise EncoderError("vocab_size must be positive")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_tensors(rng: np.random.Generator, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """BERT-style init in the order of `shapes`: truncated normal (std 0.02)
    matrices, unit layer-norm gains (names ending in `_g`), zero biases."""
    out: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            out[name] = truncated_normal(rng, shape)
        else:
            out[name] = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
    return out


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple]:
    """Every encoder tensor's shape, in checkpoint order."""
    d, f = cfg.model_dim, cfg.ffn_dim
    shapes = {"tok_emb": (cfg.vocab_size, d), "emb_bias": (d,),
              "pos_emb": (cfg.max_positions, d), "seg_emb": (2, d)}
    for l in range(cfg.layers):
        pre = f"layer{l}."
        for name in ("q", "k", "v", "o"):
            shapes[pre + "w" + name] = (d, d)
            shapes[pre + "b" + name] = (d,)
        shapes.update({pre + "ln1_g": (d,), pre + "ln1_b": (d,), pre + "ffn_w1": (d, f),
                       pre + "ffn_b1": (f,), pre + "ffn_w2": (f, d), pre + "ffn_b2": (d,),
                       pre + "ln2_g": (d,), pre + "ln2_b": (d,)})
    shapes.update(final_ln_g=(d,), final_ln_b=(d,))
    return shapes


def init_encoder_params(cfg: EncoderConfig, seed: int) -> dict[str, np.ndarray]:
    return init_tensors(np.random.default_rng(seed), param_shapes(cfg))


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Row-wise layer norm; returns (y, xhat, istd) for the backward pass."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * istd
    return gain * xhat + bias, xhat, istd


def layer_norm_backward(dy, xhat, istd, gain):
    """Returns (dx, dgain, dbias)."""
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = istd * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dp: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    return p * (dp - (dp * p).sum(axis=axis, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, hd = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * hd)


def _real_length(mask: np.ndarray) -> int:
    n = int(mask.sum())
    if n == 0:
        raise EncoderError("example has no unmasked positions")
    if mask[:n].min() != 1:
        raise EncoderError("attention mask must be contiguous (suffix padding only)")
    return n


def forward(
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    example,
    train_mode: bool = False,
    dropout_seed: int | None = None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Run the encoder on one example; returns (H, tape), H being the
    (n_real, model_dim) rows of the unpadded tokens.

    Dropout fires only in train_mode, driven by dropout_seed; the drawn
    masks are recorded on the tape so backward matches exactly.
    """
    mask = np.asarray(example.attention_mask)
    n = _real_length(mask)
    ids = np.asarray(example.input_ids)[:n]
    segs = np.asarray(example.segment_ids)[:n]
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise EncoderError(f"token id out of range for vocab size {cfg.vocab_size}")
    if n > cfg.max_positions:
        raise EncoderError(f"sequence length {n} exceeds max_positions {cfg.max_positions}")

    use_dropout = train_mode and cfg.dropout > 0.0
    rng = np.random.default_rng(dropout_seed) if use_dropout else None
    keep = 1.0 - cfg.dropout

    def dropout_mask(shape):
        return (rng.random(shape) < keep).astype(np.float64) / keep

    tape: dict[str, Any] = {"ids": ids, "segs": segs, "n": n, "layers": [], "dropout": use_dropout}

    x = params["tok_emb"][ids] + params["emb_bias"] + params["pos_emb"][:n] + params["seg_emb"][segs]
    if use_dropout:
        tape["emb_drop"] = dropout_mask(x.shape)
        x = x * tape["emb_drop"]
    tape["x0"] = x

    scale = 1.0 / math.sqrt(cfg.head_dim)
    for l in range(cfg.layers):
        pre = f"layer{l}."
        rec: dict[str, Any] = {"x_in": x}

        a, rec["xhat1"], rec["istd1"] = layer_norm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        rec["a"] = a
        q = _split_heads(a @ params[pre + "wq"] + params[pre + "bq"], cfg.heads)
        k = _split_heads(a @ params[pre + "wk"] + params[pre + "bk"], cfg.heads)
        v = _split_heads(a @ params[pre + "wv"] + params[pre + "bv"], cfg.heads)
        rec["q"], rec["k"], rec["v"] = q, k, v
        probs = softmax(q @ k.transpose(0, 2, 1) * scale, axis=-1)
        rec["probs"] = probs
        ctx = _merge_heads(probs @ v)
        rec["ctx"] = ctx
        o = ctx @ params[pre + "wo"] + params[pre + "bo"]
        if use_dropout:
            rec["attn_drop"] = dropout_mask(o.shape)
            o = o * rec["attn_drop"]
        x = x + o

        rec["x_mid"] = x
        b, rec["xhat2"], rec["istd2"] = layer_norm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        rec["b"] = b
        f1 = b @ params[pre + "ffn_w1"] + params[pre + "ffn_b1"]
        rec["f1"] = f1
        g = gelu(f1)
        rec["g"] = g
        f2 = g @ params[pre + "ffn_w2"] + params[pre + "ffn_b2"]
        if use_dropout:
            rec["ffn_drop"] = dropout_mask(f2.shape)
            f2 = f2 * rec["ffn_drop"]
        x = x + f2

        if not np.isfinite(x).all():
            raise EncoderError(f"non-finite activation after layer {l}")
        tape["layers"].append(rec)

    tape["x_final"] = x
    h, tape["xhatf"], tape["istdf"] = layer_norm(x, params["final_ln_g"], params["final_ln_b"])
    if not np.isfinite(h).all():
        raise EncoderError("non-finite activation after final layer norm")
    return h, tape


def backward(
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    tape: dict[str, Any],
    grad_h: np.ndarray,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss with upstream gradient grad_h (with
    respect to the (n_real, model_dim) H of forward) for every parameter,
    added into `grads` (zeroed arrays shaped like `params` when None), which
    is returned.

    Each array receives one addition per call, so accumulating a batch into
    one buffer sums examples in the same order as summing per-example
    gradients would. Embedding gradients touch only the rows of the ids seen:
    repeated ids are first summed within the example, then added to their rows.
    """
    n = tape["n"]
    if grad_h.shape != (n, cfg.model_dim):
        raise EncoderError(f"grad shape {grad_h.shape} != H shape {(n, cfg.model_dim)}")
    if grads is None:
        grads = {name: np.zeros_like(arr) for name, arr in params.items()}

    dx, dgain, dbias = layer_norm_backward(
        grad_h, tape["xhatf"], tape["istdf"], params["final_ln_g"]
    )
    grads["final_ln_g"] += dgain
    grads["final_ln_b"] += dbias

    scale = 1.0 / math.sqrt(cfg.head_dim)
    for l in reversed(range(cfg.layers)):
        pre = f"layer{l}."
        rec = tape["layers"][l]

        # residual: x_out = x_mid + dropout(ffn(ln2(x_mid)))
        df2 = dx * rec["ffn_drop"] if tape["dropout"] else dx
        dg = df2 @ params[pre + "ffn_w2"].T
        grads[pre + "ffn_w2"] += rec["g"].T @ df2
        grads[pre + "ffn_b2"] += df2.sum(axis=0)
        df1 = dg * gelu_grad(rec["f1"])
        db = df1 @ params[pre + "ffn_w1"].T
        grads[pre + "ffn_w1"] += rec["b"].T @ df1
        grads[pre + "ffn_b1"] += df1.sum(axis=0)
        dx_mid, dgain, dbias = layer_norm_backward(
            db, rec["xhat2"], rec["istd2"], params[pre + "ln2_g"]
        )
        grads[pre + "ln2_g"] += dgain
        grads[pre + "ln2_b"] += dbias
        dx = dx + dx_mid

        # residual: x_mid = x_in + dropout(attn(ln1(x_in)))
        do = dx * rec["attn_drop"] if tape["dropout"] else dx
        dctx = do @ params[pre + "wo"].T
        grads[pre + "wo"] += rec["ctx"].T @ do
        grads[pre + "bo"] += do.sum(axis=0)
        dctx_h = _split_heads(dctx, cfg.heads)
        dprobs = dctx_h @ rec["v"].transpose(0, 2, 1)
        dv = rec["probs"].transpose(0, 2, 1) @ dctx_h
        dscores = softmax_backward(dprobs, rec["probs"], axis=-1)
        dq = dscores @ rec["k"] * scale
        dk = dscores.transpose(0, 2, 1) @ rec["q"] * scale
        da = np.zeros_like(rec["a"])
        for name, dmat in (("wq", dq), ("wk", dk), ("wv", dv)):
            flat = _merge_heads(dmat)
            grads[pre + name] += rec["a"].T @ flat
            grads[pre + name.replace("w", "b")] += flat.sum(axis=0)
            da += flat @ params[pre + name].T
        dx_in, dgain, dbias = layer_norm_backward(
            da, rec["xhat1"], rec["istd1"], params[pre + "ln1_g"]
        )
        grads[pre + "ln1_g"] += dgain
        grads[pre + "ln1_b"] += dbias
        dx = dx + dx_in

    if tape["dropout"]:
        dx = dx * tape["emb_drop"]
    grads["emb_bias"] += dx.sum(axis=0)
    grads["pos_emb"][:n] += dx
    _add_rows(grads["tok_emb"], tape["ids"], dx)
    _add_rows(grads["seg_emb"], tape["segs"], dx)
    return grads


def _add_rows(grad: np.ndarray, ids: np.ndarray, dx: np.ndarray) -> None:
    """grad[i] += the sum of the rows of dx whose id is i, for each id seen.

    Summing per id first makes a repeated id add (a + b) to its row, as a
    per-example gradient summed into a batch would, not (row + a) + b."""
    unique, inverse = np.unique(ids, return_inverse=True)
    per_id = np.zeros((unique.size, dx.shape[1]))
    np.add.at(per_id, inverse, dx)
    grad[unique] += per_id
