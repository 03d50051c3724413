"""A small trainable transformer encoder in plain numpy, float64 throughout.

forward() encodes a pack: a sequence of examples whose rows are stacked
into one matrix, so every row-wise step runs once per pack,
while attention runs per example. It returns the rows the caller keeps of
each example (all of them by default) plus an activation tape. backward()
takes the tape of a pack that kept every row, and an upstream gradient of
those rows, and adds exact reverse-mode gradients for every parameter into
each example's gradient sink, one example at a time, each with the bits it
has when its example is a pack of its own. The tape keeps each
feed-forward's GELU input and its normal cdf, so backward computes GELU's
derivative without a second `erf`.
Blocks are pre-norm (attention, then GELU feed-forward), with a final layer norm.

Token, position, and segment embeddings are summed at the input. An example
holds only its real rows, no padding, so no attention mask is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

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
        for name in ("vocab_size", "layers", "model_dim", "heads", "ffn_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise EncoderError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.model_dim % self.heads != 0:
            raise EncoderError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )
        if not (0.0 <= self.dropout < 1.0):
            raise EncoderError(f"dropout must be in [0, 1), got {self.dropout!r}")

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


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (x * cdf, cdf), cdf being the standard normal cdf of x.

    Halving is exact, so x * cdf equals 0.5 * x * (1 + erf(x / sqrt 2)) bit
    for bit. The cdf is built in one buffer, with the operations of
    0.5 * (1 + erf(x / sqrt 2)) in that order."""
    cdf = np.divide(x, _SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx at x, given gelu's cdf of x."""
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Row-wise layer norm; returns (y, xhat, istd) for the backward pass.

    Row means are sum / width, which is what ndarray.mean computes."""
    d = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / d
    var = np.square(xc).sum(axis=1, keepdims=True) / d
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * istd
    return gain * xhat + bias, xhat, istd


def layer_norm_backward(dy, xhat, istd, gain, rows):
    """Returns (dx, dgain, dbias): dx over every row, and a gain and a bias
    gradient per slice of `rows`, summed over that slice's rows alone."""
    dy_xhat = dy * xhat
    dgain = [dy_xhat[r].sum(axis=0) for r in rows]
    dbias = [dy[r].sum(axis=0) for r in rows]
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = istd * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """The softmax of x along `axis`, written into `out` (which may be x
    itself), or into a new array when it is None."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def softmax_backward(dp: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    return p * (dp - (dp * p).sum(axis=axis, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, hd = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * hd)


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """The parts' rows stacked; a single part is returned itself, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _row_slices(lengths: list[int]) -> list[slice]:
    """Each length's rows in an array that stacks them in order."""
    return [slice(end - n, end) for n, end in zip(lengths, accumulate(lengths))]


def forward(
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    examples,
    keep=None,
    train_mode: bool = False,
    dropout_seeds=None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Run the encoder on a pack of examples; returns (H, tape).

    `keep` holds one slice per example, the real rows of it the caller
    reads; None keeps every real row. H stacks the kept rows of each
    example, in pack order, as (kept rows, model_dim).

    The embeddings, layer norms, projections, GELU, residual adds and
    finiteness checks run once over the pack's stacked rows; attention runs
    per example, so no example sees another's rows. The last layer computes
    only the kept rows: every row still supplies keys and values, but only
    kept rows are queried and carried on. Each output row has the bits it
    would have in a pack of its example alone, as long as every kept slice
    holds at least two rows (numpy sends a one-row matmul to gemv, which
    may round differently).

    Dropout fires only in train_mode. `dropout_seeds` holds one seed per
    example: each example draws its masks from its own generator, in the
    order they apply (embeddings, then each layer's attention and
    feed-forward outputs), so its masks do not depend on its pack. The masks
    are recorded on the tape so backward matches exactly. Every tape holds
    "n", the pack's real rows; the tape of a pack that keeps every row also
    holds "rows", each example's slice of the stacked rows, and everything
    backward needs.
    """
    if not examples:
        raise EncoderError("a pack needs at least one example")
    lengths = [len(ex.input_ids) for ex in examples]
    if min(lengths) == 0:
        raise EncoderError("an example has no rows")
    if max(lengths) > cfg.max_positions:
        raise EncoderError(f"sequence length {max(lengths)} exceeds max_positions {cfg.max_positions}")
    ids = _stack([np.asarray(ex.input_ids) for ex in examples])
    segs = _stack([np.asarray(ex.segment_ids) for ex in examples])
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise EncoderError(f"token id out of range for vocab size {cfg.vocab_size}")
    rows = _row_slices(lengths)  # each example's rows in the stack
    kept_rows = None  # the stack's kept rows, when only some are kept
    if keep is not None:
        if len(keep) != len(examples):
            raise EncoderError(f"{len(keep)} kept row slices for {len(examples)} examples")
        for k, n in zip(keep, lengths):
            if not (type(k.start) is int and k.step is None and 0 <= k.start < k.stop <= n):
                raise EncoderError(f"kept rows {k} are not a non-empty slice of {n} real rows")
        kept_rows = np.concatenate([np.arange(r.start + k.start, r.start + k.stop)
                                    for r, k in zip(rows, keep)])
        kept_slices = _row_slices([k.stop - k.start for k in keep])  # in the kept rows

    use_dropout = train_mode and cfg.dropout > 0.0
    masks = iter(_dropout_masks(cfg, lengths, dropout_seeds) if use_dropout else ())

    tape: dict[str, Any] = {"n": ids.shape[0]}
    for_backward = keep is None
    if for_backward:
        tape.update(rows=rows, ids=ids, segs=segs, layers=[], dropout=use_dropout)

    positions = _stack([params["pos_emb"][:n] for n in lengths])
    x = params["tok_emb"][ids] + params["emb_bias"] + positions + params["seg_emb"][segs]
    if use_dropout:
        tape["emb_drop"] = next(masks)
        x = x * tape["emb_drop"]

    scale = 1.0 / math.sqrt(cfg.head_dim)
    for l in range(cfg.layers):
        pre = f"layer{l}."
        rec: dict[str, Any] = {"attention": []}
        # Every row is queried and carried on, except in the last layer when
        # only some rows are kept.
        last = l == cfg.layers - 1 and kept_rows is not None
        queried = kept_slices if last else rows

        a, rec["xhat1"], rec["istd1"] = layer_norm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        rec["a"] = a
        k = a @ params[pre + "wk"] + params[pre + "bk"]
        v = a @ params[pre + "wv"] + params[pre + "bv"]
        if last:
            x, a = x[kept_rows], a[kept_rows]
        q = a @ params[pre + "wq"] + params[pre + "bq"]
        parts = []
        for qr, r in zip(queried, rows):
            qh = _split_heads(q[qr], cfg.heads)
            kh = _split_heads(k[r], cfg.heads)
            vh = _split_heads(v[r], cfg.heads)
            scores = qh @ kh.transpose(0, 2, 1)
            scores *= scale
            probs = softmax(scores, axis=-1, out=scores)
            if for_backward:  # each example keeps its own attention arrays
                rec["attention"].append((qh, kh, vh, probs))
            parts.append(_merge_heads(probs @ vh))
        rec["ctx"] = ctx = _stack(parts)
        o = ctx @ params[pre + "wo"] + params[pre + "bo"]
        if use_dropout:
            rec["attn_drop"] = _kept(next(masks), kept_rows if last else None)
            o = o * rec["attn_drop"]
        x = x + o

        b, rec["xhat2"], rec["istd2"] = layer_norm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        rec["b"] = b
        f1 = b @ params[pre + "ffn_w1"] + params[pre + "ffn_b1"]
        rec["f1"] = f1
        g, rec["cdf"] = gelu(f1)
        rec["g"] = g
        f2 = g @ params[pre + "ffn_w2"] + params[pre + "ffn_b2"]
        if use_dropout:
            rec["ffn_drop"] = _kept(next(masks), kept_rows if last else None)
            f2 = f2 * rec["ffn_drop"]
        x = x + f2

        if not np.isfinite(x).all():
            raise EncoderError(f"non-finite activation after layer {l}")
        if for_backward:
            tape["layers"].append(rec)

    h, xhatf, istdf = layer_norm(x, params["final_ln_g"], params["final_ln_b"])
    if not np.isfinite(h).all():
        raise EncoderError("non-finite activation after final layer norm")
    if for_backward:
        tape.update(xhatf=xhatf, istdf=istdf)
    return h, tape


def _dropout_masks(cfg: EncoderConfig, lengths: list[int], seeds) -> list[np.ndarray]:
    """The pack's dropout masks in the order forward applies them, each
    stacking every example's rows. Each example draws its own from
    `default_rng(seed)`; no seeds draw every example's from fresh entropy."""
    if seeds is None:
        seeds = [None] * len(lengths)
    if len(seeds) != len(lengths):
        raise EncoderError(f"{len(seeds)} dropout seeds for {len(lengths)} examples")
    keep_p = 1.0 - cfg.dropout
    per_example = []
    for n, seed in zip(lengths, seeds):
        rng = np.random.default_rng(seed)
        per_example.append([(rng.random((n, cfg.model_dim)) < keep_p).astype(np.float64) / keep_p
                            for _ in range(1 + 2 * cfg.layers)])
    return [_stack(list(use)) for use in zip(*per_example)]


def _kept(mask: np.ndarray, kept_rows) -> np.ndarray:
    return mask if kept_rows is None else mask[kept_rows]


def backward(
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    tape: dict[str, Any],
    grad_h: np.ndarray,
    grads: dict[str, np.ndarray] | Sequence[dict],
) -> dict[str, np.ndarray] | Sequence[dict]:
    """Exact gradients of a scalar loss with upstream gradient grad_h (with
    respect to the (n_real, model_dim) H of forward) for every parameter,
    added into each example's gradient sink; `grads` is returned. The tape
    is that of a pack that keeps every row, and the loss is the sum of its
    examples' losses.

    A sink is a dict of arrays keyed and shaped like `params`, such as
    `ModelState.zero_grads()`'s views, except that its "tok_emb" may be a
    list: the example's token-embedding gradient is then appended to it as
    (ids, rows), the ids it touches and their summed rows, for someone to
    add with `grad[ids] += rows`. `grads` is one sink that every example
    adds into, or a sequence of one sink per example.

    Layer-norm input gradients, GELU's derivative, residual adds and dropout
    run once over the pack's stacked rows. Everything else runs per example,
    in pack order: each parameter gradient, attention, and every product
    with a transposed weight (`d @ W.T`), whose rows BLAS may round
    differently when it gets more rows at once. So each array receives one
    addition per example, with the bits that example's gradient has alone,
    and accumulating a batch into one buffer sums examples in the same
    order as summing per-example gradients would. Embedding gradients touch
    only the rows of the ids seen: repeated ids are first summed within the
    example, then added to their rows.
    """
    if "layers" not in tape:
        raise EncoderError("backward takes the tape of a pack that keeps every row")
    n, rows = tape["n"], tape["rows"]
    if grad_h.shape != (n, cfg.model_dim):
        raise EncoderError(f"grad shape {grad_h.shape} != H shape {(n, cfg.model_dim)}")
    sinks = [grads] * len(rows) if isinstance(grads, dict) else grads
    if len(sinks) != len(rows):
        raise EncoderError(f"{len(sinks)} gradient sinks for {len(rows)} examples")

    def add_each(name: str, per_example) -> None:
        for sink, g in zip(sinks, per_example):
            sink[name] += g

    def layer_norm_grads(pre: str, dy, xhat, istd) -> np.ndarray:
        dx, dgain, dbias = layer_norm_backward(dy, xhat, istd, params[pre + "g"], rows)
        add_each(pre + "g", dgain)
        add_each(pre + "b", dbias)
        return dx

    def affine_grads(pre: str, w: str, inp, d) -> np.ndarray:
        """Adds the gradients of `inp @ W + b` given its output gradient d,
        and returns d @ W.T, all per example."""
        add_each(pre + w, (inp[r].T @ d[r] for r in rows))
        add_each(pre + w.replace("w", "b"), (d[r].sum(axis=0) for r in rows))
        weight_t = params[pre + w].T
        return _stack([d[r] @ weight_t for r in rows])

    dx = layer_norm_grads("final_ln_", grad_h, tape["xhatf"], tape["istdf"])

    scale = 1.0 / math.sqrt(cfg.head_dim)
    for l in reversed(range(cfg.layers)):
        pre = f"layer{l}."
        rec = tape["layers"][l]

        # residual: x_out = x_mid + dropout(ffn(ln2(x_mid)))
        df2 = dx * rec["ffn_drop"] if tape["dropout"] else dx
        dg = affine_grads(pre, "ffn_w2", rec["g"], df2)
        df1 = dg * gelu_grad(rec["f1"], rec["cdf"])
        db = affine_grads(pre, "ffn_w1", rec["b"], df1)
        dx = dx + layer_norm_grads(pre + "ln2_", db, rec["xhat2"], rec["istd2"])

        # residual: x_mid = x_in + dropout(attn(ln1(x_in)))
        do = dx * rec["attn_drop"] if tape["dropout"] else dx
        dctx = affine_grads(pre, "wo", rec["ctx"], do)
        per_example = []
        for r, (q, k, v, probs) in zip(rows, rec["attention"]):
            dctx_h = _split_heads(dctx[r], cfg.heads)
            dprobs = dctx_h @ v.transpose(0, 2, 1)
            dv = probs.transpose(0, 2, 1) @ dctx_h
            dscores = softmax_backward(dprobs, probs, axis=-1)
            dq = dscores @ k * scale
            dk = dscores.transpose(0, 2, 1) @ q * scale
            per_example.append([_merge_heads(dmat) for dmat in (dq, dk, dv)])
        da = np.zeros_like(dx)
        for name, d in zip(("wq", "wk", "wv"), zip(*per_example)):
            da += affine_grads(pre, name, rec["a"], _stack(list(d)))
        dx = dx + layer_norm_grads(pre + "ln1_", da, rec["xhat1"], rec["istd1"])

    if tape["dropout"]:
        dx = dx * tape["emb_drop"]
    for r, sink in zip(rows, sinks):
        d_emb = dx[r]
        sink["emb_bias"] += d_emb.sum(axis=0)
        sink["pos_emb"][: r.stop - r.start] += d_emb
        _add_rows(sink["tok_emb"], tape["ids"][r], d_emb)
        _add_rows(sink["seg_emb"], tape["segs"][r], d_emb)
    return grads


def _add_rows(grad, ids: np.ndarray, dx: np.ndarray) -> None:
    """grad[i] += the sum of the rows of dx whose id is i, for each id seen;
    into a list, appends (the ids seen, their sums) instead.

    Summing per id first makes a repeated id add (a + b) to its row, as a
    per-example gradient summed into a batch would, not (row + a) + b."""
    unique, inverse = np.unique(ids, return_inverse=True)
    per_id = np.zeros((unique.size, dx.shape[1]))
    np.add.at(per_id, inverse, dx)
    if isinstance(grad, list):
        grad.append((unique, per_id))
    else:
        grad[unique] += per_id
