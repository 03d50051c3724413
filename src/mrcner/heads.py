"""Start/end span heads and the two-part cross-entropy loss.

Each context token gets two binary classifications: "is a start index" and
"is an end index". The end head comes in two variants: the conditioned one
consumes the softmaxed start logits alongside the hidden row, the ablation
one sees the hidden row alone. Total loss is the mean of the two per-head
token-averaged cross-entropies.

SpanHeadParams implements the head protocol of `model.py` (mode "mrc").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EntitySpan
from .decode import SpanLogits, decode_example
from .encoder import softmax, softmax_backward

CONDITIONED = "conditioned"
ABLATION = "ablation"


class HeadError(ValueError):
    """Variant/shape mismatches or a loss over zero rows."""


@dataclass
class SpanHeadParams:
    w_start: np.ndarray  # (d, 2)
    b_start: np.ndarray  # (2,)
    w_end: np.ndarray    # (d+2, 2) conditioned, (d, 2) ablation
    b_end: np.ndarray    # (2,)
    variant: str

    mode = "mrc"
    default_variant = CONDITIONED

    @staticmethod
    def shapes(model_dim: int, variant: str | None) -> dict[str, tuple[int, ...]]:
        if variant not in (CONDITIONED, ABLATION):
            raise HeadError(f"unknown head variant {variant!r}")
        end_dim = model_dim + 2 if variant == CONDITIONED else model_dim
        return {"w_start": (model_dim, 2), "b_start": (2,), "w_end": (end_dim, 2), "b_end": (2,)}

    def loss_and_grads(self, h_ctx: np.ndarray, example) -> tuple[float, np.ndarray, dict]:
        report, _, dh_ctx, grads = span_head_grads(h_ctx, self, example.y_start, example.y_end)
        return report.loss, dh_ctx, grads

    def decode(self, h_ctx: np.ndarray, example) -> list[EntitySpan]:
        l_start = start_logits(h_ctx, self)
        return decode_example(example, SpanLogits(l_start, end_logits(h_ctx, self, l_start)))


@dataclass
class LossReport:
    loss_start: float
    loss_end: float
    loss: float


def start_logits(h_ctx: np.ndarray, params: SpanHeadParams) -> np.ndarray:
    """Affine map of each context row to (not-start, start) logits."""
    return h_ctx @ params.w_start + params.b_start


def end_features(
    h_ctx: np.ndarray, params: SpanHeadParams, l_start: np.ndarray | None
) -> np.ndarray:
    """The end head's input rows: the conditioned variant appends
    softmax(l_start) to each hidden row, the ablation variant takes h_ctx."""
    if params.variant != CONDITIONED:
        return h_ctx
    if l_start is None:
        raise HeadError("conditioned end head requires start logits")
    return np.concatenate([h_ctx, softmax(l_start, axis=1)], axis=1)


def end_logits(
    h_ctx: np.ndarray, params: SpanHeadParams, l_start: np.ndarray | None = None
) -> np.ndarray:
    """Affine map of each end-feature row to (not-end, end) logits."""
    return end_features(h_ctx, params, l_start) @ params.w_end + params.b_end


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Row-mean cross-entropy and its gradient w.r.t. the logits.

    The gradient is (softmax - onehot) / row count.
    """
    n = logits.shape[0]
    if n == 0:
        raise HeadError("cross entropy over zero rows")
    z = logits - logits.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    row_sums = exp_z.sum(axis=1, keepdims=True)
    neg_log_prob = np.log(row_sums) - z
    loss = float(neg_log_prob[np.arange(n), targets].sum() / n)
    dlogits = exp_z / row_sums  # softmax(logits), from the same exponentials
    dlogits[np.arange(n), targets] -= 1.0
    return loss, dlogits / n


def span_loss(
    l_start: np.ndarray,
    l_end: np.ndarray,
    y_start: np.ndarray,
    y_end: np.ndarray,
) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """Two-part loss (start CE + end CE, halved) with gradients of the
    combined loss w.r.t. both logit matrices."""
    loss_s, dls = cross_entropy(l_start, np.asarray(y_start))
    loss_e, dle = cross_entropy(l_end, np.asarray(y_end))
    report = LossReport(loss_s, loss_e, (loss_s + loss_e) / 2.0)
    return report, dls / 2.0, dle / 2.0


def span_head_grads(
    h_ctx: np.ndarray,
    params: SpanHeadParams,
    y_start: np.ndarray,
    y_end: np.ndarray,
) -> tuple[LossReport, SpanLogits, np.ndarray, dict[str, np.ndarray]]:
    """Full head forward/backward for one example.

    Returns (loss report, logits, d loss/d h_ctx, head parameter grads).
    With the conditioned variant the start logits receive gradient both
    from their own cross-entropy and through the end head's conditioning.
    """
    l_start = start_logits(h_ctx, params)
    feats = end_features(h_ctx, params, l_start)
    l_end = feats @ params.w_end + params.b_end
    report, dls, dle = span_loss(l_start, l_end, y_start, y_end)

    grads: dict[str, np.ndarray] = {"b_end": dle.sum(axis=0), "w_end": feats.T @ dle}
    dh = dfeats = dle @ params.w_end.T
    if params.variant == CONDITIONED:
        d = h_ctx.shape[1]
        dh = dfeats[:, :d].copy()
        dls = dls + softmax_backward(dfeats[:, d:], feats[:, d:], axis=1)

    grads["w_start"] = h_ctx.T @ dls
    grads["b_start"] = dls.sum(axis=0)
    dh += dls @ params.w_start.T
    return report, SpanLogits(l_start, l_end), dh, grads

