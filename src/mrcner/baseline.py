"""Sequence-labeling comparator: a softmax BIO head over the same encoder.

The baseline sees no query (its input is just [CLS] context [SEP]); the
identical encoder and training loop isolate the framing difference.
BioHeadParams implements the head protocol of `model.py` (mode "bio-baseline").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EntitySpan, repair_bio, bio_to_spans, spans_to_bio
from .heads import HeadError, cross_entropy
from .encoder import init_tensors
from .mrc_data import MrcExample, project_predictions

BIO_CLASSES = ("B", "I", "O")
CLASS_IDS = {tag: i for i, tag in enumerate(BIO_CLASSES)}


@dataclass
class BioHeadParams:
    w_bio: np.ndarray  # (d, 3)
    b_bio: np.ndarray  # (3,)
    variant: None = None

    mode = "bio-baseline"
    TENSORS = ("w_bio", "b_bio")

    @classmethod
    def shapes(cls, model_dim: int, variant: str | None) -> dict[str, tuple[int, ...]]:
        if variant is not None:
            raise HeadError(f"the BIO head has no variant, got {variant!r}")
        return {"w_bio": (model_dim, 3), "b_bio": (3,)}

    @classmethod
    def init(cls, model_dim: int, variant: str | None, seed: int) -> "BioHeadParams":
        """`variant` belongs to the span head and is ignored here."""
        return cls(**init_tensors(np.random.default_rng(seed), cls.shapes(model_dim, None)))

    def loss_and_grads(self, h_ctx: np.ndarray, example: MrcExample):
        return bio_head_grads(h_ctx, self, bio_targets(example))

    def decode(self, h_ctx: np.ndarray, example: MrcExample) -> list[EntitySpan]:
        return bio_decode(bio_logits(h_ctx, self), example)


def bio_logits(h_ctx: np.ndarray, params: BioHeadParams) -> np.ndarray:
    return h_ctx @ params.w_bio + params.b_bio


def bio_targets(example: MrcExample) -> np.ndarray:
    """Per-context-token class ids (B/I/O) derived from the gold spans."""
    labels = spans_to_bio(example.gold_spans, example.n_context)
    return np.asarray([CLASS_IDS[lab.tag] for lab in labels], dtype=np.int64)


def bio_head_grads(
    h_ctx: np.ndarray, params: BioHeadParams, targets: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Token-mean 3-class cross-entropy; returns (loss, dH_ctx, head grads)."""
    logits = bio_logits(h_ctx, params)
    loss, dlogits = cross_entropy(logits, targets)
    grads = {"w_bio": h_ctx.T @ dlogits, "b_bio": dlogits.sum(axis=0)}
    return loss, dlogits @ params.w_bio.T, grads


def bio_decode(logits: np.ndarray, example: MrcExample) -> list[EntitySpan]:
    """Per-token argmax, BIO repair, then span extraction; the spans take
    their entity type from `example.origin`."""
    raw = [BIO_CLASSES[int(i)] for i in logits.argmax(axis=1)]
    labels, _ = repair_bio(raw)
    spans = bio_to_spans(labels)
    return project_predictions(example, [(s.start, s.end) for s in spans])

