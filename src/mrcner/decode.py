"""Span decoding: argmax index sets and nearest-match pairing.

A token index enters I_start (I_end) when class 1 wins the argmax of its
start (end) logit row; ties go to class 0 so untrained heads stay silent.
Ends are then processed in ascending order and each end claims the largest
unconsumed start at or before it; starts at or before the last emitted end
are unavailable, which keeps the output flat. A start-driven variant is
available behind a flag for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EntitySpan
from .mrc_data import MrcExample, project_predictions

END_DRIVEN = "end"
START_DRIVEN = "start"


@dataclass
class SpanLogits:
    l_start: np.ndarray  # (N, 2), context rows only
    l_end: np.ndarray    # (N, 2)


@dataclass
class IndexSets:
    starts: list[int]
    ends: list[int]


def extract_indexes(l_start: np.ndarray, l_end: np.ndarray) -> IndexSets:
    starts = [int(i) for i in np.flatnonzero(l_start[:, 1] > l_start[:, 0])]
    ends = [int(i) for i in np.flatnonzero(l_end[:, 1] > l_end[:, 0])]
    return IndexSets(starts, ends)


def nearest_match(sets: IndexSets, scan: str = END_DRIVEN) -> list[tuple[int, int]]:
    """Pair start and end indexes into flat (start, end) spans."""
    starts = sorted(set(sets.starts))
    ends = sorted(set(sets.ends))
    pairs: list[tuple[int, int]] = []
    if scan == END_DRIVEN:
        used = [False] * len(starts)
        last_end = -1
        for e in ends:
            best = -1
            for i, s in enumerate(starts):
                if s > e:
                    break
                if not used[i] and s > last_end:
                    best = i
            if best >= 0:
                used[best] = True
                pairs.append((starts[best], e))
                last_end = e
    elif scan == START_DRIVEN:
        used = [False] * len(ends)
        last_end = -1
        for s in starts:
            if s <= last_end:
                continue
            for j, e in enumerate(ends):
                if not used[j] and e >= s:
                    used[j] = True
                    pairs.append((s, e))
                    last_end = e
                    break
    else:
        raise ValueError(f"unknown scan order {scan!r}")
    return pairs


def decode_example(example: MrcExample, logits: SpanLogits) -> list[EntitySpan]:
    """extract_indexes + nearest_match + projection back to sentence spans."""
    pairs = nearest_match(extract_indexes(logits.l_start, logits.l_end))
    return project_predictions(example, pairs)
