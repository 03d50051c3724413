"""Span decoding: argmax index sets and nearest-match pairing.

A token index enters I_start (I_end) when class 1 wins the argmax of its
start (end) logit row; ties go to class 0 so untrained heads stay silent.
Ends are then processed in ascending order and each end claims the largest
start at or before it; starts at or before the last emitted end are
unavailable, which keeps the output flat and uses each start at most once.
A span is its (start, end) pair of context offsets, which are its
sentence's token indexes; only `predict`, writing its file, adds the
entity type and surface.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass
class IndexSets:
    starts: list[int]
    ends: list[int]


def extract_indexes(l_start: np.ndarray, l_end: np.ndarray) -> IndexSets:
    starts = [int(i) for i in np.flatnonzero(l_start[:, 1] > l_start[:, 0])]
    ends = [int(i) for i in np.flatnonzero(l_end[:, 1] > l_end[:, 0])]
    return IndexSets(starts, ends)


def nearest_match(sets: IndexSets) -> list[tuple[int, int]]:
    """Pair start and end indexes into flat (start, end) spans."""
    starts = sorted(set(sets.starts))
    pairs: list[tuple[int, int]] = []
    last_end = -1
    for e in sorted(set(sets.ends)):
        i = bisect_right(starts, e) - 1
        if i >= 0 and starts[i] > last_end:
            pairs.append((starts[i], e))
            last_end = e
    return pairs


def decode_example(l_start: np.ndarray, l_end: np.ndarray) -> list[tuple[int, int]]:
    """The (start, end) context offsets of an example's spans, given its
    (N, 2) start and end logits over its N context rows: extract_indexes,
    then nearest_match."""
    return nearest_match(extract_indexes(l_start, l_end))
