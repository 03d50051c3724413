"""Machine-speed calibration for timings taken on a shared host.

On a shared 2-vCPU host the speed of fixed code drifts by tens of percent
over seconds to minutes, and every timing of a run moves with it (the
per-run medians of all end-to-end times correlate at 0.6-0.95). A fixed
calibration loop, unrelated to mrcner, runs after every timed call; each
timing is rescaled by how long the loop took around it relative to
REFERENCE_S, which removes the shared drift. Times so scaled are in
reference seconds ("ref-s"): the time the call would take on a host that
runs the loop in REFERENCE_S.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# Median time of one calibration point (UNITS loops) on the 2-vCPU host the
# benchmark was written on. Changing it rescales every ref-s figure, so it
# stays fixed.
REFERENCE_S = 0.025
UNITS = 3

_W = np.random.default_rng(0).random(64)
_X = np.random.default_rng(1).random((96, 64))


def _loop() -> None:
    """A small mix of what mrcner spends time on: element-wise arithmetic,
    transcendental functions and row sums over 64-wide arrays, then Python
    floats, lists, dicts and JSON. It makes no BLAS call, so a change to the
    BLAS thread count moves mrcner's times but not the reference."""
    for _ in range(100):
        np.tanh(_X * _W).sum(axis=1)
    values = [i * 0.5 for i in range(15000)]
    json.dumps(values[:5000])
    {i: v for i, v in enumerate(values)}


def point() -> float:
    """Seconds for UNITS loops, as the median loop time times UNITS."""
    times = []
    for _ in range(UNITS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * UNITS


def rescale(start: float, end: float, points: list[tuple[float, float]]) -> float:
    """Reference seconds of a call that ran from start to end.

    points are (time, seconds) calibration points in time order. The host's
    speed during the call is estimated from the points within one call
    length before and after it, plus the last point before and the first
    after: a short call is judged by the points that bracket it, a call of
    several seconds by the speed around it, not by two instants."""
    span = end - start
    times = [t for t, _ in points]
    lo = bisect.bisect_left(times, start - span)
    hi = bisect.bisect_right(times, end + span)
    first_after = bisect.bisect_right(times, end)
    chosen = set(range(lo, hi)) | {bisect.bisect_left(times, start) - 1, first_after}
    values = [points[i][1] for i in chosen if 0 <= i < len(points)]
    return span * REFERENCE_S / statistics.fmean(values)
