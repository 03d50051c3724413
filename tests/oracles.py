"""Independent reference implementations and frozen expected values.

Everything here is deliberately written as straight-line/brute-force code,
separate from the package's implementations, so tests compare two routes.
The t-test table was computed ahead of time with two independent tools
(scipy.stats.ttest_ind with equal_var=False, and an arbitrary-precision
Welch computation through the regularized incomplete beta in mpmath); the
two agreed to ~1e-17 on every row.
"""

import math

import numpy as np

from mrcner import model as model_mod
from mrcner.corpus import BioLabel, CorpusError


def bio_label_uncached(raw, index, default_entity_type):
    """parse_label as it was before it cached: a new, validated BioLabel per
    call."""
    if raw == "O":
        return BioLabel("O")
    tag, _, suffix = raw.partition("-")
    if tag not in ("B", "I"):
        raise CorpusError(f"unknown tag {raw!r} at token index {index}")
    return BioLabel(tag, suffix if suffix else default_entity_type)


def spans_by_run_scan(tags):
    """Brute-force run scanner: tags is a list of (tag, entity_type) pairs
    with tag in {B, I, O}. Returns (start, end, entity_type) runs, where a
    run is a B followed by same-type I's."""
    runs = []
    i = 0
    n = len(tags)
    while i < n:
        tag, etype = tags[i]
        if tag == "O":
            i += 1
            continue
        j = i + 1
        while j < n and tags[j][0] == "I" and tags[j][1] == etype:
            j += 1
        runs.append((i, j - 1, etype))
        i = j
    return runs


def nearest_match_literal(starts, ends):
    """The stated end-driven rule, executed literally: walk ends in ascending
    order, pair each with the largest unconsumed start at or before it, then
    discard any pair that overlaps an already accepted one."""
    remaining = sorted(set(starts))
    accepted = []
    for e in sorted(set(ends)):
        candidates = [s for s in remaining if s <= e]
        if not candidates:
            continue
        s = max(candidates)
        remaining.remove(s)
        if any(not (e < s2 or e2 < s) for s2, e2 in accepted):
            continue
        accepted.append((s, e))
    return accepted


def ce_scalar(logit_row, target):
    """Plain-math cross-entropy of one row against a class index."""
    m = max(logit_row)
    log_z = m + math.log(sum(math.exp(v - m) for v in logit_row))
    return log_z - logit_row[target]


def central_difference(f, array, index, h=1e-5):
    """d f / d array[index] by central differences; f takes no arguments and
    reads `array` by reference."""
    original = array[index]
    array[index] = original + h
    plus = f()
    array[index] = original - h
    minus = f()
    array[index] = original
    return (plus - minus) / (2.0 * h)


def relative_error(a, b, floor=1e-7):
    """Gradient-check relative error with an absolute floor.

    Central differences at h=1e-5 on a 64-bit loss of order 1 carry ~1e-11
    of cancellation noise, so a bare ratio is meaningless for near-zero
    coordinates (an exact 0.0 gradient would fail against any noise). The
    floor bounds the denominator; wrong gradients at any meaningful scale
    still blow far past every tolerance used here.
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


def dense_reference_training(mdl, batches, cfg):
    """Training arithmetic without the flat parameter store, as the reference
    for bit identity. Each example gets its own dense gradient dict (fresh
    zeros, from a one-example pack), the dicts are summed in batch order and
    averaged, and Adam updates one tensor at a time. `batches` lists (example, dropout_seed)
    pairs per batch; `mdl` is updated in place. Returns Adam's (m, v) by
    tensor name."""
    m = {name: np.zeros_like(arr) for name, arr in mdl.params.items()}
    v = {name: np.zeros_like(arr) for name, arr in mdl.params.items()}
    for step, batch in enumerate(batches, start=1):
        summed = None
        for example, seed in batch:
            _, (grads,) = model_mod.pack_loss_and_grads(mdl, [example], [mdl.zero_grads()[1]],
                                                         [seed])
            if summed is None:
                summed = grads
            else:
                for name in summed:
                    summed[name] += grads[name]
        for name in summed:
            summed[name] /= len(batch)
        lr = cfg.learning_rate
        if cfg.warmup_steps > 0:
            lr *= min(1.0, step / cfg.warmup_steps)
        b1c = 1.0 - cfg.beta1**step
        b2c = 1.0 - cfg.beta2**step
        for name, arr in mdl.params.items():
            g = summed[name]
            m[name] *= cfg.beta1
            m[name] += (1.0 - cfg.beta1) * g
            v[name] *= cfg.beta2
            v[name] += (1.0 - cfg.beta2) * g * g
            arr -= lr * (m[name] / b1c) / (np.sqrt(v[name] / b2c) + cfg.adam_eps)
    return m, v


# Exact harmonic mean of the reference result row (P=94.37, R=94.00,
# reported F1 94.19), pinned ahead of implementation.
REFERENCE_ROW_F1_EXACT = 94.18463661941924

# Five-run list constructed analytically to have mean 92.70, sample std
# 0.16, and max 92.92 (a reference set of repeated-run summary statistics).
RUNS_MEAN_9270_STD_016_MAX_9292 = [
    92.92,
    92.7473474474523,
    92.7473474474523,
    92.54265255254771,
    92.54265255254771,
]

# (sample_a, sample_b, t, p) for the two-sided Welch test.
WELCH_FIXTURES = [
    (
        [88.2, 88.4, 88.3, 88.5, 88.4],
        [89.3, 89.5, 89.2, 89.6, 89.4],
        -11.92961816126922,
        4.881061144103215e-06,
    ),
    (
        [1.0, 2.0, 3.0],
        [11.0, 12.0, 13.0],
        -12.24744871391589,
        0.00025521674944192687,
    ),
    (
        [92.70, 92.90, 92.60, 92.80, 92.75],
        [92.72, 92.88, 92.65, 92.77, 92.80],
        -0.22174783506975732,
        0.8304174603813734,
    ),
    (
        [10.1, 10.3, 10.2, 10.4],
        [10.8, 10.9, 11.0, 10.7, 10.85],
        -7.34846922834953,
        0.0003133930981582614,
    ),
    (
        [77.5, 78.1, 77.9, 78.3, 77.7],
        [78.0, 78.4, 77.8, 78.6, 78.2],
        -1.49999999999992,
        0.1720032919519315,
    ),
    (
        [50.0, 50.5, 49.5, 50.2, 49.8, 50.1],
        [51.0, 50.9, 51.2, 50.8],
        -5.842759795143718,
        0.00045736676538201635,
    ),
]

# Hand case for the two-class loss: logits [[2,1],[0.5,-0.5],[0,0]] against
# targets [1,0,0]; per-token values and their mean, computed with ce_scalar.
CE_HAND_LOGITS = [[2.0, 1.0], [0.5, -0.5], [0.0, 0.0]]
CE_HAND_TARGETS = [1, 0, 0]
CE_HAND_PER_TOKEN = [1.3132616875182226, 0.3132616875182228, 0.6931471805599453]
CE_HAND_MEAN = 0.7732235185321302
