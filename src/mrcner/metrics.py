"""Entity-level exact-match scoring and the multi-run significance protocol.

A predicted span counts as a true positive only when its (start, end) and
its sentence key — (doc_id, sent_id, entity_type) — all match a gold span.
Precision/recall/F1 are micro-averaged over all sentences; repeated runs
are summarized as mean / sample std / max and compared with a two-sided
Welch t-test (equal-variance Student variant behind a flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Iterable, Mapping, Sequence

from scipy.special import stdtr

SentenceKey = tuple[str, int, str]
Span = tuple[int, int]

STARS_NONE = "ns"
STARS_05 = "p<0.05"
STARS_01 = "p<0.01"


class EvalError(ValueError):
    """Unknown sentences in predictions or empty aggregates."""


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float = field(init=False)
    recall: float = field(init=False)
    f1: float = field(init=False)

    def __post_init__(self) -> None:
        self.precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        self.recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        self.f1 = f1_from_pr(self.precision, self.recall)


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean 2PR/(P+R); 0 when both rates are 0. Works on raw rates
    or percentage values alike."""
    total = precision + recall
    return 2.0 * precision * recall / total if total else 0.0


def format_pct(value: float, decimals: int = 2) -> str:
    """A rate in [0,1] as a percentage string, ties rounded away from zero."""
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(value * 100.0)).quantize(quantum, rounding=ROUND_HALF_UP))


def score(
    gold: Mapping[SentenceKey, Iterable[Span]],
    predicted: Mapping[SentenceKey, Iterable[Span]],
) -> EvalReport:
    """Micro-averaged exact-span match over sentences keyed by
    (doc_id, sent_id, entity_type)."""
    tp = fp = fn = 0
    for key, spans in predicted.items():
        if key not in gold:
            raise EvalError(f"prediction references unknown sentence {key!r}")
    for key, gold_spans in gold.items():
        gset = set(gold_spans)
        pset = set(predicted.get(key, ()))
        tp += len(gset & pset)
        fp += len(pset - gset)
        fn += len(gset - pset)
    return EvalReport(tp, fp, fn)


@dataclass
class RunStats:
    f1_values: list[float]
    mean: float
    std: float
    max: float
    std_defined: bool

    def to_dict(self) -> dict:
        return {"runs": self.f1_values, "mean": self.mean, "std": self.std, "max": self.max}


def aggregate(f1_values: Sequence[float]) -> RunStats:
    """Mean, sample standard deviation (n-1), and max over per-run F1 scores.

    A single run has no sample std; it is reported as 0 with std_defined
    False.
    """
    values = [float(v) for v in f1_values]
    if not values:
        raise EvalError("cannot aggregate zero runs")
    n = len(values)
    mean = sum(values) / n
    if n >= 2:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        defined = True
    else:
        std, defined = 0.0, False
    return RunStats(values, mean, std, max(values), defined)


@dataclass
class SignificanceResult:
    t_statistic: float
    p_value: float
    stars: str
    degenerate: bool = False

    def to_dict(self) -> dict:
        t = self.t_statistic if math.isfinite(self.t_statistic) else None
        return {"t": t, "p": self.p_value, "stars": self.stars}


def stars_for(p_value: float) -> str:
    if p_value < 0.01:
        return STARS_01
    if p_value < 0.05:
        return STARS_05
    return STARS_NONE


def t_test(a: Sequence[float], b: Sequence[float], welch: bool = True) -> SignificanceResult:
    """Two-sided two-sample t-test.

    Welch (default) uses per-sample variances with Welch-Satterthwaite
    degrees of freedom; welch=False pools the variance (classic Student).
    Two zero-variance samples are degenerate: p=1 for equal means, p=0
    otherwise.
    """
    if len(a) < 2 or len(b) < 2:
        raise EvalError("t test needs at least two values per sample")
    na, nb = len(a), len(b)
    ma, mb = sum(a) / na, sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)

    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return SignificanceResult(0.0, 1.0, STARS_NONE, degenerate=True)
        t = math.copysign(math.inf, ma - mb)
        return SignificanceResult(t, 0.0, STARS_01, degenerate=True)

    if welch:
        sa, sb = va / na, vb / nb
        se = math.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    else:
        pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
        se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
        df = na + nb - 2
    t = (ma - mb) / se
    p = 2.0 * float(stdtr(df, -abs(t)))
    return SignificanceResult(t, p, stars_for(p))
