"""Discrimination and selective-prediction metrics.

AUROC is the Mann-Whitney rank statistic (ties count half), AUPRC is stepwise
average precision (ties broken by stable input order), and the coverage-risk
sweep retains quantile-based fractions of the least nonconforming predictions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .calibration import DEFAULT_ECE_BINS, ece
from .conformal import DecisionTable, nonconformity_test

DEFAULT_COVERAGE_GRID = (1.0, 0.9, 0.8, 0.7, 0.6)


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outscores a random negative; ties = 0.5.

    Computed from midranks, which matches all-pairs enumeration exactly.
    Raises when a class is missing.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    n = len(s)
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"both classes required, got n_pos={n_pos}, n_neg={n_neg}")
    order = np.argsort(s, kind="mergesort")
    s_sorted = s[order]
    starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    ends = np.r_[starts[1:], n]
    group_mid = (starts + ends - 1) / 2.0 + 1.0  # 1-based midrank per tie group
    ranks_sorted = np.repeat(group_mid, ends - starts)
    ranks = np.empty(n, dtype=float)
    ranks[order] = ranks_sorted
    pos_rank_sum = math.fsum(float(r) for r in ranks[y == 1])
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Stepwise average precision; requires at least one positive.

    Records are ranked by descending score with ties kept in input order, and
    precision is averaged at each positive's rank (no interpolation).
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined without positives")
    order = np.argsort(-s, kind="mergesort")
    # precision at each positive's 1-based rank; int64 / int64 below 2**53
    # rounds correctly, like Python's int / int
    ranks = np.flatnonzero(y[order]) + 1
    terms = np.arange(1, len(ranks) + 1) / ranks
    return math.fsum(terms.tolist()) / n_pos


def selective_error(
    decisions: DecisionTable, labels: Sequence[int]
) -> tuple[float, float | None]:
    """(coverage, risk) of decisions against their aligned true labels.

    Coverage is the retained fraction; risk is the error rate among retained
    predictions and None when everything abstained.
    """
    if not len(decisions):
        raise ValueError("no decisions given")
    labels = np.asarray(labels)
    if len(labels) != len(decisions):
        raise ValueError(f"length mismatch: {len(decisions)} decisions vs {len(labels)} labels")
    retained = decisions.predicted >= 0
    n_retained = int(np.count_nonzero(retained))
    wrong = int(np.count_nonzero(decisions.predicted[retained] != labels[retained]))
    coverage = n_retained / len(decisions)
    risk = (wrong / n_retained) if n_retained else None
    return coverage, risk


@dataclass(frozen=True)
class CoveragePoint:
    """Retained-set quality at one target coverage."""

    coverage: float
    error_rate: float | None
    ece: float | None
    auprc: float | None
    abstained: float

    def __post_init__(self) -> None:
        if abs(self.coverage + self.abstained - 1.0) > 1e-12:
            raise ValueError("coverage and abstained must sum to 1")


@dataclass(frozen=True)
class CoverageRiskCurve:
    points: tuple[CoveragePoint, ...]
    source: str

    def to_csv(self, comments: Sequence[str] = ()) -> str:
        lines = [f"# {text}" for text in comments]
        lines.append(",".join(f.name for f in fields(CoveragePoint)))
        for p in self.points:
            lines.append(",".join("" if v is None else repr(v) for v in astuple(p)))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return asdict(self)


def coverage_risk_sweep(
    probs: Sequence[float],
    labels: Sequence[int],
    grid: Sequence[float] = DEFAULT_COVERAGE_GRID,
    n_bins: int = DEFAULT_ECE_BINS,
    source: str = "",
) -> CoverageRiskCurve:
    """Quality of the retained set as coverage shrinks along the grid.

    probs are calibrated probabilities, labels the aligned true labels. For
    each target coverage c the round(c*n) rows with the smallest label-free
    nonconformity are retained (ties broken by input order). Retained-set
    metrics: error rate of the argmax prediction, ECE, and AUPRC on the
    calibrated probabilities (None when the retained subset is single-class or
    empty). Points are ordered by descending coverage; coverage 1.0 reproduces
    the full-set error exactly.
    """
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    if not len(probs):
        raise ValueError("no records given")
    if len(labels) != len(probs):
        raise ValueError(f"length mismatch: {len(probs)} probs vs {len(labels)} labels")
    if not grid:
        raise ValueError("grid is empty")
    for c in grid:
        if not 0.0 < c <= 1.0:
            raise ValueError(f"coverage targets must be in (0, 1], got {c!r}")
    n = len(probs)
    order = np.argsort(nonconformity_test(probs), kind="stable")
    points = []
    for c in sorted(set(grid), reverse=True):
        m = int(math.floor(c * n + 0.5))  # nearest achievable retained count
        coverage = m / n
        abstained = 1.0 - coverage
        if m == 0:
            points.append(CoveragePoint(coverage, None, None, None, abstained))
            continue
        kept_probs, ys = probs[order[:m]], labels[order[:m]]
        error_rate = int(np.count_nonzero((kept_probs >= 0.5) != ys)) / m
        table = ece(kept_probs, ys, n_bins=n_bins)
        ap = auprc(kept_probs, ys) if 0 < np.count_nonzero(ys) < m else None
        points.append(CoveragePoint(coverage, error_rate, table.ece, ap, abstained))
    return CoverageRiskCurve(points=tuple(points), source=source)
