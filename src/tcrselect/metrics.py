"""Discrimination and selective-prediction metrics.

AUROC is the Mann-Whitney rank statistic (ties count half), AUPRC is stepwise
average precision (ties broken by stable input order), and the coverage-risk
sweep retains quantile-based fractions of the least nonconforming predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .calibration import DEFAULT_ECE_BINS, ece
from .conformal import DECISION_PREDICT, SelectiveDecision, nonconformity_test

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
    hits = y[order]
    terms = []
    seen_pos = 0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            seen_pos += 1
            terms.append(seen_pos / rank)
    return math.fsum(terms) / n_pos


def selective_error(
    decisions: Sequence[SelectiveDecision], labels: Mapping[str, int]
) -> tuple[float, float | None]:
    """(coverage, risk) of a decision list against true labels.

    Coverage is the retained fraction; risk is the error rate among retained
    predictions and None when everything abstained. Unknown ids raise.
    """
    if not decisions:
        raise ValueError("no decisions given")
    retained = 0
    wrong = 0
    for d in decisions:
        if d.example_id not in labels:
            raise ValueError(f"no label for id {d.example_id!r}")
        if d.decision == DECISION_PREDICT:
            retained += 1
            if d.predicted_label != labels[d.example_id]:
                wrong += 1
    coverage = retained / len(decisions)
    risk = (wrong / retained) if retained else None
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
        lines.append("coverage,error_rate,ece,auprc,abstained")
        for p in self.points:
            err = "" if p.error_rate is None else repr(p.error_rate)
            e = "" if p.ece is None else repr(p.ece)
            ap = "" if p.auprc is None else repr(p.auprc)
            lines.append(f"{p.coverage!r},{err},{e},{ap},{p.abstained!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "points": [
                {
                    "coverage": p.coverage,
                    "error_rate": p.error_rate,
                    "ece": p.ece,
                    "auprc": p.auprc,
                    "abstained": p.abstained,
                }
                for p in self.points
            ],
        }


def coverage_risk_sweep(
    records: Sequence[tuple[str, float]],
    labels: Mapping[str, int],
    grid: Sequence[float] = DEFAULT_COVERAGE_GRID,
    n_bins: int = DEFAULT_ECE_BINS,
    source: str = "",
) -> CoverageRiskCurve:
    """Quality of the retained set as coverage shrinks along the grid.

    records are (example_id, calibrated probability). For each target coverage
    c the round(c*n) records with the smallest label-free nonconformity are
    retained (ties broken by input order). Retained-set metrics: error rate of
    the argmax prediction, ECE, and AUPRC on the calibrated probabilities
    (None when the retained subset is single-class or empty). Points are
    ordered by descending coverage; coverage 1.0 reproduces the full-set error
    exactly.
    """
    if not records:
        raise ValueError("no records given")
    if not grid:
        raise ValueError("grid is empty")
    for c in grid:
        if not 0.0 < c <= 1.0:
            raise ValueError(f"coverage targets must be in (0, 1], got {c!r}")
    n = len(records)
    truths = []
    for example_id, _ in records:
        if example_id not in labels:
            raise ValueError(f"no label for id {example_id!r}")
        truths.append(labels[example_id])
    scores = nonconformity_test([p for _, p in records]).tolist()
    order = sorted(range(n), key=lambda i: (scores[i], i))
    points = []
    for c in sorted(set(grid), reverse=True):
        m = int(math.floor(c * n + 0.5))  # nearest achievable retained count
        kept = order[:m]
        coverage = m / n
        abstained = 1.0 - coverage
        if m == 0:
            points.append(CoveragePoint(coverage, None, None, None, abstained))
            continue
        probs = [records[i][1] for i in kept]
        ys = [truths[i] for i in kept]
        wrong = sum(1 for p, t in zip(probs, ys) if (1 if p >= 0.5 else 0) != t)
        error_rate = wrong / m
        table = ece(probs, ys, n_bins=n_bins)
        ap = auprc(probs, ys) if 0 < sum(ys) < m else None
        points.append(CoveragePoint(coverage, error_rate, table.ece, ap, abstained))
    return CoverageRiskCurve(points=tuple(points), source=source)
