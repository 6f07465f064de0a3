"""Per-row decisions, the oracle for the columnar DecisionTable.

These are the functions the package used before decisions became one
DecisionTable of ids, calibrated probabilities, nonconformity scores and
predicted labels: a frozen SelectiveDecision per test row, the per-row
decide loop, selective error and the coverage-risk sweep joined to labels
through an id -> label map, the decision TSV writer and parser, and the
per-rank average-precision loop. The columnar functions must reproduce them
bit for bit. Nonconformity, ECE and the curve types are the package's own.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from tcrselect.calibration import DEFAULT_ECE_BINS, ece
from tcrselect.conformal import (
    DECISION_ABSTAIN,
    DECISION_COLUMNS,
    DECISION_PREDICT,
    ConformalRule,
    nonconformity_test,
)
from tcrselect.metrics import DEFAULT_COVERAGE_GRID, CoveragePoint, CoverageRiskCurve


@dataclass(frozen=True, slots=True)
class SelectiveDecision:
    """Per-example outcome: predict with a label, or abstain."""

    example_id: str
    prob_calibrated: float
    nonconformity: float
    decision: str
    predicted_label: int | None

    def __post_init__(self) -> None:
        if self.decision not in (DECISION_PREDICT, DECISION_ABSTAIN):
            raise ValueError(f"unknown decision {self.decision!r}")
        if (self.predicted_label is None) != (self.decision == DECISION_ABSTAIN):
            raise ValueError("predicted_label must be present exactly when predicting")


def retains(rule: ConformalRule, nonconformity: float) -> bool:
    return rule.threshold is None or nonconformity <= rule.threshold


def decide(
    records: Iterable[tuple[str, float]], rule: ConformalRule
) -> list[SelectiveDecision]:
    """Apply the rule to (example_id, calibrated probability) pairs, in order."""
    pairs = list(records)
    probs = np.array([prob for _, prob in pairs], dtype=np.float64)
    ids = [example_id for example_id, _ in pairs]
    decisions = []
    for example_id, prob, s in zip(ids, probs.tolist(), nonconformity_test(probs).tolist()):
        if retains(rule, s):
            decisions.append(
                SelectiveDecision(
                    example_id=example_id,
                    prob_calibrated=prob,
                    nonconformity=s,
                    decision=DECISION_PREDICT,
                    predicted_label=1 if prob >= 0.5 else 0,
                )
            )
        else:
            decisions.append(
                SelectiveDecision(
                    example_id=example_id,
                    prob_calibrated=prob,
                    nonconformity=s,
                    decision=DECISION_ABSTAIN,
                    predicted_label=None,
                )
            )
    return decisions


def decisions_to_tsv(decisions: Sequence[SelectiveDecision]) -> str:
    """Render decisions as TSV: the header line, then one row per decision."""
    lines = ["\t".join(DECISION_COLUMNS)]
    for d in decisions:
        label = "" if d.predicted_label is None else str(d.predicted_label)
        lines.append(
            f"{d.example_id}\t{d.prob_calibrated!r}\t{d.nonconformity!r}\t{d.decision}\t{label}"
        )
    return "\n".join(lines) + "\n"


def decisions_from_tsv(text: str) -> list[SelectiveDecision]:
    """Parse decisions_to_tsv output; '#' comment lines are skipped."""
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [line for line in rows if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no decision rows found")
    header = tuple(lines[0].split("\t"))
    if header != DECISION_COLUMNS:
        raise ValueError(f"unexpected decision header {header!r}")
    decisions = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(DECISION_COLUMNS):
            raise ValueError(f"malformed decision row {line!r}")
        example_id, prob, nonconf, decision, label = fields
        decisions.append(
            SelectiveDecision(
                example_id=example_id,
                prob_calibrated=float(prob),
                nonconformity=float(nonconf),
                decision=decision,
                predicted_label=int(label) if label else None,
            )
        )
    return decisions


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
