"""Per-row scores, the oracle for the columnar score table.

These are the record-per-example functions the package used before scores
became one ScoreTable of ids, logits and labels: a frozen ScoreRecord per row,
the scalar sigmoid, list-based temperature scaling, nonconformity and
probability metrics, and the synthetic draw and coverage trial built on them.
The columnar functions must reproduce them bit for bit. Temperature fitting
and the threshold order statistic are the package's own, fed the same values.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from tcrselect.calibration import (
    DEFAULT_ECE_BINS,
    ReliabilityBin,
    ReliabilityTable,
    TemperatureModel,
    fit_temperature,
)
from tcrselect.conformal import fit_threshold
from tcrselect.scorer import ScoreTable
from tcrselect.synthetic import _HI_MEAN, _LO_MEAN, _P_CLIP, HI_BETA, LO_BETA, SyntheticSpec

_PROB_CLIP = 1e-12


def sigmoid(logit: float) -> float:
    """Numerically stable logistic function."""
    if logit >= 0.0:
        return 1.0 / (1.0 + math.exp(-logit))
    e = math.exp(logit)
    return e / (1.0 + e)


@dataclass(frozen=True, slots=True)
class ScoreRecord:
    """A scored example: raw logit, its probability, and the true label."""

    example_id: str
    logit: float
    prob_raw: float
    label: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.logit):
            raise ValueError(f"non-finite logit for {self.example_id!r}")
        if not 0.0 <= self.prob_raw <= 1.0:
            raise ValueError(f"prob_raw out of [0, 1] for {self.example_id!r}")
        if abs(self.prob_raw - sigmoid(self.logit)) > 1e-12:
            raise ValueError(
                f"prob_raw does not match sigmoid(logit) for {self.example_id!r}"
            )
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1 for {self.example_id!r}")

    @classmethod
    def from_logit(cls, example_id: str, logit: float, label: int) -> "ScoreRecord":
        return cls(example_id=example_id, logit=logit, prob_raw=sigmoid(logit), label=label)


def table(records: Sequence[ScoreRecord]) -> ScoreTable:
    """The same scores as one table, for the package functions that take one."""
    return ScoreTable(
        tuple(r.example_id for r in records),
        [r.logit for r in records],
        [r.label for r in records],
    )


def apply_temperature(
    records: Sequence[ScoreRecord], model: TemperatureModel
) -> list[float]:
    """Calibrated probabilities sigmoid(logit / T), preserving record order."""
    t = model.temperature
    return [sigmoid(rec.logit / t) for rec in records]


def nonconformity_calibration(prob: float, label: int) -> float:
    """One minus the probability assigned to the true label."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    return 1.0 - prob if label == 1 else prob


def nonconformity_test(prob: float) -> float:
    """One minus the probability of the predicted (argmax) label."""
    return 1.0 - prob if prob >= 0.5 else prob


def _validate_pairs(probs: Sequence[float], labels: Sequence[int]) -> None:
    if len(probs) != len(labels):
        raise ValueError(f"length mismatch: {len(probs)} probs vs {len(labels)} labels")
    if len(probs) == 0:
        raise ValueError("empty input")


def ece(
    probs: Sequence[float], labels: Sequence[int], n_bins: int = DEFAULT_ECE_BINS
) -> ReliabilityTable:
    """Expected calibration error over equal-width confidence bins on [0.5, 1]."""
    _validate_pairs(probs, labels)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    n = len(probs)
    width = 0.5 / n_bins
    members: list[list[tuple[float, int]]] = [[] for _ in range(n_bins)]
    for p, y in zip(probs, labels):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        conf = p if p >= 0.5 else 1.0 - p
        pred = 1 if p >= 0.5 else 0
        idx = int((conf - 0.5) * (2 * n_bins))
        if idx >= n_bins:
            idx = n_bins - 1
        members[idx].append((conf, int(pred == y)))
    bins = []
    total = 0.0
    for m, bucket in enumerate(members):
        lower = 0.5 + m * width
        upper = 0.5 + (m + 1) * width
        if not bucket:
            bins.append(ReliabilityBin(lower, upper, 0, None, None))
            continue
        count = len(bucket)
        mean_conf = math.fsum(c for c, _ in bucket) / count
        mean_acc = math.fsum(a for _, a in bucket) / count
        bins.append(ReliabilityBin(lower, upper, count, mean_conf, mean_acc))
        total += (count / n) * abs(mean_acc - mean_conf)
    return ReliabilityTable(bins=tuple(bins), ece=total, n=n)


def brier(probs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared error between probabilities and binary labels."""
    _validate_pairs(probs, labels)
    return math.fsum((p - y) ** 2 for p, y in zip(probs, labels)) / len(probs)


def nll(probs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood; probabilities clipped to [1e-12, 1-1e-12]."""
    _validate_pairs(probs, labels)
    terms = []
    for p, y in zip(probs, labels):
        q = min(max(p, _PROB_CLIP), 1.0 - _PROB_CLIP)
        terms.append(-math.log(q) if y == 1 else -math.log(1.0 - q))
    return math.fsum(terms) / len(probs)


def generate(spec: SyntheticSpec) -> tuple[list[ScoreRecord], list[ScoreRecord]]:
    """One seeded draw of (calibration records, test records)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_cal + spec.n_test
    w_hi = (spec.base_positive_rate - _LO_MEAN) / (_HI_MEAN - _LO_MEAN)
    from_hi = rng.random(n) < w_hi
    p = np.where(
        from_hi,
        rng.beta(HI_BETA[0], HI_BETA[1], n),
        rng.beta(LO_BETA[0], LO_BETA[1], n),
    )
    p = np.clip(p, _P_CLIP, 1.0 - _P_CLIP)
    labels = (rng.random(n) < p).astype(int)
    logits = spec.miscalibration_temperature * np.log(p / (1.0 - p))
    records = [
        ScoreRecord.from_logit(f"syn-{i:06d}", float(z), int(y))
        for i, (z, y) in enumerate(zip(logits, labels))
    ]
    return records[: spec.n_cal], records[spec.n_cal :]


def one_trial(spec: SyntheticSpec, epsilon: float, want_ece: bool) -> tuple[float, float | None]:
    """(coverage, test ECE after scaling) for a single seeded draw."""
    cal, test = generate(spec)
    temperature = fit_temperature(table(cal))
    cal_probs = apply_temperature(cal, temperature)
    cal_scores = [
        nonconformity_calibration(p, rec.label) for p, rec in zip(cal_probs, cal)
    ]
    rule = fit_threshold(cal_scores, epsilon)
    test_probs = apply_temperature(test, temperature)
    test_scores = [
        nonconformity_calibration(p, rec.label) for p, rec in zip(test_probs, test)
    ]
    if rule.retain_all:
        coverage = 1.0
    else:
        coverage = sum(1 for s in test_scores if s <= rule.threshold) / len(test_scores)
    ece_after = None
    if want_ece:
        ece_after = ece(test_probs, [rec.label for rec in test]).ece
    return coverage, ece_after


def coverages(spec: SyntheticSpec, epsilon: float, n_trials: int) -> tuple[float, ...]:
    """Per-trial coverages of coverage_experiment; trial t uses seed + t."""
    return tuple(
        one_trial(replace(spec, seed=spec.seed + t), epsilon, want_ece=False)[0]
        for t in range(n_trials)
    )
