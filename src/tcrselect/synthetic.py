"""Synthetic score-level harness for coverage and calibration-size experiments.

Generates exchangeable calibration/test score sets with a known miscalibration:
true probabilities p_i come from a two-component Beta mixture skewed toward the
requested positive rate, labels are Bernoulli(p_i), and logits are the true
log-odds multiplied by miscalibration_temperature. Fitting a temperature on
such data should recover the planted factor. No sequence content here; the
sequence-level path goes through the corpus and scorer modules.

A draw is two score tables; a trial is array expressions over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import pstdev
from typing import Sequence

import numpy as np

from .calibration import apply_temperature, ece, fit_temperature
from .conformal import fit_threshold, nonconformity_calibration, quantile_index
from .scorer import ScoreTable

# mixture components for the true probabilities: binder-like and background
HI_BETA = (8.0, 2.0)   # mean 0.8
LO_BETA = (1.0, 49.0)  # mean 0.02
_P_CLIP = 1e-4  # keeps logits bounded so float sigmoids stay inside (0, 1)

_HI_MEAN = HI_BETA[0] / (HI_BETA[0] + HI_BETA[1])
_LO_MEAN = LO_BETA[0] / (LO_BETA[0] + LO_BETA[1])


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of one synthetic draw; trial t of an experiment uses seed + t."""

    n_cal: int
    n_test: int
    miscalibration_temperature: float = 3.0
    base_positive_rate: float = 0.045
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cal < 1 or self.n_test < 1:
            raise ValueError("n_cal and n_test must be >= 1")
        if self.miscalibration_temperature <= 0:
            raise ValueError("miscalibration_temperature must be > 0")
        if not _LO_MEAN < self.base_positive_rate < _HI_MEAN:
            raise ValueError(
                f"base_positive_rate must lie in ({_LO_MEAN:.3f}, {_HI_MEAN:.3f}) "
                f"to be reachable by the mixture"
            )


def check_n_trials(n_trials: int) -> None:
    """Raise unless an experiment runs at least one trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")


def check_sizes(sizes: Sequence[int]) -> None:
    """Raise unless a size sweep has calibration sizes, each at least 1."""
    if not sizes:
        raise ValueError("sizes is empty")
    if min(sizes) < 1:
        raise ValueError(f"sizes must all be >= 1, got {min(sizes)}")


@lru_cache(maxsize=1)
def _ids(n: int) -> tuple[str, ...]:
    """syn-000000 ... for the n rows of a draw; kept while the draw size repeats."""
    return tuple(f"syn-{i:06d}" for i in range(n))


def generate(spec: SyntheticSpec) -> tuple[ScoreTable, ScoreTable]:
    """One seeded draw of (calibration table, test table).

    Both sets come from a single i.i.d. stream, so they are exchangeable by
    construction. Expected positive rate equals spec.base_positive_rate.
    """
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
    labels = rng.random(n) < p
    logits = spec.miscalibration_temperature * np.log(p / (1.0 - p))
    ids, k = _ids(n), spec.n_cal
    return (
        ScoreTable(ids[:k], logits[:k], labels[:k]),
        ScoreTable(ids[k:], logits[k:], labels[k:]),
    )


@dataclass(frozen=True)
class CoverageSummary:
    """Aggregate of per-trial coverage measurements."""

    epsilon: float
    n_cal: int
    n_trials: int
    mean_coverage: float
    sd_coverage: float
    retain_all_trials: int
    coverages: tuple[float, ...]


def _one_trial(
    spec: SyntheticSpec, epsilon: float, want_ece: bool, skip_single_class: bool = False
) -> tuple[float, float | None] | None:
    """(coverage, test ECE after scaling) for a single seeded draw; None when
    skip_single_class is set and the calibration draw holds a single class,
    which leaves no temperature to fit.

    Coverage uses the same true-label nonconformity on calibration and test,
    the exchangeable quantity the marginal guarantee speaks about. The deployed
    label-free rule retains a superset of these points.
    """
    cal, test = generate(spec)
    if skip_single_class and cal.labels.min() == cal.labels.max():
        return None
    temperature = fit_temperature(cal)
    cal_scores = nonconformity_calibration(apply_temperature(cal, temperature), cal.labels)
    rule = fit_threshold(cal_scores, epsilon)
    test_probs = apply_temperature(test, temperature)
    test_scores = nonconformity_calibration(test_probs, test.labels)
    if rule.retain_all:
        coverage = 1.0
    else:
        coverage = int(np.count_nonzero(test_scores <= rule.threshold)) / len(test)
    ece_after = ece(test_probs, test.labels).ece if want_ece else None
    return coverage, ece_after


def _trials(
    spec: SyntheticSpec, epsilon: float, n_trials: int, want_ece: bool,
    skip_single_class: bool = False,
) -> tuple[list[float], list[float | None]]:
    """Coverages and test ECEs of the trials that ran; trial t uses seed spec.seed + t."""
    outcomes = [
        _one_trial(replace(spec, seed=spec.seed + t), epsilon, want_ece, skip_single_class)
        for t in range(n_trials)
    ]
    ran = [outcome for outcome in outcomes if outcome is not None]
    return [coverage for coverage, _ in ran], [e for _, e in ran]


def coverage_experiment(
    spec: SyntheticSpec, epsilon: float, n_trials: int
) -> CoverageSummary:
    """Repeated seeded trials of generate -> fit temperature -> fit threshold.

    Trial t uses seed spec.seed + t. Under exchangeability a trial's expected
    coverage is at least quantile_index(n_cal, epsilon) / (n_cal + 1), which
    is >= 1 - epsilon; without ties it is below 1 - epsilon + 1/(n_cal + 1).
    """
    check_n_trials(n_trials)
    # the sentinel depends only on (n_cal, epsilon), so it hits every trial or none
    retain_all = quantile_index(spec.n_cal, epsilon) > spec.n_cal
    coverages, _ = _trials(spec, epsilon, n_trials, want_ece=False)
    return CoverageSummary(
        epsilon=epsilon,
        n_cal=spec.n_cal,
        n_trials=n_trials,
        mean_coverage=math.fsum(coverages) / n_trials,
        sd_coverage=pstdev(coverages) if n_trials > 1 else 0.0,
        retain_all_trials=n_trials if retain_all else 0,
        coverages=tuple(coverages),
    )


@dataclass(frozen=True)
class SizeSweepRow:
    n_cal: int
    mean_ece_after: float
    mean_coverage: float
    single_class_trials: int


def calibration_size_sweep(
    spec: SyntheticSpec,
    sizes: Sequence[int],
    epsilon: float,
    n_trials: int = 20,
) -> list[SizeSweepRow]:
    """Mean post-scaling test ECE and mean coverage at each calibration size.

    spec supplies everything but n_cal, which the sweep overrides per row.
    Larger calibration sets estimate the temperature better, so the ECE column
    is non-increasing in expectation; coverage concentrates near 1 - epsilon.
    A trial whose calibration draw holds a single class is skipped and counted
    in single_class_trials; the means are over the trials that ran. A size at
    which every trial is skipped raises.
    """
    check_sizes(sizes)
    check_n_trials(n_trials)
    rows = []
    for size in sizes:
        coverages, eces = _trials(
            replace(spec, n_cal=size), epsilon, n_trials, want_ece=True, skip_single_class=True
        )
        if not coverages:
            raise ValueError(
                f"n_cal {size}: the calibration draw holds a single class in all "
                f"{n_trials} trials; cannot fit temperature"
            )
        rows.append(
            SizeSweepRow(
                n_cal=size,
                mean_ece_after=math.fsum(eces) / len(eces),
                mean_coverage=math.fsum(coverages) / len(coverages),
                single_class_trials=n_trials - len(coverages),
            )
        )
    return rows
