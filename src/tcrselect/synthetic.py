"""Synthetic score-level harness for coverage and calibration-size experiments.

Generates exchangeable calibration/test score sets with a known miscalibration:
true probabilities p_i come from a two-component Beta mixture skewed toward the
requested positive rate, labels are Bernoulli(p_i), and logits are the true
log-odds multiplied by miscalibration_temperature. Fitting a temperature on
such data should recover the planted factor. No sequence content here; the
sequence-level path goes through the corpus and scorer modules.

A draw is two score tables; a trial is array expressions over them. Every
trial measures coverage on the raw probabilities, which no temperature moves
(see _trials); only the size sweep fits one, for the ECE it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import pstdev

import numpy as np

from .calibration import apply_temperature, ece, fit_temperature
from .conformal import check_epsilon, fit_threshold, nonconformity_calibration, quantile_index
from .scorer import ScoreTable, sigmoid

# mixture components for the true probabilities: binder-like and background
HI_BETA = (8.0, 2.0)   # mean 0.8
LO_BETA = (1.0, 49.0)  # mean 0.02
_P_CLIP = 1e-4  # keeps logits bounded so float sigmoids stay inside (0, 1)

_HI_MEAN = HI_BETA[0] / (HI_BETA[0] + HI_BETA[1])
_LO_MEAN = LO_BETA[0] / (LO_BETA[0] + LO_BETA[1])


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of one synthetic draw, plus the experiment run over it; trial t
    of an experiment uses seed + t. sizes, when set, runs
    calibration_size_sweep over those calibration sizes."""

    n_cal: int = 2000
    n_test: int = 2000
    miscalibration_temperature: float = 3.0
    base_positive_rate: float = 0.045
    seed: int = 29
    epsilon: float = 0.2
    n_trials: int = 200
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_cal < 1 or self.n_test < 1:
            raise ValueError("n_cal and n_test must be >= 1")
        temperature = self.miscalibration_temperature
        if not math.isfinite(temperature):
            raise ValueError(f"miscalibration_temperature must be finite, got {temperature!r}")
        if temperature <= 0:
            raise ValueError("miscalibration_temperature must be > 0")
        if not _LO_MEAN < self.base_positive_rate < _HI_MEAN:
            raise ValueError(
                f"base_positive_rate must lie in ({_LO_MEAN:.3f}, {_HI_MEAN:.3f}) "
                f"to be reachable by the mixture"
            )
        check_epsilon(self.epsilon)
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.sizes and min(self.sizes) < 1:
            raise ValueError(f"sizes must all be >= 1, got {min(self.sizes)}")


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


def _trials(spec: SyntheticSpec, sweep: bool) -> tuple[list[float], list[float]]:
    """Coverages of the trials that ran, and with sweep their test ECEs after
    temperature scaling; trial t uses seed spec.seed + t. A trial whose
    calibration draw holds a single class is skipped with sweep, which has no
    temperature to fit for it, and raises without.

    Coverage uses the same true-label nonconformity on calibration and test,
    the exchangeable quantity the marginal guarantee speaks about, scored on
    the raw probabilities sigmoid(logit): a score fixed before calibration.
    A temperature rescales the margin monotonically, so in exact arithmetic it
    moves no coverage, and it is fitted only for the ECE. In floats, a fit
    clamped at TEMPERATURE_MIN pushes scores below 2**-53, where 1 - p and p
    round differently, and can move a coverage; raw scores keep the order. The
    deployed label-free rule retains a superset of these points.
    """
    coverages, eces = [], []
    for t in range(spec.n_trials):
        cal, test = generate(replace(spec, seed=spec.seed + t))
        if cal.labels.min() == cal.labels.max():
            if sweep:
                continue
            raise ValueError("calibration set contains a single class")
        rule = fit_threshold(nonconformity_calibration(sigmoid(cal.logits), cal.labels),
                             spec.epsilon)
        if rule.retain_all:
            coverages.append(1.0)
        else:
            test_scores = nonconformity_calibration(sigmoid(test.logits), test.labels)
            coverages.append(int(np.count_nonzero(test_scores <= rule.threshold)) / len(test))
        if sweep:
            eces.append(ece(apply_temperature(test, fit_temperature(cal)), test.labels).ece)
    return coverages, eces


def coverage_experiment(spec: SyntheticSpec) -> CoverageSummary:
    """spec.n_trials seeded trials of generate -> fit threshold on raw scores -> coverage.

    Trial t uses seed spec.seed + t. Under exchangeability a trial's expected
    coverage is at least quantile_index(n_cal, epsilon) / (n_cal + 1), which
    is >= 1 - epsilon; without ties it is below 1 - epsilon + 1/(n_cal + 1).
    A single-class calibration draw raises.
    """
    n_trials = spec.n_trials
    # the sentinel depends only on (n_cal, epsilon), so it hits every trial or none
    retain_all = quantile_index(spec.n_cal, spec.epsilon) > spec.n_cal
    coverages, _ = _trials(spec, sweep=False)
    return CoverageSummary(
        epsilon=spec.epsilon,
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


def calibration_size_sweep(spec: SyntheticSpec) -> list[SizeSweepRow]:
    """Mean post-scaling test ECE and mean raw-score coverage at each of spec.sizes.

    spec supplies everything but n_cal, which the sweep overrides per row.
    Larger calibration sets estimate the temperature better, so the ECE column
    is non-increasing in expectation; coverage concentrates near 1 - epsilon.
    A trial whose calibration draw holds a single class is skipped and counted
    in single_class_trials; the means are over the trials that ran. A size at
    which every trial is skipped raises.
    """
    if not spec.sizes:
        raise ValueError("sizes is empty")
    rows = []
    for size in spec.sizes:
        coverages, eces = _trials(replace(spec, n_cal=size), sweep=True)
        if not coverages:
            raise ValueError(
                f"n_cal {size}: the calibration draw holds a single class in all "
                f"{spec.n_trials} trials; cannot fit temperature"
            )
        rows.append(
            SizeSweepRow(
                n_cal=size,
                mean_ece_after=math.fsum(eces) / len(eces),
                mean_coverage=math.fsum(coverages) / len(coverages),
                single_class_trials=spec.n_trials - len(coverages),
            )
        )
    return rows
