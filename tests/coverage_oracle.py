"""Fitted-temperature coverage trials, the oracle for synthetic._trials.

This is the trial the package ran before the coverage Monte Carlo stopped
fitting a temperature: each trial fits T on its calibration draw, scales both
draws by it, and counts the test rows whose true-label score is within the
threshold fitted on the scaled calibration scores. T is a strictly monotone
rescaling of the margin, so the package's raw-probability coverages must
equal these bit for bit wherever the fit does not clamp T at its lower bound
(there the scaled score rounds on two branches and ties can move a trial).
"""

from dataclasses import replace

import numpy as np

from tcrselect.calibration import apply_temperature, fit_temperature
from tcrselect.conformal import fit_threshold, nonconformity_calibration
from tcrselect.synthetic import SyntheticSpec, generate


def trials(spec: SyntheticSpec) -> list[tuple[float, float]]:
    """(coverage, fitted temperature) of each of spec.n_trials trials; trial t
    uses seed spec.seed + t."""
    result = []
    for t in range(spec.n_trials):
        cal, test = generate(replace(spec, seed=spec.seed + t))
        temperature = fit_temperature(cal)
        cal_scores = nonconformity_calibration(apply_temperature(cal, temperature), cal.labels)
        rule = fit_threshold(cal_scores, spec.epsilon)
        test_scores = nonconformity_calibration(apply_temperature(test, temperature), test.labels)
        if rule.retain_all:
            coverage = 1.0
        else:
            coverage = int(np.count_nonzero(test_scores <= rule.threshold)) / len(test)
        result.append((coverage, temperature.temperature))
    return result
