"""Golden-section temperature fit, the oracle for calibration.fit_temperature.

This is the fit the package used before it solved the first-order condition
by safeguarded Newton: a golden-section search over beta = 1/T that costs one
mean-NLL pass per step, about 49 per fit. The two agree to within the
objective's flatness, not bit for bit: the NLL is flat to one ulp over about
1e-8 in beta, which is where the golden-section search stops resolving. So
the package must match this fit's exceptions and clamping exactly and reach
an NLL no worse than this fit's, within rounding.
"""

import math

from tcrselect.calibration import (
    _CLAMP_TOL,
    TEMPERATURE_MAX,
    TEMPERATURE_MIN,
    TemperatureModel,
    _mean_nll_at_beta,
)
from tcrselect.scorer import ScoreTable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_TOL = 1e-8


def fit_temperature(
    cal: ScoreTable,
    t_min: float = TEMPERATURE_MIN,
    t_max: float = TEMPERATURE_MAX,
) -> TemperatureModel:
    """Fit T on a calibration table by golden-section search over beta = 1/T.

    The bracket [1/t_max, 1/t_min] is shrunk to width 1e-8; if the optimum sits
    on a bracket end the temperature snaps to that bound and `clamped` is set.
    A single-class calibration set is rejected (the objective would push T to a
    bound for a degenerate reason).
    """
    if len(cal) == 0:
        raise ValueError("calibration set is empty")
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    labels = cal.labels.astype(float)
    if labels.min() == labels.max():
        raise ValueError("calibration set contains a single class; cannot fit temperature")
    logits = cal.logits

    lo, hi = 1.0 / t_max, 1.0 / t_min
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _mean_nll_at_beta(logits, labels, c)
    fd = _mean_nll_at_beta(logits, labels, d)
    while b - a > _BRACKET_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _mean_nll_at_beta(logits, labels, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _mean_nll_at_beta(logits, labels, d)
    beta = 0.5 * (a + b)

    clamped = False
    if beta >= hi - _CLAMP_TOL:
        beta, clamped = hi, True
    elif beta <= lo + _CLAMP_TOL:
        beta, clamped = lo, True

    nll_before = _mean_nll_at_beta(logits, labels, 1.0)
    nll_opt = _mean_nll_at_beta(logits, labels, beta)
    if lo <= 1.0 <= hi and nll_before < nll_opt:
        beta, nll_opt, clamped = 1.0, nll_before, False

    temperature = 1.0 / beta
    if clamped:
        # remove float residue so the reported bound is exact
        temperature = t_max if beta == lo else t_min
    return TemperatureModel(
        temperature=temperature,
        nll_before=nll_before,
        nll_after=nll_opt,
        n_cal_fit=len(cal),
        clamped=clamped,
    )
