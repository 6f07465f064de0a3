"""Temperature scaling and probability-quality metrics.

Temperature scaling rescales logits by a single scalar T fitted to minimize
mean negative log-likelihood on the calibration split. The fit runs over
beta = 1/T, in which the objective mean(softplus(beta*z) - y*beta*z) is convex,
and solves for the zero of its slope by Newton's method with a bisection
fallback. Each iteration is one pass over the calibration rows that gives the
slope and the curvature from a single exp; the NLL itself is evaluated only
for the reported values. The solve uses numpy's exp: its last bits move only
the iterates of a root that converges to within ulps of the exact minimizer,
and reported probabilities still go through the scorer's sigmoid. AUROC is
untouched by scaling (the transform is strictly monotone); only probability
quality changes.

Temperatures are fitted on a score table and applied to one, giving a float64
array. The metrics take probability and label arrays and return Python floats;
their logs, squares and bin means stay per element in libm and math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .scorer import ScoreTable, sigmoid

TEMPERATURE_MIN = 0.05
TEMPERATURE_MAX = 100.0
DEFAULT_ECE_BINS = 15

_NEWTON_RTOL = 1e-12
_MAX_ITERATIONS = 100
_MIN_SHRINK = 0.8
_CLAMP_TOL = 1e-6
_PROB_CLIP = 1e-12


@dataclass(frozen=True)
class TemperatureModel:
    """Fitted temperature with before/after calibration NLL on the fit set."""

    temperature: float
    nll_before: float
    nll_after: float
    n_cal_fit: int
    clamped: bool

    def __post_init__(self) -> None:
        if not TEMPERATURE_MIN <= self.temperature <= TEMPERATURE_MAX:
            raise ValueError(
                f"temperature {self.temperature} outside "
                f"[{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]"
            )
        if self.nll_after > self.nll_before + 1e-9:
            raise ValueError("fitted temperature must not increase calibration NLL")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _mean_nll_at_beta(logits: np.ndarray, labels: np.ndarray, beta: float) -> float:
    zb = logits * beta
    return float(np.mean(np.logaddexp(0.0, zb) - labels * zb))


def _slope_terms(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-row constants of the NLL's derivatives in beta.

    With e = exp(-|beta*z|), sigmoid(beta*z) - y is (p - y + (1 - p - y)*e) / (1 + e),
    where p = 1[z >= 0]: each case is exact, with no 1 - s cancellation.
    """
    positive = (logits >= 0.0).astype(float)
    return (
        np.abs(logits),
        (positive - labels) * logits,
        (1.0 - positive - labels) * logits,
        logits * logits,
    )


def _slope_and_curvature(terms: tuple[np.ndarray, ...], beta: float) -> tuple[float, float]:
    """First and second derivative of the mean NLL at beta, from one exp pass:
    g = mean((s - y)*z) and h = mean(s*(1 - s)*z^2) with s = sigmoid(beta*z)."""
    abs_z, constant, slope, z_squared = terms
    e = np.exp(-beta * abs_z)
    d = 1.0 + e
    g = np.mean((constant + slope * e) / d)
    h = np.mean(e * z_squared / (d * d))
    return float(g), float(h)


def _newton_root(terms: tuple[np.ndarray, ...], a: float, b: float, g: float, h: float) -> float:
    """The root of the NLL's slope in (a, b), given g(a) = g < 0 < g(b) and h = h(a).

    Newton steps start from a. Each evaluated point narrows the bracket, and a
    step that leaves it, needs a non-positive curvature, or is longer than 0.8
    of the step before last (Newton creeps where the slope is exponential in
    beta) bisects instead. Convergence is checked before the safeguard, so a
    converged point is never bisected away.
    """
    beta = a
    last = before_last = b - a
    for _ in range(_MAX_ITERATIONS):
        step = g / h if h > 0.0 else math.inf
        if a < beta - step < b and abs(step) <= _MIN_SHRINK * before_last:
            before_last, last = last, abs(step)
            beta -= step
        else:
            mid = 0.5 * (a + b)
            if not a < mid < b:  # a and b are adjacent floats
                return beta
            before_last, last = last, mid - a
            beta = mid
        g, h = _slope_and_curvature(terms, beta)
        if g == 0.0:
            return beta
        if h > 0.0 and abs(g) <= _NEWTON_RTOL * beta * h:
            return beta - g / h  # the last step is free and squares the error
        if g < 0.0:
            a = beta
        else:
            b = beta
    raise RuntimeError(f"temperature fit did not converge in {_MAX_ITERATIONS} iterations")


def fit_temperature(
    cal: ScoreTable,
    t_min: float = TEMPERATURE_MIN,
    t_max: float = TEMPERATURE_MAX,
) -> TemperatureModel:
    """Fit T on a calibration table by safeguarded Newton on beta = 1/T.

    The slope g of the convex mean NLL is nondecreasing in beta, so its sign
    at the ends of [1/t_max, 1/t_min] decides the answer: g(1/t_min) <= 0 puts
    the optimum at t_min, else g(1/t_max) >= 0 puts it at t_max, else Newton
    finds the interior root. An optimum within 1e-6 of a bracket end snaps to
    that bound, and snapped results report the bound exactly with `clamped`
    set. An NLL at t_min no higher than at the optimum means the objective is
    flat to rounding in between (exactly flat when every logit is 0), and the
    fit gives t_min, clamped, as the golden-section search it replaces did.
    The fitted NLL never exceeds the one at T = 1 when 1 is in range. A
    single-class calibration set is rejected (the objective would push T to a
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
    terms = _slope_terms(logits, labels)
    if _slope_and_curvature(terms, hi)[0] <= 0.0:
        beta = hi
    else:
        g_lo, h_lo = _slope_and_curvature(terms, lo)
        beta = lo if g_lo >= 0.0 else _newton_root(terms, lo, hi, g_lo, h_lo)

    clamped = False
    if beta >= hi - _CLAMP_TOL:
        beta, clamped = hi, True
    elif beta <= lo + _CLAMP_TOL:
        beta, clamped = lo, True

    nll_before = _mean_nll_at_beta(logits, labels, 1.0)
    nll_opt = _mean_nll_at_beta(logits, labels, beta)
    if beta != hi:
        # an NLL flat to the last bit from the optimum to 1/t_min gives t_min,
        # as an exactly flat one (every logit 0) always has
        nll_hi = _mean_nll_at_beta(logits, labels, hi)
        if nll_hi <= nll_opt:
            beta, nll_opt, clamped = hi, nll_hi, True
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


def apply_temperature(table: ScoreTable, model: TemperatureModel) -> np.ndarray:
    """Calibrated probabilities sigmoid(logit / T), in table order."""
    return sigmoid(table.logits / model.temperature)


@dataclass(frozen=True)
class ReliabilityBin:
    """One confidence bin: [lower, upper) except the last bin, which is closed."""

    lower: float
    upper: float
    count: int
    mean_confidence: float | None
    mean_accuracy: float | None


@dataclass(frozen=True)
class ReliabilityTable:
    bins: tuple[ReliabilityBin, ...]
    ece: float
    n: int

    def to_csv(self) -> str:
        lines = ["bin_lower,bin_upper,count,mean_confidence,mean_accuracy"]
        for b in self.bins:
            conf = "" if b.mean_confidence is None else repr(b.mean_confidence)
            acc = "" if b.mean_accuracy is None else repr(b.mean_accuracy)
            lines.append(f"{b.lower!r},{b.upper!r},{b.count},{conf},{acc}")
        return "\n".join(lines) + "\n"


def _validate_pairs(
    probs: Sequence[float], labels: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    if len(probs) != len(labels):
        raise ValueError(f"length mismatch: {len(probs)} probs vs {len(labels)} labels")
    if len(probs) == 0:
        raise ValueError("empty input")
    return np.asarray(probs, dtype=np.float64), np.asarray(labels)


def ece(
    probs: Sequence[float], labels: Sequence[int], n_bins: int = DEFAULT_ECE_BINS
) -> ReliabilityTable:
    """Expected calibration error over equal-width confidence bins on [0.5, 1].

    Confidence is max(p, 1-p), the predicted class is 1[p >= 0.5], and each
    non-empty bin contributes (count/n) * |accuracy - confidence|. Bin
    membership uses floor((conf - 0.5) * 2 * n_bins) clipped to the last bin,
    so boundary confidences land deterministically.
    """
    p, y = _validate_pairs(probs, labels)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    n = len(p)
    width = 0.5 / n_bins
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if len(bad):
        raise ValueError(f"probability {p[bad[0]].item()!r} outside [0, 1]")
    conf = np.where(p >= 0.5, p, 1.0 - p)
    correct = (p >= 0.5) == y  # the predicted class is 1[p >= 0.5]
    idx = np.minimum(((conf - 0.5) * (2 * n_bins)).astype(np.int64), n_bins - 1)
    bins = []
    total = 0.0
    for m in range(n_bins):
        lower = 0.5 + m * width
        upper = 0.5 + (m + 1) * width
        member = idx == m
        count = int(np.count_nonzero(member))
        if not count:
            bins.append(ReliabilityBin(lower, upper, 0, None, None))
            continue
        # fsum is exact, so the order of a bin's members does not matter
        mean_conf = math.fsum(conf[member].tolist()) / count
        mean_acc = int(np.count_nonzero(correct[member])) / count
        bins.append(ReliabilityBin(lower, upper, count, mean_conf, mean_acc))
        total += (count / n) * abs(mean_acc - mean_conf)
    return ReliabilityTable(bins=tuple(bins), ece=total, n=n)


def brier(probs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared error between probabilities and binary labels."""
    p, y = _validate_pairs(probs, labels)
    # Python's ** is libm pow, which numpy's square does not always match
    return math.fsum(d ** 2 for d in (p - y).tolist()) / len(p)


def nll(probs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood; probabilities clipped to [1e-12, 1-1e-12].

    Clipping happens only inside this metric, stored probabilities are never
    modified.
    """
    p, y = _validate_pairs(probs, labels)
    q = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    likelihood = np.where(y == 1, q, 1.0 - q)
    return -math.fsum(map(math.log, likelihood.tolist())) / len(p)
