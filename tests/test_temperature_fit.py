"""The Newton temperature fit against the golden-section oracle in temperature_oracle.

The two cannot agree bit for bit: the golden-section search stops where the NLL
is flat to one ulp, about 1e-8 in beta, while Newton converges to the root of
the slope. So every example must raise the same error, or reach an NLL no
worse than the oracle's within rounding, agree on clamping and on the bound
unless the NLL is flat to rounding between the two answers, and, when
unclamped, sit where the slope is zero to rounding.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import temperature_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcrselect import calibration
from tcrselect.calibration import TEMPERATURE_MAX, TEMPERATURE_MIN, fit_temperature
from tcrselect.scorer import ScoreTable
from tcrselect.synthetic import SyntheticSpec, generate

# ties, exact zeros of both signs, and logits large enough that beta*z
# saturates the sigmoid at every beta in the bracket
POOL = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 40.0, -250.0, 300.0, 700.0, -700.0)
EPS = sys.float_info.epsilon
logit_values = st.one_of(st.sampled_from(POOL), st.floats(min_value=-700.0, max_value=700.0))


@st.composite
def calibration_sets(draw):
    """(logits, labels) of 2 to 300 rows: random labels, a single positive, or
    labels that the logits separate or anti-separate.

    Hypothesis draws a few distinct values and the shape; a seeded generator
    spreads them over the rows (which makes ties) among uniform logits, since
    drawing 300 floats one by one is slow."""
    n = draw(st.integers(min_value=2, max_value=300))
    values = draw(st.lists(logit_values, min_size=1, max_size=8))
    tied_share = draw(st.sampled_from((1.0, 0.5, 0.0)))
    spread = draw(st.sampled_from((1e-6, 1.0, 10.0, 700.0)))
    kind = draw(st.sampled_from(("random", "one_positive", "separable", "anti_separable")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tied = rng.random(n) < tied_share
    logits = np.where(tied, rng.choice(values, n), rng.uniform(-spread, spread, n)).tolist()
    if kind == "random":
        labels = (rng.random(n) < draw(st.sampled_from((0.05, 0.5, 0.95)))).tolist()
    elif kind == "one_positive":
        labels = np.arange(n) == rng.integers(n)
    elif kind == "separable":
        labels = [z > 0 for z in logits]
    else:
        labels = [z < 0 for z in logits]
    return logits, [int(y) for y in labels]


def table(logits, labels):
    return ScoreTable(tuple(f"c{i}" for i in range(len(logits))), logits, labels)


def sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


def slope(logits, labels, beta):
    """Mean (sigmoid(beta*z) - y)*z with an exactly rounded sum, and the mean
    of the absolute terms, which sets its rounding level. sigmoid(t) - 1 is
    taken as -sigmoid(-t), which does not cancel."""
    terms = [
        (-sigmoid(-beta * z) if y else sigmoid(beta * z)) * z for z, y in zip(logits, labels)
    ]
    return math.fsum(terms) / len(terms), math.fsum(map(abs, terms)) / len(terms)


def curvature(logits, beta):
    """Mean sigmoid(beta*z)*(1 - sigmoid(beta*z))*z^2."""
    return math.fsum(sigmoid(beta * z) * sigmoid(-beta * z) * z * z for z in logits) / len(logits)


def outcome(fit, cal):
    try:
        return fit(cal), None
    except Exception as err:  # compared by class and message below
        return None, err


def check_against_oracle(logits, labels):
    cal = table(logits, labels)
    model, error = outcome(fit_temperature, cal)
    expected, expected_error = outcome(oracle.fit_temperature, cal)
    if expected_error is not None or error is not None:
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        return
    assert model.nll_before == expected.nll_before
    assert model.n_cal_fit == expected.n_cal_fit
    assert model.nll_after <= expected.nll_after + 1e-12 * max(1.0, expected.nll_after)
    # the clamping may differ only where the oracle stopped on a plateau,
    # short of the bound the package reached, where the two NLLs differ by
    # no more than the rounding of one NLL evaluation
    if model.clamped != expected.clamped:
        assert abs(model.nll_after - expected.nll_after) <= 8 * EPS * max(1.0, expected.nll_after)
    elif expected.clamped:
        assert model.temperature == expected.temperature
    if not model.clamped:
        beta = 1.0 / model.temperature
        g, scale = slope(logits, labels, beta)
        # rounding moves the slope by about eps * scale in the sum and by
        # h * ulp(beta) between adjacent betas
        assert abs(g) <= 16 * EPS * (scale + beta * curvature(logits, beta))


@given(calibration_sets())
@settings(max_examples=300, deadline=None)
@example(([2.0, -2.0], [1, 0]))
@example(([0.0, 0.0, -0.0], [1, 0, 1]))
@example(([300.0, -250.0, 40.0], [1, 0, 0]))
@example(([700.0, -700.0, 700.0], [1, 0, 0]))
@example(([1.192092896e-07, 1.192092896e-07], [1, 0]))
@example(([1e-06, 1e-06], [1, 0]))
@example((
    [2**-24 * k for k in (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1)],
    [0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1],
))
@example(([0.0] * 8 + [-3.347379587729776e-129], [0] * 8 + [1]))
@example(([0.0] * 7 + [-700.0, -3.347379587729776e-129], [0] * 8 + [1]))
def test_fit_matches_oracle(case):
    check_against_oracle(*case)


class TestRegressions:
    def test_separable_gives_t_min(self):
        model = fit_temperature(table([2.0, -2.0], [1, 0]))
        assert (model.temperature, model.clamped) == (TEMPERATURE_MIN, True)

    def test_anti_separable_gives_t_max(self):
        model = fit_temperature(table([2.0, -2.0], [0, 1]))
        assert (model.temperature, model.clamped) == (TEMPERATURE_MAX, True)

    def test_flat_objective_gives_t_min(self):
        # every logit 0: the NLL is log 2 at every T, and the answer is the
        # one the golden-section fit has always given
        model = fit_temperature(table([0.0, 0.0, 0.0], [1, 0, 1]))
        assert (model.temperature, model.clamped) == (TEMPERATURE_MIN, True)
        assert model.nll_after == model.nll_before == math.log(2.0)

    def test_tiny_mixed_set_gives_t_max(self):
        model = fit_temperature(table([2.0, 1.0, -1.0], [0, 1, 1]))
        assert (model.temperature, model.clamped) == (TEMPERATURE_MAX, True)
        check_against_oracle([2.0, 1.0, -1.0], [0, 1, 1])

    def test_large_logits_beat_the_oracle(self):
        logits, labels = [300.0, -250.0, 40.0], [1, 0, 0]
        model = fit_temperature(table(logits, labels))
        expected = oracle.fit_temperature(table(logits, labels))
        assert not model.clamped
        assert model.temperature == pytest.approx(89.291365, abs=5e-7)
        assert expected.temperature == pytest.approx(89.291379, abs=5e-7)
        assert model.nll_after < expected.nll_after


def test_iteration_cap_raises(monkeypatch):
    # an unconverged solve must never return a temperature silently
    monkeypatch.setattr(calibration, "_MAX_ITERATIONS", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
        fit_temperature(generate(SyntheticSpec(n_cal=2000, n_test=2000, seed=29))[0])


@pytest.mark.parametrize("seed", [29, 1])
def test_at_most_twelve_slope_passes_per_fit(monkeypatch, seed):
    # a silent fall-back to bisection still finds the root, but in about 50
    # passes instead of 10
    passes = []
    inner = calibration._slope_and_curvature

    def counted(terms, beta):
        passes[-1] += 1
        return inner(terms, beta)

    monkeypatch.setattr(calibration, "_slope_and_curvature", counted)
    spec = SyntheticSpec(n_cal=2000, n_test=2000, seed=seed)
    for t in range(20):
        passes.append(0)
        model = fit_temperature(generate(replace(spec, seed=seed + t))[0])
        assert not model.clamped
    assert max(passes) <= 12
