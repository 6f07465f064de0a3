"""Temperature scaling and calibration metrics against hand values and a
grid-search oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcrselect.calibration import (
    TEMPERATURE_MAX,
    TEMPERATURE_MIN,
    TemperatureModel,
    apply_temperature,
    brier,
    ece,
    fit_temperature,
    nll,
)
from tcrselect.scorer import ScoreTable, sigmoid


def records_from_miscalibrated_grid(factor, n=4001, seed=0):
    """Logits factor * ln(p/(1-p)) over a dense p grid, labels Bernoulli(p)."""
    rng = np.random.default_rng(seed)
    ps = np.linspace(0.02, 0.98, n)
    labels = rng.binomial(1, ps)
    return ScoreTable(
        [f"g{i}" for i in range(n)],
        [factor * math.log(p / (1 - p)) for p in ps],
        labels,
    )


def oracle_beta(records, lo, hi):
    """Two-stage grid search over beta; resolution well under 1e-6."""
    logits = records.logits
    labels = records.labels.astype(float)

    def mean_nll(beta):
        z = beta * logits
        return float(np.mean(np.logaddexp(0.0, z) - labels * z))

    best = min(np.linspace(lo, hi, 20001), key=mean_nll)
    span = (hi - lo) / 20000
    fine_lo = max(lo, best - span)
    fine_hi = min(hi, best + span)
    return min(np.linspace(fine_lo, fine_hi, 20001), key=mean_nll)


class TestFitTemperature:
    def test_recovers_miscalibration_factor_three(self):
        records = records_from_miscalibrated_grid(3.0)
        model = fit_temperature(records)
        assert model.temperature == pytest.approx(3.0, abs=0.15)
        assert not model.clamped

    def test_identity_logits_give_unit_temperature(self):
        records = records_from_miscalibrated_grid(1.0)
        model = fit_temperature(records)
        assert model.temperature == pytest.approx(1.0, abs=0.1)

    def test_matches_grid_oracle_to_1e6(self):
        records = records_from_miscalibrated_grid(3.0, n=801, seed=4)
        model = fit_temperature(records)
        beta = oracle_beta(records, 1 / TEMPERATURE_MAX, 1 / TEMPERATURE_MIN)
        assert abs(1.0 / model.temperature - beta) <= 1e-6

    def test_separable_pair_clamps_low(self):
        records = ScoreTable(("a", "b"), [2.0, -2.0], [1, 0])
        model = fit_temperature(records)
        assert model.temperature == TEMPERATURE_MIN
        assert model.clamped

    def test_never_worsens_nll(self):
        for seed in range(5):
            records = records_from_miscalibrated_grid(0.5, n=301, seed=seed)
            model = fit_temperature(records)
            assert model.nll_after <= model.nll_before + 1e-9

    def test_single_class_rejected(self):
        records = ScoreTable([f"r{i}" for i in range(4)], [0.3 * i for i in range(4)], [1] * 4)
        with pytest.raises(ValueError, match="single class"):
            fit_temperature(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_temperature([])

    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError):
            TemperatureModel(
                temperature=0.0, nll_before=1.0, nll_after=0.5,
                n_cal_fit=10, clamped=False,
            )
        with pytest.raises(ValueError):
            TemperatureModel(
                temperature=1.0, nll_before=0.5, nll_after=0.7,
                n_cal_fit=10, clamped=False,
            )


class TestApplyTemperature:
    def make_model(self, t):
        return TemperatureModel(
            temperature=t, nll_before=1.0, nll_after=0.9,
            n_cal_fit=10, clamped=False,
        )

    def test_unit_temperature_is_identity(self):
        records = ScoreTable(("a", "b"), [0.73, -2.1], [1, 0])
        probs = apply_temperature(records, self.make_model(1.0))
        assert probs.tolist() == sigmoid(records.logits).tolist()

    def test_halving_logit(self):
        records = ScoreTable(("a",), [2.0], [1])
        probs = apply_temperature(records, self.make_model(2.0))
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_zero_logit_stays_half(self):
        records = ScoreTable(("a",), [0.0], [1])
        for t in (0.05, 1.0, 100.0):
            assert apply_temperature(records, self.make_model(t)).tolist() == [0.5]

    def test_order_preserved(self):
        records = ScoreTable(
            [f"r{i}" for i in range(5)],
            [float(i) - 2.0 for i in range(5)],
            [i % 2 for i in range(5)],
        )
        probs = apply_temperature(records, self.make_model(3.0)).tolist()
        assert probs == sorted(probs)


class TestEce:
    def test_perfect_confident_predictor(self):
        table = ece([1.0, 1.0, 1.0], [1, 1, 1])
        assert table.ece == 0.0

    def test_three_sample_hand_value(self):
        table = ece([0.9, 0.8, 0.3], [1, 0, 0])
        assert table.ece == pytest.approx(0.4, abs=1e-12)

    def test_single_sample_hand_value(self):
        table = ece([0.7], [1])
        assert table.ece == pytest.approx(0.3, abs=1e-12)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.001, 0.999, size=200).tolist()
        labels = rng.integers(0, 2, size=200).tolist()
        table = ece(probs, labels)
        assert sum(b.count for b in table.bins) == 200
        assert table.n == 200

    def test_matches_bin_sum_identity(self):
        rng = np.random.default_rng(4)
        probs = rng.uniform(0.001, 0.999, size=500).tolist()
        labels = rng.integers(0, 2, size=500).tolist()
        table = ece(probs, labels)
        total = sum(
            (b.count / 500) * abs(b.mean_accuracy - b.mean_confidence)
            for b in table.bins
            if b.count
        )
        assert table.ece == pytest.approx(total, abs=1e-12)

    def test_calibrated_predictor_near_zero(self):
        rng = np.random.default_rng(5)
        ps = rng.uniform(0.02, 0.98, size=60000)
        labels = rng.binomial(1, ps)
        table = ece(ps.tolist(), labels.tolist())
        assert table.ece < 0.01

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ece([0.5, 0.6], [1])

    def test_out_of_range_prob(self):
        with pytest.raises(ValueError):
            ece([1.5], [1])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 0.99, size=50)
        labels = rng.integers(0, 2, size=50)
        order = rng.permutation(50)
        direct = ece(probs.tolist(), labels.tolist()).ece
        shuffled = ece(probs[order].tolist(), labels[order].tolist()).ece
        assert direct == shuffled

    def test_csv_export(self):
        table = ece([0.9, 0.8, 0.3], [1, 0, 0])
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "bin_lower,bin_upper,count,mean_confidence,mean_accuracy"
        assert len(lines) == 16


class TestBrier:
    def test_perfect(self):
        assert brier([1.0, 0.0], [1, 0]) == 0.0

    def test_uninformative(self):
        assert brier([0.5, 0.5], [1, 0]) == pytest.approx(0.25, abs=1e-15)

    def test_maximal(self):
        assert brier([0.0], [1]) == 1.0

    def test_permutation_invariant(self):
        probs = [0.1, 0.7, 0.3, 0.9]
        labels = [0, 1, 1, 0]
        assert brier(probs, labels) == brier(probs[::-1], labels[::-1])


class TestNll:
    def test_coin_flip(self):
        assert nll([0.5], [1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_near_perfect(self):
        assert nll([1.0 - 1e-12], [1]) == pytest.approx(0.0, abs=1e-9)

    def test_two_sample_hand_value(self):
        assert nll([0.9, 0.9], [1, 0]) == pytest.approx(
            1.2039728043259361, abs=1e-12
        )

    def test_clipping_prevents_infinity(self):
        # 1 - (1 - 1e-12) cancels in float, so only loose agreement with
        # -ln(1e-12) is meaningful here
        assert math.isfinite(nll([1.0], [0]))
        assert nll([1.0], [0]) == pytest.approx(-math.log(1e-12), abs=1e-3)

    def test_permutation_invariant(self):
        probs = [0.1, 0.7, 0.3, 0.9]
        labels = [0, 1, 1, 0]
        assert nll(probs, labels) == nll(probs[::-1], labels[::-1])
