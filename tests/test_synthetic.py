"""Synthetic score harness: planted miscalibration, coverage experiments."""

import math

import numpy as np
import pytest

import coverage_oracle
import tcrselect.synthetic
from tcrselect.calibration import TEMPERATURE_MIN, ece, fit_temperature
from tcrselect.conformal import quantile_index
from tcrselect.scorer import sigmoid
from tcrselect.synthetic import (
    SyntheticSpec,
    calibration_size_sweep,
    coverage_experiment,
    generate,
)


class TestSpecValidation:
    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_cal=0, n_test=10)
        with pytest.raises(ValueError):
            SyntheticSpec(n_cal=10, n_test=0)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_cal=10, n_test=10, miscalibration_temperature=0.0)

    def test_positive_rate_must_be_reachable(self):
        with pytest.raises(ValueError, match="reachable"):
            SyntheticSpec(n_cal=10, n_test=10, base_positive_rate=0.9)
        with pytest.raises(ValueError, match="reachable"):
            SyntheticSpec(n_cal=10, n_test=10, base_positive_rate=0.01)

    def test_experiment_settings_are_checked_after_the_draw_shape(self):
        with pytest.raises(ValueError, match="epsilon must be in"):
            SyntheticSpec(epsilon=1.0, n_trials=0)
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            SyntheticSpec(n_trials=0, sizes=(0,))
        with pytest.raises(ValueError, match="sizes must all be >= 1, got 0"):
            SyntheticSpec(sizes=(50, 0))
        with pytest.raises(ValueError, match="n_cal and n_test"):
            SyntheticSpec(n_cal=0, epsilon=1.0)


def same_table(a, b):
    return (
        a.ids == b.ids
        and a.logits.tobytes() == b.logits.tobytes()
        and a.labels.tobytes() == b.labels.tobytes()
    )


class TestGenerate:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(n_cal=40, n_test=60, seed=11)
        cal_a, test_a = generate(spec)
        cal_b, test_b = generate(spec)
        assert len(cal_a) == 40 and len(test_a) == 60
        assert same_table(cal_a, cal_b) and same_table(test_a, test_b)

    def test_seed_changes_draw(self):
        cal_a, _ = generate(SyntheticSpec(n_cal=40, n_test=60, seed=11))
        cal_b, _ = generate(SyntheticSpec(n_cal=40, n_test=60, seed=12))
        assert not same_table(cal_a, cal_b)

    def test_probs_clipped_away_from_extremes(self):
        cal, test = generate(SyntheticSpec(n_cal=500, n_test=500, seed=2))
        for table in (cal, test):
            for prob, logit in zip(sigmoid(table.logits), table.logits):
                assert 0.0 < prob < 1.0
                assert math.isfinite(logit)

    def test_positive_rate_near_requested(self):
        spec = SyntheticSpec(n_cal=4000, n_test=4000, base_positive_rate=0.3, seed=9)
        cal, test = generate(spec)
        rate = (int(cal.labels.sum()) + int(test.labels.sum())) / 8000
        assert abs(rate - 0.3) < 0.03

    def test_temperature_fit_recovers_planted_factor(self):
        spec = SyntheticSpec(
            n_cal=6000, n_test=1, miscalibration_temperature=3.0,
            base_positive_rate=0.3, seed=4,
        )
        cal, _ = generate(spec)
        fit = fit_temperature(cal)
        assert fit.temperature == pytest.approx(3.0, abs=0.3)

    def test_identity_temperature_already_calibrated(self):
        spec = SyntheticSpec(
            n_cal=6000, n_test=1, miscalibration_temperature=1.0,
            base_positive_rate=0.3, seed=4,
        )
        cal, _ = generate(spec)
        raw_ece = ece(sigmoid(cal.logits), cal.labels).ece
        assert raw_ece < 0.03


class TestCoverageExperiment:
    def test_mean_coverage_respects_guarantee(self):
        spec = SyntheticSpec(n_cal=200, n_test=500, seed=3, epsilon=0.2, n_trials=50)
        summary = coverage_experiment(spec)
        bound = 1 - 0.2 - 1 / (200 + 1)
        assert summary.mean_coverage >= bound
        assert abs(summary.mean_coverage - 0.8) < 0.03
        assert summary.retain_all_trials == 0
        assert len(summary.coverages) == 50

    def test_retain_all_regime(self):
        # k = ceil(0.99 * 51) = 51 > n_cal, so every trial keeps everything
        assert quantile_index(50, 0.01) == 51
        spec = SyntheticSpec(
            n_cal=50, n_test=80, base_positive_rate=0.3, seed=1, epsilon=0.01, n_trials=5
        )
        with pytest.warns(RuntimeWarning):
            summary = coverage_experiment(spec)
        assert summary.retain_all_trials == 5
        assert summary.coverages == (1.0,) * 5
        assert summary.mean_coverage == 1.0

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_trials=20),
        SyntheticSpec(n_cal=400, epsilon=0.1, seed=101, n_trials=20),
        SyntheticSpec(n_cal=1000, n_test=1000, epsilon=0.05, seed=7919, n_trials=20),
    ], ids=["defaults", "n_cal-400", "n_cal-1000"])
    def test_raw_scores_give_the_fitted_temperature_coverages(self, monkeypatch, spec):
        # T rescales the margin monotonically, so the coverages on raw scores
        # are the bits of the trials that fitted it; coverage fits no T at all
        expected = [coverage for coverage, _ in coverage_oracle.trials(spec)]

        def no_fit(cal):
            raise AssertionError("the coverage experiment fitted a temperature")

        monkeypatch.setattr(tcrselect.synthetic, "fit_temperature", no_fit)
        got = coverage_experiment(spec).coverages
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_a_clamped_temperature_moves_a_trial(self):
        # 5 positives that the logits separate: the fit clamps T at its lower
        # bound, where the scaled scores round on two branches and lose the
        # order of the margins; the raw-score coverage keeps it
        spec = SyntheticSpec(n_cal=200, seed=13, n_trials=1)
        ((fitted, temperature),) = coverage_oracle.trials(spec)
        assert temperature == TEMPERATURE_MIN
        assert (fitted, coverage_experiment(spec).coverages) == (0.7115, (0.7255,))

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            SyntheticSpec(n_cal=50, n_test=50, n_trials=0)


class TestCalibrationSizeSweep:
    def test_row_shapes_and_ece_trend(self):
        spec = SyntheticSpec(
            n_cal=10, n_test=800, base_positive_rate=0.3, seed=5,
            epsilon=0.1, n_trials=10, sizes=(30, 2000),
        )
        rows = calibration_size_sweep(spec)
        assert [r.n_cal for r in rows] == [30, 2000]
        assert rows[1].mean_ece_after < rows[0].mean_ece_after
        for r in rows:
            assert 0.0 <= r.mean_ece_after <= 1.0
            assert 0.0 <= r.mean_coverage <= 1.0

    def test_empty_sizes_rejected(self):
        for sizes in ((), None):
            spec = SyntheticSpec(n_cal=10, n_test=10, epsilon=0.1, sizes=sizes)
            with pytest.raises(ValueError, match="sizes is empty"):
                calibration_size_sweep(spec)

    def test_size_with_only_single_class_draws_is_named(self):
        # one calibration row is always a single class, so no trial of size 1 runs
        spec = SyntheticSpec(n_cal=10, n_test=100, n_trials=3, sizes=(200, 1))
        with pytest.raises(ValueError, match="n_cal 1: .* all 3 trials"):
            calibration_size_sweep(spec)

    def test_coverage_experiment_still_rejects_a_single_class_draw(self):
        spec = SyntheticSpec(n_cal=1, n_test=100, n_trials=3)
        with pytest.raises(ValueError, match="single class"):
            coverage_experiment(spec)
