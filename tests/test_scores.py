"""The columnar score path against the per-row oracle in score_oracle, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import score_oracle as oracle
from tcrselect.calibration import (
    TEMPERATURE_MAX,
    TEMPERATURE_MIN,
    TemperatureModel,
    apply_temperature,
    brier,
    ece,
    nll,
)
from tcrselect.conformal import nonconformity_calibration, nonconformity_test
from tcrselect.scorer import ScoreTable, sigmoid
from tcrselect.synthetic import SyntheticSpec, _one_trial, coverage_experiment, generate

# signed zeros, the edge of sigmoid saturation near |z| = 37, the ends of
# math.exp's range, and the largest magnitudes drawn
SPECIAL_LOGITS = (
    0.0, -0.0, 36.0, 36.8, 37.0, -37.0, 38.0, -38.0,
    709.0, 710.0, -745.0, -746.0, 5e-324, -5e-324, 1e300, -1e300,
)
logits = st.one_of(
    st.sampled_from(SPECIAL_LOGITS),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-1e300, max_value=1e300),
)
# (probability, label) rows at which numpy's square and log differ in the last
# bit from Python's ** 2 and math.log on x86-64 glibc; rare among random draws
LIBM_SENSITIVE = (
    (0.6392314671615497, 1), (0.15341883652035693, 1),
    (0.7661672490793618, 0), (0.41300244046684265, 0),
    (0.47513114477703766, 1), (0.2153184965996242, 1),
)
rows = st.lists(st.tuples(logits, st.integers(0, 1)), min_size=1, max_size=40)
temperatures = st.one_of(
    st.sampled_from((TEMPERATURE_MIN, TEMPERATURE_MAX, 1.0)),
    st.floats(min_value=TEMPERATURE_MIN, max_value=TEMPERATURE_MAX),
)


def hexes(values):
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


def reliability(table):
    return (
        table.ece.hex(),
        table.n,
        [
            (b.lower.hex(), b.upper.hex(), b.count,
             None if b.mean_confidence is None else b.mean_confidence.hex(),
             None if b.mean_accuracy is None else b.mean_accuracy.hex())
            for b in table.bins
        ],
    )


def assert_metrics_match(probs, expected_probs, label_column):
    """Nonconformity and every probability metric, columnar on an int8 label
    column against per-row on Python ints."""
    labels = label_column.tolist()
    assert hexes(probs.tolist()) == hexes(expected_probs)
    assert hexes(nonconformity_calibration(probs, label_column).tolist()) == hexes(
        [oracle.nonconformity_calibration(p, y) for p, y in zip(expected_probs, labels)]
    )
    assert hexes(nonconformity_test(probs).tolist()) == hexes(
        [oracle.nonconformity_test(p) for p in expected_probs]
    )
    assert reliability(ece(probs, label_column)) == reliability(oracle.ece(expected_probs, labels))
    assert hexes([brier(probs, label_column)]) == hexes([oracle.brier(expected_probs, labels)])
    assert hexes([nll(probs, label_column)]) == hexes([oracle.nll(expected_probs, labels)])


class TestColumnarMatchesOracle:
    @given(rows, temperatures)
    @settings(max_examples=300, deadline=None)
    @example([(-0.0, 1)], TEMPERATURE_MIN)
    @example([(0.0, 0)], TEMPERATURE_MAX)
    @example([(37.0, 1), (38.0, 0), (-38.0, 1)], TEMPERATURE_MIN)
    @example([(1e300, 0), (-1e300, 1)], TEMPERATURE_MAX)
    def test_probabilities_and_metrics(self, pairs, temperature):
        ids = tuple(f"r{i}" for i in range(len(pairs)))
        table = ScoreTable(ids, [z for z, _ in pairs], [y for _, y in pairs])
        records = [
            oracle.ScoreRecord.from_logit(i, z, y) for i, (z, y) in zip(ids, pairs)
        ]
        assert_metrics_match(sigmoid(table.logits), [r.prob_raw for r in records], table.labels)

        model = TemperatureModel(
            temperature=temperature, nll_before=1.0, nll_after=1.0,
            n_cal_fit=len(pairs), clamped=False,
        )
        assert_metrics_match(
            apply_temperature(table, model),
            oracle.apply_temperature(records, model),
            table.labels,
        )

    def test_single_rows_where_numpy_and_libm_differ(self):
        # a mean over many rows hides a last-bit difference in one term
        for prob, label in LIBM_SENSITIVE:
            assert_metrics_match(np.array([prob]), [prob], np.array([label], dtype=np.int8))

    def test_generate_matches_records(self):
        spec = SyntheticSpec(n_cal=300, n_test=200, seed=3)
        for table, records in zip(generate(spec), oracle.generate(spec)):
            assert table.ids == tuple(r.example_id for r in records)
            assert hexes(table.logits.tolist()) == hexes([r.logit for r in records])
            assert table.labels.tolist() == [r.label for r in records]

    def test_trial_with_ece_matches(self):
        for n_cal, n_test, seed in ((30, 40, 0), (200, 1, 5), (500, 700, 9)):
            spec = SyntheticSpec(n_cal=n_cal, n_test=n_test, base_positive_rate=0.3, seed=seed)
            for epsilon in (0.1, 0.2):
                coverage, ece_after = _one_trial(spec, epsilon, want_ece=True)
                expected = oracle.one_trial(spec, epsilon, want_ece=True)
                assert hexes([coverage, ece_after]) == hexes(list(expected))

    def test_coverage_experiment_regression(self):
        for seed in (1, 7919):
            spec = SyntheticSpec(n_cal=2000, n_test=2000, seed=seed)
            summary = coverage_experiment(spec, epsilon=0.2, n_trials=20)
            assert hexes(list(summary.coverages)) == hexes(
                list(oracle.coverages(spec, 0.2, 20))
            )
