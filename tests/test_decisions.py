"""The columnar decision path against the per-row oracle in decision_oracle, bit for bit."""

import decision_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcrselect.conformal import (
    ConformalRule,
    decide,
    decisions_from_tsv,
    decisions_to_tsv,
    nonconformity_test,
)
from tcrselect.metrics import auprc, coverage_risk_sweep, selective_error

# signed zeros, the argmax boundary, a tie pool and its mirror images, which
# give equal or near-equal nonconformity scores
POOL = (0.0, -0.0, 1.0, 0.5, 0.3, 0.7, 0.25, 0.75, 0.9, 0.1, 0.6)
probabilities = st.one_of(st.sampled_from(POOL), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def cases(draw, max_size=60):
    """(probs, labels, rule): ties, a threshold of None, 0.0, >= 0.5, in between,
    or exactly one row's nonconformity score."""
    probs = draw(st.lists(probabilities, min_size=1, max_size=max_size))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(probs), max_size=len(probs)))
    scores = nonconformity_test(probs).tolist()
    threshold = draw(
        st.one_of(
            st.none(),
            st.just(0.0),
            st.floats(min_value=0.5, max_value=2.0),
            st.floats(min_value=0.0, max_value=0.5),
            st.sampled_from(scores),
        )
    )
    k = 11 if threshold is None else 9
    rule = ConformalRule(epsilon=0.2, n_cal=10, quantile_index=k, threshold=threshold)
    return probs, labels, rule


def ids_for(probs):
    return tuple(f"r{i}" for i in range(len(probs)))


def hexes(values):
    return [None if v is None else v.hex() for v in values]


def point_fields(curve):
    return [
        hexes((p.coverage, p.error_rate, p.ece, p.auprc, p.abstained)) for p in curve.points
    ]


RETAIN_ALL = ConformalRule(epsilon=0.2, n_cal=3, quantile_index=4, threshold=None)
NONE_RETAINED = ConformalRule(epsilon=0.2, n_cal=10, quantile_index=9, threshold=0.0)


@given(cases())
@settings(max_examples=400, deadline=None)
@example(([0.3], [1], NONE_RETAINED))  # a single row, abstaining
@example(([0.6, 0.4, 0.5], [1, 0, 1], NONE_RETAINED))  # every row abstains
@example(([1.0, 0.0, -0.0, 0.5], [1, 0, 0, 1], NONE_RETAINED))  # zero scores are kept
@example(([0.5, 0.5], [0, 1], RETAIN_ALL))
def test_decide_and_selective_error_match_oracle(case):
    probs, labels, rule = case
    ids = ids_for(probs)
    table = decide(ids, probs, rule)
    rows = oracle.decide(zip(ids, probs), rule)
    text = decisions_to_tsv(table)
    assert text == oracle.decisions_to_tsv(rows)
    if rule.vacuous:
        assert (table.predicted >= 0).all()
    # a '#' provenance header, as the reports prepend it, is skipped
    assert list(decisions_from_tsv("# origin=test\n" + text)) == [
        (d.example_id, d.prob_calibrated, d.nonconformity, d.decision, d.predicted_label)
        for d in oracle.decisions_from_tsv(text)
    ]
    coverage, risk = selective_error(table, labels)
    expected = oracle.selective_error(rows, dict(zip(ids, labels)))
    assert hexes((coverage, risk)) == hexes(expected)


grids = st.lists(
    st.one_of(
        st.sampled_from((1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.01)),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ),
    min_size=1,
    max_size=6,
)


@given(cases(max_size=80), grids, st.integers(1, 15))
@settings(max_examples=400, deadline=None)
@example(([0.9], [1], RETAIN_ALL), [1.0, 0.01], 10)  # a single row; an empty retained set
@example(([0.9, 0.8, 0.6], [1, 1, 1], RETAIN_ALL), [1.0, 0.6], 10)  # one class retained
@example(([0.3] * 20 + [0.7] * 20, [0, 1] * 20, RETAIN_ALL), [0.5, 0.55], 10)  # cut inside ties
def test_coverage_risk_sweep_matches_oracle(case, grid, n_bins):
    probs, labels, _ = case
    ids = ids_for(probs)
    curve = coverage_risk_sweep(probs, labels, grid=grid, n_bins=n_bins, source="s")
    expected = oracle.coverage_risk_sweep(
        list(zip(ids, probs)), dict(zip(ids, labels)), grid=grid, n_bins=n_bins, source="s"
    )
    assert point_fields(curve) == point_fields(expected)
    assert curve.to_csv() == expected.to_csv()


@given(cases(max_size=80))
@settings(max_examples=300, deadline=None)
@example(([0.5, 0.5, -0.0, 0.0], [0, 1, 1, 0], RETAIN_ALL))
def test_auprc_matches_oracle(case):
    scores, labels, _ = case
    if not any(labels):
        labels = [1] + labels[1:]
    assert auprc(scores, labels).hex() == oracle.auprc(scores, labels).hex()
