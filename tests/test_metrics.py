"""Discrimination and selective-prediction metrics against all-pairs oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcrselect.cli import main
from tcrselect.conformal import DecisionTable, decisions_to_tsv
from tcrselect.metrics import (
    DEFAULT_COVERAGE_GRID,
    auprc,
    auroc,
    coverage_risk_sweep,
    selective_error,
)
from tcrselect.scorer import sigmoid
from tcrselect.toycorpus import toy_dataset_path


def oracle_auroc(scores, labels):
    """All-pairs enumeration; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.9], [1, 1])

    def test_matches_all_pairs_oracle_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 201))
            scores = rng.choice(
                np.round(rng.uniform(0, 1, size=max(2, n // 3)), 3), size=n
            ).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            assert auroc(scores, labels) == oracle_auroc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(29)
        logits = rng.normal(size=100).tolist()
        labels = rng.integers(0, 2, size=100).tolist()
        labels[0], labels[1] = 0, 1
        raw = sigmoid(np.array(logits)).tolist()
        cooled = sigmoid(np.array(logits) / 3.0).tolist()
        assert auroc(raw, labels) == auroc(cooled, labels)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.1], [1, 0]) == 1.0

    def test_positive_ranked_second(self):
        assert auprc([0.9, 0.8], [0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_top_ranked_single_positive(self):
        assert auprc([0.9, 0.5, 0.1, 0.2], [1, 0, 0, 0]) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            auprc([0.4, 0.6], [0, 0])

    def test_tie_broken_by_input_order(self):
        # equal scores: the earlier row ranks first, so the positive's
        # precision depends on which side of the tie it sits
        first = auprc([0.5, 0.5], [1, 0])
        second = auprc([0.5, 0.5], [0, 1])
        assert first == 1.0
        assert second == 0.5

    def test_random_instances_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            scores = rng.uniform(0, 1, size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            labels[rng.integers(0, n)] = 1
            value = auprc(scores, labels)
            base = sum(labels) / n
            assert base / 1.0 <= 1.0 and 0.0 < value <= 1.0


def make_decisions(probs, retained_mask):
    return DecisionTable(
        tuple(f"d{i}" for i in range(len(probs))),
        np.array(probs),
        np.array([1 - p if p >= 0.5 else p for p in probs]),
        np.array(
            [(1 if p >= 0.5 else 0) if keep else -1 for p, keep in zip(probs, retained_mask)],
            dtype=np.int8,
        ),
    )


class TestSelectiveError:
    def test_worked_example(self):
        # 10 decisions, 8 retained, 6 correct: predicted label is argmax, so
        # correctness is set by the true label
        probs = [0.9] * 8 + [0.6, 0.6]
        decisions = make_decisions(probs, [True] * 8 + [False, False])
        labels = {f"d{i}": 1 if i < 6 else 0 for i in range(10)}
        coverage, risk = selective_error(decisions, [labels[i] for i in decisions.ids])
        assert coverage == pytest.approx(0.8, abs=1e-15)
        assert risk == pytest.approx(0.25, abs=1e-15)

    def test_all_abstain(self):
        decisions = make_decisions([0.6, 0.55], [False, False])
        coverage, risk = selective_error(decisions, [1, 0])
        assert coverage == 0.0
        assert risk is None

    def test_all_correct(self):
        decisions = make_decisions([0.9, 0.1], [True, True])
        coverage, risk = selective_error(decisions, [1, 0])
        assert coverage == 1.0
        assert risk == 0.0

    def test_unknown_id_rejected(self, tmp_path, capsys):
        # labels reach selective_error aligned; a saved decision file is
        # joined to the dataset by id, and an id it lacks is an error
        decisions = make_decisions([0.9], [True])
        path = tmp_path / "d.tsv"
        path.write_text(decisions_to_tsv(decisions))
        argv = ["metrics", "--dataset", str(toy_dataset_path()),
                "--decisions", str(path), "--out", str(tmp_path / "m")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: no label for id 'd0'\n"

    def test_misaligned_labels_rejected(self):
        decisions = make_decisions([0.9, 0.1], [True, True])
        with pytest.raises(ValueError, match="length mismatch"):
            selective_error(decisions, [1])


def sweep(records, labels, **kwargs):
    """coverage_risk_sweep on (id, probability) records and an id -> label map."""
    return coverage_risk_sweep(
        [prob for _, prob in records], [labels[i] for i, _ in records], **kwargs
    )


def graded_records(n=100):
    """Errors concentrate where confidence is lowest."""
    rng = np.random.default_rng(7)
    records = []
    labels = {}
    for i in range(n):
        conf = 0.5 + 0.5 * (i + 1) / (n + 1)
        prob = conf if i % 2 == 0 else 1 - conf
        predicted = 1 if prob >= 0.5 else 0
        # low-confidence rows are wrong, high-confidence rows right
        wrong = i < n // 4
        labels[f"g{i}"] = predicted ^ 1 if wrong else predicted
        records.append((f"g{i}", prob))
    return records, labels


class TestCoverageRiskSweep:
    def test_full_coverage_matches_plain_error_rate(self):
        records, labels = graded_records()
        curve = sweep(records, labels, grid=(1.0,))
        point = curve.points[0]
        wrong = sum(
            1
            for ex_id, prob in records
            if (1 if prob >= 0.5 else 0) != labels[ex_id]
        )
        assert point.coverage == 1.0
        assert point.error_rate == pytest.approx(wrong / len(records), abs=1e-15)
        assert point.abstained == 0.0

    def test_risk_decreases_when_errors_sit_at_low_confidence(self):
        records, labels = graded_records()
        curve = sweep(records, labels)
        risks = [p.error_rate for p in curve.points]
        assert risks == sorted(risks, reverse=True)
        assert risks[-1] < risks[0]

    def test_points_follow_grid_order_and_sum_invariant(self):
        records, labels = graded_records()
        curve = sweep(records, labels)
        assert [p.coverage for p in curve.points] == sorted(
            (p.coverage for p in curve.points), reverse=True
        )
        for p in curve.points:
            assert abs(p.coverage + p.abstained - 1.0) <= 1e-12

    def test_identical_probs_give_flat_risk(self):
        records = [(f"e{i}", 0.7) for i in range(40)]
        labels = {f"e{i}": 1 if i % 4 else 0 for i in range(40)}
        curve = sweep(records, labels)
        risks = {round(p.error_rate, 12) for p in curve.points}
        # stable retention keeps prefix slices, where the error mix varies a
        # little; full coverage must equal the base rate exactly
        assert curve.points[0].error_rate == pytest.approx(0.25, abs=1e-15)
        assert len(risks) >= 1

    def test_single_class_retained_reports_absent_auprc(self):
        records = [("a", 0.9), ("b", 0.8), ("c", 0.6)]
        labels = {"a": 1, "b": 1, "c": 1}
        curve = sweep(records, labels, grid=(1.0, 0.6))
        assert all(p.auprc is None for p in curve.points)

    def test_bad_grid_rejected(self):
        records = [("a", 0.9)]
        with pytest.raises(ValueError):
            sweep(records, {"a": 1}, grid=(0.0,))
        with pytest.raises(ValueError):
            sweep(records, {"a": 1}, grid=(1.2,))

    def test_csv_column_order(self):
        records, labels = graded_records(20)
        curve = sweep(records, labels)
        lines = [
            line
            for line in curve.to_csv().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "coverage,error_rate,ece,auprc,abstained"
        assert len(lines) == 1 + len(DEFAULT_COVERAGE_GRID)

    def test_default_grid(self):
        assert DEFAULT_COVERAGE_GRID == (1.0, 0.9, 0.8, 0.7, 0.6)


class TestFlatRiskOnIndependentNoise:
    def test_sweep_flat_within_binomial_noise(self):
        # correctness independent of confidence: risk should not trend
        rng = np.random.default_rng(41)
        n = 4000
        records = []
        labels = {}
        for i in range(n):
            prob = float(rng.uniform(0.5, 0.999))
            predicted = 1
            wrong = bool(rng.uniform() < 0.3)
            labels[f"f{i}"] = predicted ^ 1 if wrong else predicted
            records.append((f"f{i}", prob))
        curve = sweep(records, labels)
        risks = [p.error_rate for p in curve.points]
        for r in risks:
            # 3 standard errors at the smallest retained size (0.6 * 4000)
            assert abs(r - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / (0.6 * n))
