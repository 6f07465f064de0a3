"""Conformal threshold and decisions against a brute-force order-statistic
oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcrselect.conformal import (
    DECISION_ABSTAIN,
    DECISION_PREDICT,
    ConformalRule,
    DecisionTable,
    decide,
    decisions_from_tsv,
    decisions_to_tsv,
    fit_threshold,
    nonconformity_calibration,
    nonconformity_test,
    quantile_index,
    run_pipeline,
)
from tcrselect.data import Dataset, SequenceExample
from tcrselect.scorer import TrainingConfig
from tcrselect.splits import SplitManifest, split_random


def oracle_threshold(scores, epsilon):
    """Brute force: enumerate sorted order statistics, pick by the ceil rule."""
    ranked = sorted(scores)
    n = len(ranked)
    k = math.ceil((1 - epsilon) * (n + 1) - 1e-9)
    if k > n:
        return None
    return ranked[k - 1]


class TestNonconformity:
    def test_calibration_values(self):
        assert nonconformity_calibration(0.9, 1) == pytest.approx(0.1, abs=1e-15)
        assert nonconformity_calibration(0.9, 0) == pytest.approx(0.9, abs=1e-15)
        assert nonconformity_calibration(0.5, 1) == 0.5
        assert nonconformity_calibration(0.5, 0) == 0.5

    def test_test_values(self):
        assert nonconformity_test(0.9) == pytest.approx(0.1, abs=1e-15)
        assert nonconformity_test(0.5) == 0.5
        assert nonconformity_test(0.05) == pytest.approx(0.05, abs=1e-15)

    def test_test_score_agrees_with_calibration_on_correct_prediction(self):
        for prob in (0.7, 0.3, 0.95):
            predicted = 1 if prob >= 0.5 else 0
            assert nonconformity_test(prob) == nonconformity_calibration(
                prob, predicted
            )


class TestQuantileIndex:
    def test_worked_example(self):
        assert quantile_index(10, 0.2) == 9

    def test_exceeds_n(self):
        assert quantile_index(9, 0.05) == 10

    def test_float_boundary_snap(self):
        # (1-0.8)*(4+1): exact arithmetic gives 4, binary float gives
        # 4.000000000000001 whose ceil would be 5
        assert quantile_index(4, 0.2) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_index(0, 0.2)
        with pytest.raises(ValueError):
            quantile_index(10, 0.0)
        with pytest.raises(ValueError):
            quantile_index(10, 1.0)


class TestFitThreshold:
    def test_worked_example(self):
        scores = [round(0.1 * i, 1) for i in range(1, 11)]
        rule = fit_threshold(scores, 0.2)
        assert rule.quantile_index == 9
        assert rule.threshold == pytest.approx(0.9, abs=1e-15)
        assert not rule.retain_all

    def test_retain_all_sentinel_warns(self):
        scores = [0.1 * i for i in range(1, 10)]
        with pytest.warns(RuntimeWarning, match="retain"):
            rule = fit_threshold(scores, 0.05)
        assert rule.retain_all
        assert rule.threshold is None

    def test_constant_scores(self):
        rule = fit_threshold([0.3] * 8, 0.5)
        assert rule.threshold == 0.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_threshold([], 0.2)

    def test_matches_oracle_on_random_lists(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 201))
            scores = rng.uniform(0.0, 1.0, size=n).tolist()
            epsilon = float(rng.uniform(0.01, 0.99))
            expected = oracle_threshold(scores, epsilon)
            if expected is None:
                with pytest.warns(RuntimeWarning):
                    rule = fit_threshold(scores, epsilon)
                assert rule.threshold is None
            else:
                rule = fit_threshold(scores, epsilon)
                assert rule.threshold == expected

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_threshold_monotone_in_epsilon(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.0, 1.0, size=50).tolist()
        grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8]
        thresholds = []
        for eps in grid:
            rule = fit_threshold(scores, eps)
            thresholds.append(
                rule.threshold if rule.threshold is not None else float("inf")
            )
        for tighter, looser in zip(thresholds, thresholds[1:]):
            assert tighter >= looser


class TestDecide:
    def rule(self, threshold):
        return ConformalRule(
            epsilon=0.2, n_cal=10, quantile_index=9, threshold=threshold
        )

    def test_confident_predicts_positive(self):
        decisions = list(decide(["a"], [0.95], self.rule(0.1)))
        assert decisions[0].decision == DECISION_PREDICT
        assert decisions[0].predicted_label == 1

    def test_uncertain_abstains(self):
        decisions = list(decide(["a"], [0.6], self.rule(0.1)))
        assert decisions[0].decision == DECISION_ABSTAIN
        assert decisions[0].predicted_label is None

    def test_boundary_tie_retains(self):
        decisions = list(decide(["a"], [0.9], self.rule(0.1)))
        assert decisions[0].decision == DECISION_PREDICT

    def test_half_prob_predicts_one(self):
        decisions = list(decide(["a"], [0.5], self.rule(0.6)))
        assert decisions[0].predicted_label == 1

    def test_retain_all_predicts_everything(self):
        rule = ConformalRule(epsilon=0.2, n_cal=3, quantile_index=4, threshold=None)
        decisions = decide(["a", "b"], [0.51, 0.5], rule)
        assert all(d.decision == DECISION_PREDICT for d in decisions)
        assert [d.predicted_label for d in decisions] == [1, 1]

    def test_order_preserving_under_permutation(self):
        ids = [f"r{i}" for i in range(10)]
        probs = [0.05 + 0.09 * i for i in range(10)]
        rule = self.rule(0.2)
        forward = list(decide(ids, probs, rule))
        backward = list(decide(ids[::-1], probs[::-1], rule))
        assert forward == backward[::-1]


class TestDecisionTsv:
    def sample(self):
        rule = ConformalRule(epsilon=0.2, n_cal=10, quantile_index=9, threshold=0.2)
        return decide(["a", "b"], [0.95, 0.6], rule)

    def test_round_trip(self):
        decisions = self.sample()
        text = decisions_to_tsv(decisions, comments=["origin=test"])
        assert text.startswith("# origin=test\n")
        assert list(decisions_from_tsv(text)) == list(decisions)

    def test_abstain_row_has_blank_label(self):
        decisions = self.sample()
        rows = decisions_to_tsv(decisions).splitlines()
        abstain_row = rows[-1]
        assert abstain_row.endswith("\t")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            decisions_from_tsv("id\tprob\n1\t0.5\n")


RESIDUES = "ACDEFGHIKLMNPQRSTVY"


def pipeline_corpus(n=120, n_pos=40):
    examples = []
    for i in range(n):
        pos = i < n_pos
        tag = RESIDUES[i % 19] + RESIDUES[(i // 19) % 19]
        examples.append(
            SequenceExample(
                id=f"c{i:03d}",
                cdr3a="CAV" + tag + "F",
                cdr3b="CASS" + tag + "F",
                peptide="AAAGILGFV" if pos else "CDEGILGFV",
                epitope_id="EP00" if pos else "EP01",
                label=1 if pos else 0,
            )
        )
    return Dataset(examples)


class TestRunPipeline:
    def split(self, data, seed=2):
        return split_random(data, seed=seed)

    def test_end_to_end_wiring(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        result = run_pipeline(
            data.subset(manifest.train_ids),
            data.subset(manifest.cal_ids),
            data.subset(manifest.test_ids),
            epsilon=0.2,
            training=TrainingConfig(epochs=50),
            manifest=manifest,
        )
        assert len(result.decisions) == len(manifest.test_ids)
        assert result.decisions.ids is result.test.ids
        assert result.decisions.probs is result.test_probs_calibrated
        assert len(result.cal) == len(manifest.cal_ids)
        assert result.rule.n_cal == len(manifest.cal_ids)
        assert result.scorer_model is not None

    def test_retain_all_equals_plain_thresholding(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        with pytest.warns(RuntimeWarning):
            result = run_pipeline(
                data.subset(manifest.train_ids),
                data.subset(manifest.cal_ids),
                data.subset(manifest.test_ids),
                epsilon=0.01,
                training=TrainingConfig(epochs=50),
            )
        assert result.rule.retain_all
        for decision, prob in zip(result.decisions, result.test_probs_calibrated):
            assert decision.decision == DECISION_PREDICT
            assert decision.predicted_label == (1 if prob >= 0.5 else 0)

    def test_overlapping_cal_and_test_rejected(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        cal = data.subset(manifest.cal_ids)
        with pytest.raises(ValueError, match=cal.ids[0]):
            run_pipeline(
                data.subset(manifest.train_ids),
                cal,
                cal,
                epsilon=0.2,
                training=TrainingConfig(epochs=5),
            )

    def test_manifest_mismatch_rejected(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        other = SplitManifest(
            protocol="random", seed=99, parameters={},
            train_ids=("c000",), cal_ids=("c001",), test_ids=("c002",),
        )
        with pytest.raises(ValueError, match="manifest"):
            run_pipeline(
                data.subset(manifest.train_ids),
                data.subset(manifest.cal_ids),
                data.subset(manifest.test_ids),
                epsilon=0.2,
                training=TrainingConfig(epochs=5),
                manifest=other,
            )

    def test_requires_exactly_one_score_source(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        parts = (
            data.subset(manifest.train_ids),
            data.subset(manifest.cal_ids),
            data.subset(manifest.test_ids),
        )
        with pytest.raises(ValueError):
            run_pipeline(*parts, epsilon=0.2)
        with pytest.raises(ValueError):
            run_pipeline(
                *parts, epsilon=0.2,
                training=TrainingConfig(), logits_path="logits.tsv",
            )

    def test_external_logits_route(self, tmp_path):
        data = pipeline_corpus()
        manifest = self.split(data)
        parts = (
            data.subset(manifest.train_ids),
            data.subset(manifest.cal_ids),
            data.subset(manifest.test_ids),
        )
        builtin = run_pipeline(
            *parts, epsilon=0.2, training=TrainingConfig(epochs=50)
        )
        from tcrselect.scorer import export_logits, score

        records = score(builtin.scorer_model, data)
        path = tmp_path / "logits.tsv"
        export_logits(records, path)
        external = run_pipeline(*parts, epsilon=0.2, logits_path=path)
        assert external.scorer_model is None
        assert external.temperature.temperature == builtin.temperature.temperature
        assert list(external.decisions) == list(builtin.decisions)

    @pytest.mark.parametrize(
        "drop, bad_line, message",
        [
            ("test", None, "missing logit for id {test!r}"),
            ("cal", None, "missing logit for id {cal!r}"),
            ("cal", "x\ty\tz", "line 1: expected 'id<TAB>logit', got 'x\\ty\\tz'"),
        ],
        ids=["missing-test-after-clean-cal", "missing-cal-first", "parse-error-first"],
    )
    def test_logit_errors_in_order(self, tmp_path, drop, bad_line, message):
        # the file is parsed once for both joins; parse errors come first,
        # then a missing calibration id, then a missing test id
        data = pipeline_corpus()
        manifest = self.split(data)
        parts = [data.subset(ids) for ids in (
            manifest.train_ids, manifest.cal_ids, manifest.test_ids,
        )]
        dropped = {"cal": parts[1].ids[0], "test": parts[2].ids[-1]}
        # the test id is always missing; with drop == "cal" the cal id too
        missing = {dropped["test"], dropped[drop]}
        lines = [f"{i}\t0.5" for i in data.ids if i not in missing]
        path = tmp_path / "logits.tsv"
        path.write_text("\n".join(([bad_line] if bad_line else []) + lines) + "\n")
        with pytest.raises(ValueError) as err:
            run_pipeline(*parts, epsilon=0.2, logits_path=path)
        assert str(err.value) == message.format(**dropped)


DECISION_HEADER = "example_id\tprob_calibrated\tnonconformity\tdecision\tpredicted_label\n"


def bad_cells(decision, label):
    return (
        "expected predict with predicted_label 0 or 1, or abstain with none, "
        f"got {decision!r} with {label!r}"
    )


class TestDecisionValidation:
    def test_predict_requires_label(self):
        with pytest.raises(ValueError) as err:
            decisions_from_tsv(DECISION_HEADER + "a\t0.9\t0.1\tpredict\t\n")
        assert str(err.value) == "decisions line 2: " + bad_cells("predict", "")

    def test_abstain_forbids_label(self):
        with pytest.raises(ValueError) as err:
            decisions_from_tsv(DECISION_HEADER + "a\t0.6\t0.4\tabstain\t1\n")
        assert str(err.value) == "decisions line 2: " + bad_cells("abstain", "1")

    @pytest.mark.parametrize(
        "decision, label",
        [("predict", "-1"), ("predict", "7"), ("predict", "01"), ("abstain", "-1"),
         ("maybe", "1"), ("PREDICT", "1")],
    )
    def test_bad_cells_name_the_line(self, decision, label):
        # the bad row is line 4: a comment and the header come first
        text = (
            "# origin=test\n" + DECISION_HEADER + "b\t0.6\t0.4\tabstain\t\n"
            + f"a\t0.9\t0.1\t{decision}\t{label}\n"
        )
        with pytest.raises(ValueError) as err:
            decisions_from_tsv(text)
        assert str(err.value) == "decisions line 4: " + bad_cells(decision, label)

    def test_table_rejects_predicted_outside_codes(self):
        with pytest.raises(ValueError, match="predicted must be -1, 0 or 1, got 7 for 'b'"):
            DecisionTable(
                ("a", "b"), np.array([0.9, 0.9]), np.array([0.1, 0.1]),
                np.array([1, 7], dtype=np.int8),
            )

    def test_table_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="decision columns differ in length"):
            DecisionTable(
                ("a", "b"), np.array([0.9]), np.array([0.1, 0.1]),
                np.array([1, 1], dtype=np.int8),
            )

    def test_table_shares_ids_and_probs(self):
        ids, probs = ("a", "b"), np.array([0.9, 0.2])
        rule = ConformalRule(epsilon=0.2, n_cal=10, quantile_index=9, threshold=0.15)
        table = decide(ids, probs, rule)
        assert table.ids is ids and table.probs is probs
        assert table.predicted.dtype == np.int8
        assert table.predicted.tolist() == [1, -1]
