"""Conformal threshold and decisions against a brute-force order-statistic
oracle."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataset_rows import dataset_of
from tcrselect.calibration import apply_temperature
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
    select,
)
from tcrselect.data import SequenceExample
from tcrselect.scorer import TrainingConfig, TrainingSet, sigmoid
from tcrselect.splits import SplitConfig, SplitManifest, split_epitope_held_out, split_random
from tcrselect.toycorpus import motif_corpus


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


@st.composite
def threshold_cases(draw):
    """Calibration scores heavy in ties (signed zeros, repeats, one NaN bit
    pattern, negatives) and an order statistic k in [1, n + 1], where n + 1
    is the retain-all case."""
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 0.0, -0.0, 0.25, 1.0, -1.0, float("nan"))),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    scores = draw(st.lists(value, min_size=1, max_size=200))
    n = len(scores)
    k = draw(st.one_of(st.sampled_from((1, n, n + 1)), st.integers(1, n + 1)))
    return scores, k


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

    @given(threshold_cases())
    @settings(max_examples=400, deadline=None)
    @example(([0.0, -0.0, -1.0, -1.0], 3))  # np.partition returns -0.0 here
    @example(([float("nan"), 0.5, -0.0], 3))
    def test_matches_stable_sort_by_bits(self, case):
        # selection may pick either sign of a tied zero; the rule must return
        # the one a stable sort puts at k - 1, so compare bit patterns
        scores, k = case
        n = len(scores)
        epsilon = (n + 1.5 - k) / (n + 1)  # (1 - epsilon)(n + 1) = k - 0.5
        if k > n:
            with pytest.warns(RuntimeWarning, match="retain"):
                rule = fit_threshold(scores, epsilon)
            assert (rule.quantile_index, rule.threshold) == (k, None)
            return
        rule = fit_threshold(scores, epsilon)
        expected = np.sort(np.array(scores), kind="stable")[k - 1]
        assert rule.quantile_index == k
        assert type(rule.threshold) is float
        assert np.float64(rule.threshold).view(np.uint64) == expected.view(np.uint64)

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

    @pytest.mark.parametrize(
        "threshold, vacuous", [(0.5, True), (0.7, True), (0.4999, False), (0.0, False)]
    )
    def test_vacuous_when_no_label_free_score_exceeds_the_threshold(self, threshold, vacuous):
        # the label-free score 1 - max(p, 1 - p) is at most 0.5, reached at p = 0.5
        rule = self.rule(threshold)
        assert rule.vacuous is vacuous
        assert rule.to_json_dict()["vacuous"] is vacuous
        assert bool(decide(["a"], [0.5], rule).predicted[0] >= 0) is vacuous

    def test_retain_all_is_vacuous(self):
        rule = ConformalRule(epsilon=0.2, n_cal=3, quantile_index=4, threshold=None)
        assert rule.vacuous and rule.to_json_dict()["vacuous"]

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
        text = decisions_to_tsv(decisions)
        assert text.startswith("example_id\t")
        # the '#' provenance header that the reports prepend is skipped
        assert list(decisions_from_tsv("# origin=test\n" + text)) == list(decisions)

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
    return dataset_of(examples)


def run_split(data, manifest, scorer):
    """run_pipeline on the manifest's parts of data: the built-in scorer
    trained on the train part for a TrainingConfig, else the logit TSV."""
    if isinstance(scorer, TrainingConfig):
        train, cal, test = manifest.take(data, "train", "cal", "test")
        return run_pipeline(cal, test, TrainingSet(train, scorer))
    return run_pipeline(*manifest.take(data, "cal", "test"), scorer)


class TestRunPipeline:
    def split(self, data, seed=2):
        return split_random(data, SplitConfig(seed=seed))

    def test_end_to_end_wiring(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        result = run_split(data, manifest, TrainingConfig(epochs=50))
        rule, decisions = select(result, 0.2)
        assert len(decisions) == len(manifest.test_ids)
        assert decisions.ids is result.test.ids
        calibrated = apply_temperature(result.test, result.temperature)
        np.testing.assert_array_equal(decisions.probs, calibrated)
        assert len(result.cal) == len(manifest.cal_ids)
        assert rule.n_cal == len(manifest.cal_ids)
        assert result.scorer_model is not None

    def test_retain_all_equals_plain_thresholding(self):
        data = pipeline_corpus()
        manifest = self.split(data)
        result = run_split(data, manifest, TrainingConfig(epochs=50))
        with pytest.warns(RuntimeWarning):
            rule, decisions = select(result, 0.01)
        assert rule.retain_all
        for decision, prob in zip(decisions, decisions.probs):
            assert decision.decision == DECISION_PREDICT
            assert decision.predicted_label == (1 if prob >= 0.5 else 0)

    def test_manifest_id_outside_dataset_rejected(self):
        # the parts must list exactly the dataset's ids: a manifest of a few
        # of them is refused for the rows it misses, and a manifest of all of
        # them plus one more for the extra id
        data = pipeline_corpus()
        manifest = SplitManifest.from_parts(
            protocol="random", seed=99, parameters={},
            train_ids=("c000",), cal_ids=("c001", "x999"), test_ids=("c002",),
        )
        with pytest.raises(ValueError) as err:
            run_split(data, manifest, TrainingConfig(epochs=5))
        assert str(err.value) == (
            "manifest: 117 dataset id(s) in no part, "
            "e.g. ['c003', 'c004', 'c005', 'c006', 'c007']"
        )
        superset = SplitManifest.from_parts(
            "random", 99, {}, data.ids[:100], (*data.ids[100:110], "x999"), data.ids[110:]
        )
        with pytest.raises(ValueError) as err:
            run_split(data, superset, TrainingConfig(epochs=5))
        assert str(err.value) == "manifest: 1 id(s) not in the dataset, e.g. ['x999']"

    def test_external_logits_route(self, tmp_path):
        data = pipeline_corpus()
        manifest = self.split(data)
        builtin = run_split(data, manifest, TrainingConfig(epochs=50))
        from tcrselect.scorer import export_logits, score

        records = score(builtin.scorer_model, data)
        path = tmp_path / "logits.tsv"
        export_logits(records, path)
        external = run_split(data, manifest, path)
        assert external.scorer_model is None
        assert external.temperature.temperature == builtin.temperature.temperature
        assert list(select(external, 0.2)[1]) == list(select(builtin, 0.2)[1])

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
        cal, test = data.subset(manifest.cal_ids), data.subset(manifest.test_ids)
        dropped = {"cal": cal.ids[0], "test": test.ids[-1]}
        # the test id is always missing; with drop == "cal" the cal id too
        missing = {dropped["test"], dropped[drop]}
        lines = [f"{i}\t0.5" for i in data.ids if i not in missing]
        path = tmp_path / "logits.tsv"
        path.write_text("\n".join(([bad_line] if bad_line else []) + lines) + "\n")
        with pytest.raises(ValueError) as err:
            run_split(data, manifest, path)
        assert str(err.value) == message.format(**dropped)


@pytest.mark.parametrize("split", [split_random, split_epitope_held_out])
def test_temperature_moves_no_decision(split):
    # at any T > 0 a row is retained iff |z| reaches the calibration margin at
    # the threshold's rank, and its label is sign(z): the fitted temperature
    # moves probabilities and their metrics, never a decision
    data = motif_corpus(2000, 1)
    manifest = split(data, SplitConfig(k_test_epitopes=3))
    result = run_split(data, manifest, TrainingConfig())
    _, fitted = select(result, 0.2)
    abstained = np.count_nonzero(fitted.predicted == -1)
    assert 0 < abstained < len(fitted)
    for temperature in (0.3, 1.0, 3.0, 10.0):
        model = replace(result.temperature, temperature=temperature)
        cal_scores = nonconformity_calibration(apply_temperature(result.cal, model),
                                               result.cal.labels)
        rule = fit_threshold(cal_scores, 0.2)
        decisions = decide(result.test.ids, apply_temperature(result.test, model), rule)
        np.testing.assert_array_equal(decisions.predicted, fitted.predicted)


UNIT = 2.0**-53  # the spacing of p on [0.5, 1), so the grid of every 1 - p score
# each score branch lies within about one UNIT of the exact score of its margin,
# so a row that the two rules treat differently scores near the threshold; over
# 160,000 seeded draws like margin_cases the worst such row sat 1.43 UNITs away
MARGIN_RULE_UNITS = 2


@st.composite
def margin_cases(draw):
    """(calibration logits, labels, test logits, T, epsilon). Logits are T times
    a ratio drawn where the scores round differently, and half of them repeat
    a small pool of magnitudes, so that margins tie across rows and branches."""
    t = draw(st.floats(0.05, 100))
    ratios = st.one_of(
        st.sampled_from((0.0, -0.0)),
        st.floats(-UNIT, UNIT),  # exp(-|z/T|) rounds to 1, so p to 0.5
        st.floats(36.7, 800).flatmap(lambda x: st.sampled_from((x, -x))),  # p rounds to 1
        st.floats(-40, 40),
    )
    pool = draw(st.lists(ratios, min_size=1, max_size=6))
    repeated = st.sampled_from(pool).flatmap(lambda x: st.sampled_from((x, -x)))
    logits = st.lists(st.one_of(ratios, repeated).map(lambda x: x * t), min_size=1, max_size=40)
    cal = draw(logits)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(cal), max_size=len(cal)))
    test, epsilon = draw(logits), draw(st.floats(0.01, 0.99))
    return np.array(cal), np.array(labels), np.array(test), t, epsilon


@given(margin_cases())
@settings(max_examples=200, deadline=None)
# threshold 0 from saturated 1 - p scores: a saturated p-branch row reaching q
# abstains, and a 1 - p row short of q is kept
@example((np.array([40.0] * 3), np.array([1, 1, 1]), np.array([-40.0, 39.0]), 1.0, 0.5))
# every margin is kept, and a tiny negative z has p 0.5, so it predicts 1
@example((np.array([-1.0, -1.0]), np.array([1, 1]), np.array([-1e-20]), 1.0, 0.5))
def test_decisions_follow_the_margin_rule(case):
    # in exact arithmetic a row is kept iff |z| >= q, the k-th largest
    # calibration margin y'z, and predicts 1[z >= 0], whatever T is
    cal, labels, test, t, epsilon = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a retain-all rule
        rule = fit_threshold(nonconformity_calibration(sigmoid(cal / t), labels), epsilon)
    probs = sigmoid(test / t)  # apply_temperature at T = t
    decisions = decide([str(i) for i in range(len(test))], probs, rule)
    margins = np.sort(np.where(labels == 1, cal, -cal))[::-1]
    k = rule.quantile_index
    kept = np.abs(test) >= margins[k - 1] if k <= len(cal) else np.ones(len(test), bool)
    expected = np.where(kept, test >= 0, -1)
    for i in np.flatnonzero(decisions.predicted != expected):
        gap = abs(decisions.nonconformity[i] - rule.threshold) if probs[i] != 0.5 else 0.0
        assert gap <= MARGIN_RULE_UNITS * UNIT, (i, probs[i], rule.threshold)


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
