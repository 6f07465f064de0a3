"""Split-conformal abstention on top of calibrated probabilities.

Calibration examples get the true-label nonconformity s = 1 - p^y (1-p)^(1-y);
the threshold is the ceil((1-eps)(n+1))-th smallest calibration score. At test
time the label-free score s = 1 - max(p, 1-p) (the calibration score evaluated
at the predicted label) decides: predict iff s <= threshold, else abstain.

Coverage note: when calibration and test scores are exchangeable, a test
example's true-label score is at most the threshold with probability at least
k/(n_cal+1) >= 1 - eps, where k = ceil((1-eps)(n_cal+1)); without ties it is
also below 1 - eps + 1/(n_cal+1), so the slack lies above 1 - eps, not below.
The label-free score never exceeds the true-label score, so the retained
fraction is at least that coverage. The epitope-held-out and distance-aware
protocols break exchangeability by design; reports always record the protocol
so the guarantee's scope stays visible.

Each part's scores are one ScoreTable with a float64 array of calibrated
probabilities; nonconformity scores are arrays too, and the test decisions are
one DecisionTable.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .calibration import TemperatureModel, apply_temperature, fit_temperature
from .data import Dataset
from .scorer import (
    LinearScorerModel,
    ScoreTable,
    TrainingConfig,
    ids_fingerprint,
    ingest_logits,
    read_logits,
    score,
    train_linear,
)
from .splits import SplitManifest

DECISION_PREDICT = "predict"
DECISION_ABSTAIN = "abstain"


def nonconformity_calibration(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One minus the probability assigned to the true label, per element."""
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if len(bad):
        raise ValueError(f"label must be 0 or 1, got {labels[bad[0]].item()!r}")
    return np.where(labels == 1, 1.0 - probs, probs)


def nonconformity_test(probs: np.ndarray) -> np.ndarray:
    """One minus the probability of the predicted (argmax) label, per element.

    Written branch-wise rather than as 1 - max(prob, 1 - prob) so the result
    is bitwise equal to nonconformity_calibration(prob, argmax_label)."""
    probs = np.asarray(probs, dtype=np.float64)
    return np.where(probs >= 0.5, 1.0 - probs, probs)


def check_epsilon(epsilon: float) -> None:
    """Raise unless the target error level lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")


def quantile_index(n_cal: int, epsilon: float) -> int:
    """ceil((1 - epsilon) * (n_cal + 1)), the 1-based order statistic to take.

    A 1e-9 downward snap keeps decimal-intended integer products (0.8 * 5) from
    being pushed over the ceiling by binary float error. Values above n_cal
    mean the guarantee is unattainable at this calibration size.
    """
    if n_cal < 1:
        raise ValueError("n_cal must be >= 1")
    check_epsilon(epsilon)
    return math.ceil((1.0 - epsilon) * (n_cal + 1) - 1e-9)


@dataclass(frozen=True)
class ConformalRule:
    """Threshold rule fitted on calibration scores.

    threshold is None exactly when the requested quantile exceeds the
    calibration size (retain_all: every prediction is retained).
    """

    epsilon: float
    n_cal: int
    quantile_index: int
    threshold: float | None

    def __post_init__(self) -> None:
        if (self.threshold is None) != (self.quantile_index > self.n_cal):
            raise ValueError("threshold sentinel inconsistent with quantile index")

    @property
    def retain_all(self) -> bool:
        return self.threshold is None

    def to_json_dict(self) -> dict:
        return dict(asdict(self), retain_all=self.retain_all)


def fit_threshold(cal_scores: Sequence[float], epsilon: float) -> ConformalRule:
    """Order-statistic threshold over calibration nonconformity scores.

    When ceil((1-eps)(n+1)) > n the rule degenerates to retain-all; that case
    emits a RuntimeWarning since the coverage target is unattainable at this
    calibration size.
    """
    n = len(cal_scores)
    k = quantile_index(n, epsilon)
    if k > n:
        warnings.warn(
            f"quantile index {k} exceeds calibration size {n}; "
            f"retaining all predictions (grow the calibration set or raise epsilon)",
            RuntimeWarning,
            stacklevel=2,
        )
        return ConformalRule(epsilon=epsilon, n_cal=n, quantile_index=k, threshold=None)
    # a stable sort, like sorted(): of equal scores (0.0 and -0.0) it keeps input order
    threshold = np.sort(np.asarray(cal_scores, dtype=np.float64), kind="stable")[k - 1]
    return ConformalRule(epsilon=epsilon, n_cal=n, quantile_index=k, threshold=float(threshold))


DECISION_COLUMNS = ("example_id", "prob_calibrated", "nonconformity", "decision", "predicted_label")
# one decision as Python scalars, with the decisions.tsv fields
DecisionRow = namedtuple("DecisionRow", DECISION_COLUMNS)
# predicted code -> (decision, predicted_label); -1 encodes abstain
_DECISION_CELLS = {-1: (DECISION_ABSTAIN, None), 0: (DECISION_PREDICT, 0), 1: (DECISION_PREDICT, 1)}
# the (decision, predicted_label) cells of a valid decisions.tsv row -> code
_DECISION_CODES = {
    (DECISION_ABSTAIN, ""): -1, (DECISION_PREDICT, "0"): 0, (DECISION_PREDICT, "1"): 1,
}


@dataclass(frozen=True)
class DecisionTable:
    """Per-example outcomes as columns: ids, calibrated probabilities and
    nonconformity scores (float64 arrays), and predicted (int8 array): the
    predicted label 0 or 1, or -1 for abstain.

    A label is present exactly when predicting by construction of the
    encoding. The columns are checked once: equal lengths, predicted in
    {-1, 0, 1}. Iteration yields DecisionRow tuples, built on demand.
    """

    ids: tuple[str, ...]
    probs: np.ndarray
    nonconformity: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.probs) == len(self.nonconformity) == len(self.predicted):
            raise ValueError("decision columns differ in length")
        bad = np.flatnonzero(~np.isin(self.predicted, (-1, 0, 1)))
        if len(bad):
            raise ValueError(
                f"predicted must be -1, 0 or 1, got {int(self.predicted[bad[0]])} "
                f"for {self.ids[bad[0]]!r}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[DecisionRow]:
        columns = (self.probs.tolist(), self.nonconformity.tolist(), self.predicted.tolist())
        for example_id, prob, s, code in zip(self.ids, *columns):
            yield DecisionRow(example_id, prob, s, *_DECISION_CELLS[code])


def decide(ids: Sequence[str], probs: np.ndarray, rule: ConformalRule) -> DecisionTable:
    """Apply the rule to calibrated probabilities in table order: a row predicts
    its argmax label when its label-free score is at most the threshold, and
    abstains otherwise."""
    probs = np.asarray(probs, dtype=np.float64)
    scores = nonconformity_test(probs)
    predicted = (probs >= 0.5).astype(np.int8)
    if rule.threshold is not None:
        predicted[~(scores <= rule.threshold)] = -1
    return DecisionTable(tuple(ids), probs, scores, predicted)


@dataclass
class PipelineResult:
    """Everything a run produces: model, temperature, rule, score tables, the
    test calibrated probabilities (float64, in table order), decisions."""

    scorer_model: LinearScorerModel | None
    temperature: TemperatureModel
    rule: ConformalRule
    cal: ScoreTable
    test: ScoreTable
    test_probs_calibrated: np.ndarray
    decisions: DecisionTable
    cal_fingerprint: str


def _check_disjoint(train: Dataset, cal: Dataset, test: Dataset) -> None:
    names = ("train", "cal", "test")
    sets = [set(part.ids) for part in (train, cal, test)]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = sets[i] & sets[j]
            if overlap:
                raise ValueError(
                    f"{names[i]}/{names[j]} share id(s), e.g. {sorted(overlap)[0]!r}"
                )


def _check_manifest(
    manifest: SplitManifest, train: Dataset, cal: Dataset, test: Dataset
) -> None:
    for name, part, allowed in (
        ("train", train, set(manifest.train_ids)),
        ("cal", cal, set(manifest.cal_ids)),
        ("test", test, set(manifest.test_ids)),
    ):
        extra = set(part.ids) - allowed
        if extra:
            raise ValueError(
                f"{name} dataset contains id(s) outside the manifest's {name} set, "
                f"e.g. {sorted(extra)[0]!r}"
            )


def run_pipeline(
    train: Dataset,
    cal: Dataset,
    test: Dataset,
    epsilon: float,
    training: TrainingConfig | None = None,
    logits_path: str | None = None,
    manifest: SplitManifest | None = None,
) -> PipelineResult:
    """Train (or ingest) scores, fit temperature and threshold, decide on test.

    Exactly one of `training` (built-in k-mer scorer) and `logits_path`
    (external logit TSV covering cal and test ids) must be given. The three
    datasets must be id-disjoint and, when a manifest is supplied, each must
    stay inside its manifest id set.
    """
    if (training is None) == (logits_path is None):
        raise ValueError("provide exactly one of training (builtin) or logits_path")
    _check_disjoint(train, cal, test)
    if manifest is not None:
        _check_manifest(manifest, train, cal, test)
    if training is not None:
        model: LinearScorerModel | None = train_linear(train, training)
        cal_table = score(model, cal)
        test_table = score(model, test)
    else:
        model = None
        # one parse of the file serves both joins
        logits = read_logits(logits_path)
        cal_table = ingest_logits(logits, cal)
        test_table = ingest_logits(logits, test)
    temperature = fit_temperature(cal_table)
    cal_probs = apply_temperature(cal_table, temperature)
    rule = fit_threshold(nonconformity_calibration(cal_probs, cal_table.labels), epsilon)
    test_probs = apply_temperature(test_table, temperature)
    decisions = decide(test_table.ids, test_probs, rule)
    return PipelineResult(
        scorer_model=model,
        temperature=temperature,
        rule=rule,
        cal=cal_table,
        test=test_table,
        test_probs_calibrated=test_probs,
        decisions=decisions,
        cal_fingerprint=ids_fingerprint(cal_table.ids),
    )


def decisions_to_tsv(decisions: DecisionTable, comments: Sequence[str] = ()) -> str:
    """Render decisions as TSV; leading '#' lines carry provenance."""
    lines = [f"# {text}" for text in comments]
    lines.append("\t".join(DECISION_COLUMNS))
    for d in decisions:
        label = "" if d.predicted_label is None else str(d.predicted_label)
        lines.append(
            f"{d.example_id}\t{d.prob_calibrated!r}\t{d.nonconformity!r}\t{d.decision}\t{label}"
        )
    return "\n".join(lines) + "\n"


def decisions_from_tsv(text: str) -> DecisionTable:
    """Parse decisions_to_tsv output; '#' comment lines are skipped. A row
    error names its 1-based line in the text."""
    numbered = enumerate(text.splitlines(), start=1)
    lines = [(number, line) for number, line in numbered if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no decision rows found")
    header = tuple(lines[0][1].split("\t"))
    if header != DECISION_COLUMNS:
        raise ValueError(f"unexpected decision header {header!r}")
    ids, probs, scores, predicted = [], [], [], []
    for number, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(DECISION_COLUMNS):
            raise ValueError(f"malformed decision row {line!r}")
        example_id, prob, nonconf, decision, label = fields
        probs.append(float(prob))
        scores.append(float(nonconf))
        code = _DECISION_CODES.get((decision, label))
        if code is None:
            raise ValueError(
                f"decisions line {number}: expected predict with predicted_label 0 or 1, "
                f"or abstain with none, got {decision!r} with {label!r}"
            )
        ids.append(example_id)
        predicted.append(code)
    return DecisionTable(
        tuple(ids),
        np.array(probs, dtype=np.float64),
        np.array(scores, dtype=np.float64),
        np.array(predicted, dtype=np.int8),
    )
