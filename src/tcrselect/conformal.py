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

Temperature note: at any T > 0 both scores are one strictly decreasing function
of a margin, the true-label score of y'z (y' = 2y - 1) and the label-free score
of |z|. The threshold is an order statistic, so it is that function at q, the
k-th largest calibration margin: a test row is retained iff |z| >= q, and its
label is sign(z). Decisions and conformal coverage therefore
do not depend on the fitted T, up to rounding ties at the threshold; the
temperature moves only the probabilities and the ECE, NLL and Brier read from
them (Vovk et al. 2005; Angelopoulos & Bates 2021).

Each part's scores are one ScoreTable with a float64 array of calibrated
probabilities; nonconformity scores are arrays too, and the test decisions are
one DecisionTable.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .calibration import TemperatureModel, apply_temperature, fit_temperature
from .data import Dataset
from .scorer import (
    LinearScorerModel,
    ScoreTable,
    TrainingSet,
    ingest_logits,
    read_logits,
    score,
    train_linear,
)

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

    @property
    def vacuous(self) -> bool:
        """Whether the rule retains every row: the label-free test score is at
        most 0.5, so a threshold of 0.5 or more never abstains."""
        return self.retain_all or self.threshold >= 0.5

    def to_json_dict(self) -> dict:
        return dict(asdict(self), retain_all=self.retain_all, vacuous=self.vacuous)


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
    scores = np.asarray(cal_scores, dtype=np.float64)
    threshold = np.partition(scores, k - 1)[k - 1]
    if threshold == 0.0:
        # equal scores are the same bits except 0.0 and -0.0: take the zero
        # that a stable sort (sorted()) puts at k - 1, counting in input order
        threshold = scores[scores == 0.0][k - 1 - np.count_nonzero(scores < 0.0)]
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
# code -> those two cells as decisions_to_tsv writes them
_DECISION_TEXT = {code: "\t".join(cells) for cells, code in _DECISION_CODES.items()}


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
    """The scored and calibrated parts: model (None for external logits),
    temperature, the cal and test score tables, and the calibrated test
    probabilities in table order."""

    scorer_model: LinearScorerModel | None
    temperature: TemperatureModel
    cal: ScoreTable
    test: ScoreTable
    test_probs: np.ndarray


def run_pipeline(
    cal: Dataset, test: Dataset, scorer: TrainingSet | str | Path
) -> PipelineResult:
    """Score the cal and test parts of a split, fit the temperature on cal and
    calibrate test; select then thresholds and decides.

    scorer is a TrainingSet of the split's train part (train the built-in
    k-mer scorer on it) or the path of an external logit TSV covering the cal
    and test ids.
    """
    if isinstance(scorer, TrainingSet):
        model: LinearScorerModel | None = train_linear(scorer, scorer.config)
        cal_table = score(model, cal)
        test_table = score(model, test)
    else:
        model = None
        # one parse of the file serves both joins
        logits = read_logits(scorer)
        cal_table = ingest_logits(logits, cal)
        test_table = ingest_logits(logits, test)
    temperature = fit_temperature(cal_table)
    test_probs = apply_temperature(test_table, temperature)
    return PipelineResult(model, temperature, cal_table, test_table, test_probs)


def select(result: PipelineResult, epsilon: float) -> tuple[ConformalRule, DecisionTable]:
    """The threshold fitted at epsilon on the calibrated cal scores, and the test decisions."""
    cal_probs = apply_temperature(result.cal, result.temperature)
    rule = fit_threshold(nonconformity_calibration(cal_probs, result.cal.labels), epsilon)
    return rule, decide(result.test.ids, result.test_probs, rule)


def decisions_to_tsv(decisions: DecisionTable) -> str:
    """Render decisions as TSV: the header line, then one row per decision."""
    lines = ["\t".join(DECISION_COLUMNS)]
    rows = zip(
        decisions.ids,
        decisions.probs.tolist(),
        decisions.nonconformity.tolist(),
        decisions.predicted.tolist(),
    )
    lines.extend(f"{i}\t{prob!r}\t{s!r}\t{_DECISION_TEXT[code]}" for i, prob, s, code in rows)
    return "\n".join(lines) + "\n"


def _number_cell(number: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"decisions line {number}: {column} must be a number, got {cell!r}"
        ) from None


def decisions_from_tsv(text: str, head: bool = False) -> DecisionTable:
    """Parse decisions_to_tsv output; '#' comment lines are skipped. Rows end
    at LF, CRLF or CR only, since an id may hold any other line separator. A
    row error names its 1-based line in the text. With head, text is the start
    of a file cut short (NotUtf8.head), where having no rows is no error."""
    numbered = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1)
    lines = [(number, line) for number, line in numbered if line and not line.startswith("#")]
    if not lines:
        if head:
            return DecisionTable((), np.empty(0), np.empty(0), np.empty(0, dtype=np.int8))
        raise ValueError("no decision rows found")
    header = tuple(lines[0][1].split("\t"))
    if header != DECISION_COLUMNS:
        raise ValueError(f"unexpected decision header {header!r}")
    line_of: dict[str, int] = {}  # example_id -> its line, in file order
    probs, scores, predicted = [], [], []
    for number, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(DECISION_COLUMNS):
            raise ValueError(f"malformed decision row {line!r}")
        example_id, prob_cell, nonconf_cell, decision, label = fields
        seen = line_of.setdefault(example_id, number)
        if seen != number:
            raise ValueError(
                f"decisions line {number}: example_id {example_id!r} repeats line {seen}"
            )
        prob = _number_cell(number, "prob_calibrated", prob_cell)
        if not 0.0 <= prob <= 1.0:  # NaN fails too
            raise ValueError(
                f"decisions line {number}: prob_calibrated must be in [0, 1], got {prob_cell!r}"
            )
        probs.append(prob)
        nonconf = _number_cell(number, "nonconformity", nonconf_cell)
        if not 0.0 <= nonconf <= 0.5:  # the label-free score's range; NaN fails too
            raise ValueError(
                f"decisions line {number}: nonconformity must be in [0, 0.5], got {nonconf_cell!r}"
            )
        scores.append(nonconf)
        code = _DECISION_CODES.get((decision, label))
        if code is None:
            raise ValueError(
                f"decisions line {number}: expected predict with predicted_label 0 or 1, "
                f"or abstain with none, got {decision!r} with {label!r}"
            )
        predicted.append(code)
    table = DecisionTable(
        tuple(line_of),
        np.array(probs, dtype=np.float64),
        np.array(scores, dtype=np.float64),
        np.array(predicted, dtype=np.int8),
    )
    # decide derives both columns from the probability; repr round-trips them
    expected = nonconformity_test(table.probs)
    label_bad = (table.predicted >= 0) & (table.predicted != (table.probs >= 0.5))
    bad = np.flatnonzero(label_bad | (table.nonconformity != expected))
    if len(bad):
        i = bad[0]
        where = f"decisions line {list(line_of.values())[i]}"
        if label_bad[i]:
            raise ValueError(f"{where}: predicted_label must be {int(probs[i] >= 0.5)} "
                             f"for prob_calibrated {probs[i]!r}, got {predicted[i]}")
        raise ValueError(f"{where}: nonconformity must be {expected[i].item()!r} "
                         f"for prob_calibrated {probs[i]!r}, got {scores[i]!r}")
    return table
