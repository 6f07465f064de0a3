"""Built-in reference scorer: bag-of-k-mers logistic model on sequence pairs.

Stands in for a heavyweight sequence encoder so the calibration and abstention
machinery downstream can be exercised end to end. Features are overlapping
k-mer counts with separate TCR-side and peptide-side namespaces, built for
training and scoring alike by one vectorized encoder (encode_kmers); the model
is a linear classifier trained by full-batch gradient descent on class-weighted
binary cross-entropy with an l2 penalty. Externally produced logits can be
ingested from a TSV instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

TCR_NAMESPACE = "tcr"
PEPTIDE_NAMESPACE = "pep"
_JOIN = "|"  # keeps k-mers spanning the cdr3a/cdr3b junction distinct

DEFAULT_KMER_SIZE = 3
DEFAULT_L2 = 1e-4


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of every element of a 1-D array.

    exp runs through math.exp one element at a time, because np.exp differs
    from it in the last bit on a few percent of inputs and the probabilities
    in every report must stay the same.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), np.float64, len(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class ScoreTable:
    """Scored examples as columns: ids, raw logits (float64), true labels (int8).

    The columns are checked once on construction: equal lengths, finite
    logits, labels in {0, 1}. Raw probabilities are sigmoid(table.logits).
    """

    ids: tuple[str, ...]
    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        logits = np.asarray(self.logits, dtype=np.float64)
        labels = np.asarray(self.labels)
        if not len(ids) == len(logits) == len(labels):
            raise ValueError(
                f"column lengths differ: {len(ids)} ids, {len(logits)} logits, "
                f"{len(labels)} labels"
            )
        bad = np.flatnonzero(~np.isfinite(logits))
        if len(bad):
            raise ValueError(f"non-finite logit for {ids[bad[0]]!r}")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if len(bad):
            raise ValueError(f"label must be 0 or 1 for {ids[bad[0]]!r}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels.astype(np.int8))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for the built-in scorer."""

    kmer_size: int = DEFAULT_KMER_SIZE
    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = DEFAULT_L2
    seed: int = 0
    include_cdr3a: bool = True

    def __post_init__(self) -> None:
        if self.kmer_size < 1:
            raise ValueError("kmer_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


# Residue digits of the k-mer codes: the 20 amino acids, then the joiner.
_ALPHABET = "ACDEFGHIKLMNPQRSTVWY" + _JOIN
_DIGITS = bytes.maketrans(_ALPHABET.encode("ascii"), bytes(range(len(_ALPHABET))))
_RESIDUES = frozenset(_ALPHABET)
_NAMESPACES = (TCR_NAMESPACE, PEPTIDE_NAMESPACE)


def _code_dtype(kmer_size: int) -> type:
    """Narrowest exact dtype for codes below 2 * 21**k: int32, int64, or
    Python ints (object) when k is too large for int64."""
    top = len(_NAMESPACES) * len(_ALPHABET) ** kmer_size
    for dtype in (np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return object


def _kmer_codes(
    fields: Sequence[str], namespaces: np.ndarray, kmer_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Field and code of every length-k window of fields.

    Windows come in field order, then left to right; a field shorter than k
    has none. A code is the field's namespace number followed by the k residue
    digits in base 21, so two windows share a code exactly when they share
    namespace and k-mer.
    """
    lengths = np.fromiter(map(len, fields), np.int64, len(fields))
    per_field = np.maximum(lengths - kmer_size + 1, 0)
    field = np.repeat(np.arange(len(fields), dtype=np.int32), per_field)
    digits = np.frombuffer("\n".join(fields).encode("ascii").translate(_DIGITS), np.uint8)
    dtype = _code_dtype(kmer_size)
    # the k-mer at every position of the joined text, then only the positions
    # whose k-mer lies inside one field: the first per_field of each field's
    # length + 1 positions (its residues and the newline after them)
    n = max(len(digits) - kmer_size + 1, 0)
    code = digits[:n].astype(dtype)
    for j in range(1, kmer_size):
        code *= len(_ALPHABET)
        code += digits[j : j + n]
    inside = np.repeat(
        np.tile([True, False], len(fields)),
        np.column_stack((per_field, lengths + 1 - per_field)).ravel(),
    )
    code = code[inside[:n]]
    code += namespaces[field].astype(dtype) * len(_ALPHABET) ** kmer_size
    return field, code


@dataclass(frozen=True)
class KmerWindows:
    """Every k-mer window of a dataset, in dataset order.

    Within a row the tcr windows (over cdr3a|cdr3b, or cdr3b alone) come
    first, then the peptide windows, each left to right. fields[2r] is row
    r's tcr string and fields[2r + 1] its peptide; field[i] is the field of
    window i, and code[i] identifies its namespace and k-mer (see _kmer_codes).
    """

    kmer_size: int
    fields: list[str]
    field: np.ndarray
    code: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.fields) // 2

    @property
    def row(self) -> np.ndarray:
        return self.field >> 1

    def kmers(self, index: np.ndarray) -> list[str]:
        """Vocabulary keys, like "tcr:CAS", of the windows at the given positions."""
        per_field = np.bincount(self.field, minlength=len(self.fields))
        field = self.field[index]
        start = index - (np.cumsum(per_field) - per_field)[field]
        k = self.kmer_size
        return [
            _NAMESPACES[f & 1] + ":" + self.fields[f][i : i + k]
            for f, i in zip(field.tolist(), start.tolist())
        ]

    def columns(self, vocabulary: Mapping[str, int]) -> np.ndarray:
        """Vocabulary index of every window, -1 where its k-mer is not a key.

        Keys that no sequence can produce (unknown namespace, wrong length,
        residues outside the alphabet) match nothing.
        """
        kmers, namespaces, indices = [], [], []
        for key, index in vocabulary.items():
            namespace, _, kmer = key.partition(":")
            if namespace in _NAMESPACES and len(kmer) == self.kmer_size and set(kmer) <= _RESIDUES:
                kmers.append(kmer)
                namespaces.append(_NAMESPACES.index(namespace))
                indices.append(index)
        if not kmers:
            return np.full(len(self.code), -1, dtype=np.int32)
        _, key_code = _kmer_codes(kmers, np.array(namespaces, dtype=np.int8), self.kmer_size)
        order = np.argsort(key_code)
        key_code = key_code[order]
        key_index = np.array(indices, dtype=np.int32)[order]
        pos = np.searchsorted(key_code, self.code)
        np.minimum(pos, len(key_code) - 1, out=pos)
        columns = key_index[pos]
        columns[key_code[pos] != self.code] = -1
        return columns


def encode_kmers(data: Dataset, kmer_size: int, include_cdr3a: bool = True) -> KmerWindows:
    """The k-mer windows of every example of data; see KmerWindows."""
    fields = [""] * (2 * len(data))
    fields[0::2] = map(_JOIN.join, zip(data.cdr3a, data.cdr3b)) if include_cdr3a else data.cdr3b
    fields[1::2] = data.peptide
    namespaces = np.tile(np.arange(len(_NAMESPACES), dtype=np.int8), len(data))
    return KmerWindows(kmer_size, fields, *_kmer_codes(fields, namespaces, kmer_size))


def build_vocabulary(windows: KmerWindows) -> dict[str, int]:
    """Map each k-mer of windows to a stable index, in first-seen order."""
    _, first = np.unique(windows.code, return_index=True)
    first.sort()
    return dict(zip(windows.kmers(first), range(len(first))))


def _training_matrix(windows: KmerWindows, vocabulary: Mapping[str, int]) -> csr_matrix:
    """Row-by-k-mer float64 counts, each row's columns ascending.

    Every k-mer of windows must be in vocabulary. The windows already come in
    row order, so each becomes a 1.0 entry of its row in place, and
    sum_duplicates sorts every row and adds up repeated k-mers.
    """
    from scipy.sparse import csr_matrix  # deferred: runs without a matrix never load it

    per_row = np.bincount(windows.row, minlength=windows.n_rows)
    X = csr_matrix(
        (np.ones(len(windows.code)), windows.columns(vocabulary), np.append(0, np.cumsum(per_row))),
        shape=(windows.n_rows, len(vocabulary)),
    )
    X.sum_duplicates()
    return X


def _scoring_matrix(windows: KmerWindows, vocabulary: Mapping[str, int]) -> csr_matrix:
    """Counts with a leading bias column, in the order the logit sums them.

    Column 0 holds 1.0 for the bias, and column i + 1 the count of k-mer i.
    Each row stores the bias first, then its in-vocabulary k-mers in order of
    first occurrence. csr_matvec sums a row from 0.0 in stored order, so a
    logit is ((bias + w1 * c1) + w2 * c2) + ... in exactly that order; a
    sorted-order sum differs in the last bits.
    """
    from scipy.sparse import csr_matrix

    columns = windows.columns(vocabulary)
    hit = columns >= 0
    row, col = windows.row[hit], columns[hit]
    _, first, count = np.unique(
        row.astype(np.int64) * len(vocabulary) + col, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    row, col, count = row[first[order]], col[first[order]], count[order]
    starts = np.searchsorted(row, np.arange(windows.n_rows))
    return csr_matrix(
        (
            np.insert(count.astype(float), starts, 1.0),
            np.insert(col + 1, starts, 0),
            np.append(starts + np.arange(windows.n_rows), len(row) + windows.n_rows),
        ),
        shape=(windows.n_rows, len(vocabulary) + 1),
    )


def class_weights(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Inverse-prevalence weights (w_pos, w_neg) = (n/(2 n_pos), n/(2 n_neg))."""
    if n_pos <= 0 or n_neg <= 0:
        raise ValueError(f"both classes required, got n_pos={n_pos}, n_neg={n_neg}")
    n = n_pos + n_neg
    return n / (2.0 * n_pos), n / (2.0 * n_neg)


# Bound behind skipping the loss. With y in {0, 1}, a per-sample loss
# softplus(z) - y*z lies in [0, |z| + log 2]: softplus(z) <= max(z, 0) + log 2,
# and softplus(z) - z = softplus(-z). With non-negative sample weights, every
# partial sum of the weighted mean is then at most n * max(sw) * (max|z| + 1),
# and the penalty is 0.5*l2*w.w. When both are at most 1e300, the loss is at
# most 2e300, far below overflow even after rounding, so it is finite.
_LOSS_BOUND = 1e300


def _loss_is_bounded(z: np.ndarray, sample_weights: np.ndarray, l2: float, ww: float) -> bool:
    """True when _LOSS_BOUND proves the loss finite. A NaN anywhere fails a
    comparison, so it fails the test."""
    if not len(z):
        return False  # the mean over no samples is NaN
    data = len(z) * float(np.max(sample_weights)) * (float(np.max(np.abs(z))) + 1.0)
    return data <= _LOSS_BOUND and math.isfinite(ww) and 0.5 * l2 * ww <= _LOSS_BOUND


def loss_and_grad(
    X: csr_matrix,
    y: np.ndarray,
    sample_weights: np.ndarray,
    weights: np.ndarray,
    bias: float,
    l2: float,
    want_loss: bool = True,
) -> tuple[float | None, np.ndarray, float]:
    """Class-weighted mean BCE plus 0.5*l2*||w||^2 (bias unpenalized).

    Returns (loss, grad_weights, grad_bias). Per-sample cross-entropy is
    computed as softplus(z) - y*z, which is exact and overflow-safe. y holds
    0/1 labels and sample_weights are non-negative. With want_loss=False the
    loss is None whenever _LOSS_BOUND proves it finite, and exact otherwise.
    """
    n = X.shape[0]
    # overflow to inf is expected when training diverges; the caller checks
    # for a non-finite loss and reports it
    with np.errstate(over="ignore"):
        z = X @ weights
        z += bias
        ww = float(weights @ weights)
        loss = None
        if want_loss or not _loss_is_bounded(z, sample_weights, l2, ww):
            per_sample = np.logaddexp(0.0, z) - y * z
            loss = float(np.mean(sample_weights * per_sample)) + 0.5 * l2 * ww
        # coef = sample_weights * (sigmoid(clip(z)) - y) / n, computed in place
        # in z, one operation at a time in that expression's order, so every
        # value rounds exactly as the expression would
        np.clip(z, -500.0, 500.0, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        z -= y
        np.multiply(sample_weights, z, out=z)
        z /= n
        grad_w = np.asarray(X.T @ z) + l2 * weights
        grad_b = float(np.sum(z))
    return loss, grad_w, grad_b


@dataclass
class LinearScorerModel:
    """Trained linear scorer plus everything needed to reproduce its features."""

    kmer_size: int
    vocabulary: dict[str, int]
    weights: np.ndarray
    bias: float
    class_weights: tuple[float, float]
    include_cdr3a: bool = True
    l2: float = DEFAULT_L2
    learning_rate: float = 0.1
    epochs: int = 300
    seed: int = 0
    final_train_loss: float = float("nan")
    train_fingerprint: str = ""

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.vocabulary),):
            raise ValueError("weights length must equal vocabulary size")
        if sorted(self.vocabulary.values()) != list(range(len(self.vocabulary))):
            raise ValueError("vocabulary indices must be 0 .. size-1, each once")

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        payload.update(
            weights=self.weights.tolist(),
            bias=float(self.bias),
            class_weights=[float(c) for c in self.class_weights],
        )
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LinearScorerModel":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        kwargs = {f.name: raw[f.name] for f in dataclass_fields(cls)}
        # __post_init__ makes the weights a float array
        kwargs.update(
            vocabulary={k: int(v) for k, v in raw["vocabulary"].items()},
            class_weights=tuple(raw["class_weights"]),
        )
        return cls(**kwargs)


def ids_fingerprint(ids: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


def train_linear(
    train: Dataset,
    config: TrainingConfig = TrainingConfig(),
    loss_callback: Callable[[int, float], None] | None = None,
) -> LinearScorerModel:
    """Fit the k-mer logistic scorer on the training split.

    Deterministic: zero initialization, full-batch updates. Class weights come
    from the training split only. Raises if a class is missing, or if the loss
    goes non-finite (the learning rate is too large), naming the first such
    epoch. An epoch computes its exact loss only for loss_callback or when
    loss_and_grad's bound cannot prove it finite; final_train_loss is exact.
    """
    labels = train.labels.astype(float)
    n_pos = int(labels.sum())
    w_pos, w_neg = class_weights(n_pos, len(labels) - n_pos)
    windows = encode_kmers(train, config.kmer_size, config.include_cdr3a)
    vocabulary = build_vocabulary(windows)
    X = _training_matrix(windows, vocabulary)
    del windows  # frees the per-window arrays before gradient descent
    sample_w = np.where(labels == 1.0, w_pos, w_neg)
    weights = np.zeros(len(vocabulary))
    bias = 0.0
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_grad(
            X, labels, sample_w, weights, bias, config.l2, want_loss=loss_callback is not None
        )
        if loss is not None and not math.isfinite(loss):
            raise ValueError(
                f"training diverged at epoch {epoch} (loss not finite); "
                f"reduce learning_rate from {config.learning_rate}"
            )
        if loss_callback is not None:
            loss_callback(epoch, loss)
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
    loss, _, _ = loss_and_grad(X, labels, sample_w, weights, bias, config.l2)
    if not math.isfinite(loss):
        raise ValueError(
            f"training diverged (final loss not finite); "
            f"reduce learning_rate from {config.learning_rate}"
        )
    return LinearScorerModel(
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        class_weights=(w_pos, w_neg),
        final_train_loss=loss,
        train_fingerprint=ids_fingerprint(train.ids),
        # the TrainingConfig fields only, also when config is a subclass of it
        **{f.name: getattr(config, f.name) for f in dataclass_fields(TrainingConfig)},
    )


def score(model: LinearScorerModel, data: Dataset) -> ScoreTable:
    """Logit of every example, in dataset order.

    A logit is the bias plus weight * count over the example's in-vocabulary
    k-mers, summed in order of first occurrence; see _scoring_matrix.
    """
    windows = encode_kmers(data, model.kmer_size, model.include_cdr3a)
    X = _scoring_matrix(windows, model.vocabulary)
    x = np.concatenate(([model.bias], model.weights))
    logits = X @ x
    if model.bias == 0.0 and math.copysign(1.0, model.bias) < 0.0:
        # a logit starts at the bias, and from -0.0 it stays -0.0 while every
        # term is -0.0; csr_matvec starts each row at +0.0 instead
        signed_zero = (x == 0.0) & np.signbit(x)
        logits[(X @ (~signed_zero).astype(float)) == 0.0] = -0.0
    return ScoreTable(data.ids, logits, data.labels)


def export_logits(table: ScoreTable, path: str | Path) -> None:
    """TSV of example_id and logit, one row per line, no header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for example_id, logit in zip(table.ids, table.logits.tolist()):
            handle.write(f"{example_id}\t{logit!r}\n")


def read_logits(path: str | Path) -> dict[str, float]:
    """Parse an external logit TSV: one 'id<TAB>logit' per line, blank lines
    skipped. The first malformed line (wrong field count, duplicate id,
    unparseable or non-finite logit) raises ValueError naming it."""
    logits: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected 'id<TAB>logit', got {line!r}")
            ex_id, raw = parts
            if ex_id in logits:
                raise ValueError(f"duplicate logit for id {ex_id!r}")
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"unparseable logit for id {ex_id!r}: {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"non-finite logit for id {ex_id!r}")
            logits[ex_id] = value
    return logits


def ingest_logits(logits: str | Path | Mapping[str, float], data: Dataset) -> ScoreTable:
    """Join external logits against a dataset's ids and labels.

    logits is a logit TSV (see read_logits) or the mapping read_logits
    returned, so one parse can serve several splits. Every dataset id must
    have a logit; ids that are not in the dataset are permitted. A missing id
    raises ValueError naming the first one in dataset order.
    """
    if not isinstance(logits, Mapping):
        logits = read_logits(logits)
    try:
        values = list(map(logits.__getitem__, data.ids))
    except KeyError:
        missing = next(ex_id for ex_id in data.ids if ex_id not in logits)
        raise ValueError(f"missing logit for id {missing!r}") from None
    return ScoreTable(data.ids, values, data.labels)
