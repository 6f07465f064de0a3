"""Built-in reference scorer: bag-of-k-mers logistic model on sequence pairs.

Stands in for a heavyweight sequence encoder so the calibration and abstention
machinery downstream can be exercised end to end. Features are overlapping
k-mer counts with separate TCR-side and peptide-side namespaces, built for
training and scoring alike by one vectorized encoder (encode_kmers); the model
is a linear classifier trained by Nesterov-accelerated full-batch gradient
descent on class-weighted binary cross-entropy with an l2 penalty. Externally
produced logits can be ingested from a TSV instead.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import cache, cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .data import Dataset, NotPlainText, NotUtf8, ResidueColumn, json_text, split_blocks

TCR_NAMESPACE = "tcr"
PEPTIDE_NAMESPACE = "pep"
_JOIN = "|"  # keeps k-mers spanning the cdr3a/cdr3b junction distinct


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of every element of an array of
    any shape (a scalar gives a 0-d array).

    exp(-|z|) is the real part of numpy's complex exp at -|z| + 0j, which is
    the C library's exp(-|z|) * cos(0): the same bits as math.exp, on every
    CPU. Real np.exp runs numpy's own SIMD kernels, which differ from libm and
    from each other in the last bit on a few percent of inputs.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(-np.abs(z) + 0j).real
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

    kmer_size: int = 3
    epochs: int = 50
    l2: float = 1e-4
    include_cdr3a: bool = True

    def __post_init__(self) -> None:
        if self.kmer_size < 1:
            raise ValueError("kmer_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not math.isfinite(self.l2):
            raise ValueError(f"l2 must be finite, got {self.l2!r}")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


# Residue digits of the k-mer codes: the 20 amino acids, then the joiner.
_ALPHABET = "ACDEFGHIKLMNPQRSTVWY" + _JOIN
_LETTERS = np.frombuffer(_ALPHABET.encode("ascii"), np.uint8)
_DIGIT_OF_BYTE = np.zeros(256, np.uint8)  # the digit of each residue byte
_DIGIT_OF_BYTE[_LETTERS] = np.arange(len(_ALPHABET))
_NAMESPACES = (TCR_NAMESPACE, PEPTIDE_NAMESPACE)
# Rows per block that encode_kmers writes digits and codes for; a block's
# temporaries take tens of bytes per residue, a few MB at typical lengths.
_ENCODE_BLOCK = 8192


def _code_dtype(kmer_size: int) -> type:
    """Narrowest exact dtype for codes below 2 * 21**k: int32, int64, or
    Python ints (object) when k is too large for int64."""
    top = len(_NAMESPACES) * len(_ALPHABET) ** kmer_size
    for dtype in (np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return object


def _kmer_codes(digits: np.ndarray, lengths: np.ndarray, kmer_size: int) -> np.ndarray:
    """Code of every length-k window of fields written back to back as residue
    digits, each followed by one separator whose digit no window reads.

    lengths holds each field's length. Windows come in field order, then left
    to right; a field shorter than k has none. Fields alternate tcr and
    peptide, so field f has namespace number f & 1. A code is that number
    followed by the k residue digits in base 21, so two windows share a code
    exactly when they share namespace and k-mer.
    """
    per_field = np.maximum(lengths - kmer_size + 1, 0)
    # the code at every position of the digits, built in place from the
    # namespace number of the field there (its residues and the separator
    # after them), then only the positions whose k-mer lies inside one field:
    # the first per_field of each field's length + 1 positions
    n = max(len(digits) - kmer_size + 1, 0)
    namespace = (np.arange(len(lengths)) & 1).astype(_code_dtype(kmer_size))
    code = np.repeat(namespace, lengths + 1)[:n]
    for j in range(kmer_size):
        code *= len(_ALPHABET)
        code += digits[j : j + n]
    inside = np.repeat(
        np.tile([True, False], len(lengths)),
        np.column_stack((per_field, lengths + 1 - per_field)).ravel(),
    )
    return code[inside[:n]]


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number every value of codes by its first occurrence.

    Returns (rank, first): rank[i] (int32) is r when codes[i] holds the r-th
    distinct value to appear, counting from 0, and first[r] is the position
    where that value first appears, so first ascends. Codes that are not all
    integers in [0, n), for n codes, are first replaced by their index among
    the distinct codes (np.unique), which always is. A table indexed by code
    then holds each code's first position, then its rank.
    """
    n = len(codes)
    if codes.dtype == object or (n and (codes.min() < 0 or codes.max() >= n)):
        codes = np.unique(codes, return_inverse=True)[1]
    table = np.full(int(codes.max()) + 1 if n else 0, n, dtype=np.int32)
    np.minimum.at(table, codes, np.arange(n, dtype=np.int32))
    first = np.sort(table[table < n])
    table[codes[first]] = np.arange(len(first), dtype=np.int32)
    return table[codes], first


@dataclass(frozen=True)
class KmerWindows:
    """Every k-mer window of a dataset, in dataset order.

    Within a row the tcr windows (over cdr3a|cdr3b, or cdr3b alone) come
    first, then the peptide windows, each left to right. Field 2r is row r's
    tcr string and field 2r + 1 its peptide; per_field[f] is the number of
    windows of field f, and code[i] identifies the namespace and k-mer of
    window i (see _kmer_codes).
    """

    kmer_size: int
    per_field: np.ndarray
    code: np.ndarray

    @property
    def per_row(self) -> np.ndarray:
        """Number of windows of each row."""
        return self.per_field[0::2] + self.per_field[1::2]

    @cached_property
    def first_seen(self) -> tuple[np.ndarray, np.ndarray]:
        """_first_seen(code): every window's k-mer numbered by first occurrence,
        which is its column in build_vocabulary(self)."""
        return _first_seen(self.code)

    def take_first_seen(self) -> tuple[np.ndarray, np.ndarray]:
        """first_seen for a caller that may overwrite its arrays: the cached
        pair is handed over and dropped, so a later read recomputes it."""
        taken = self.__dict__.pop("first_seen", None)
        return _first_seen(self.code) if taken is None else taken

    @cached_property
    def keys(self) -> list[str]:
        """Vocabulary key, like "tcr:CAS", of each distinct k-mer in
        first-seen order: keys[r] names the windows of rank r. Each key is
        read from its code, last digit first."""
        code = self.code[self.first_seen[1]]
        k = self.kmer_size
        letters = np.empty((len(code), k), np.uint8)
        for j in reversed(range(k)):
            letters[:, j] = _LETTERS[(code % len(_ALPHABET)).astype(np.intp)]
            code = code // len(_ALPHABET)
        text = letters.tobytes().decode("ascii")
        return [
            _NAMESPACES[namespace] + ":" + text[i : i + k]
            for namespace, i in zip(code.tolist(), range(0, len(text), k))
        ]

    def columns(self, vocabulary: Mapping[str, int]) -> np.ndarray:
        """Vocabulary index of every window, -1 where its k-mer is not a key.

        Each distinct k-mer is looked up once, by its key; keys that no window
        produces are never asked for.
        """
        lookup = [vocabulary.get(key, -1) for key in self.keys]
        return np.array(lookup, dtype=np.int32)[self.first_seen[0]]


def _place(digits: np.ndarray, starts: np.ndarray, column: ResidueColumn) -> None:
    """Write the residue digits of each sequence of column into digits from
    its start."""
    index = np.repeat(starts - column.offsets[:-1], column.lengths())
    index += np.arange(len(column.data))
    digits[index] = _DIGIT_OF_BYTE[column.data]


def encode_kmers(data: Dataset, kmer_size: int, include_cdr3a: bool = True) -> KmerWindows:
    """The k-mer windows of every example of data; see KmerWindows.

    The window count of every field follows from the sequence lengths, so the
    codes go into one array of their total size. A block of _ENCODE_BLOCK rows
    at a time, each row's tcr field, a separator, its peptide and a separator
    are written as digits straight from the columns' buffers, and the block's
    codes are copied into place.
    """
    tcr_lengths = data.cdr3b.lengths()
    if include_cdr3a:
        tcr_lengths += data.cdr3a.lengths() + 1
    peptide_lengths = np.fromiter(map(len, data.peptide), np.int64, len(data))
    lengths = np.column_stack((tcr_lengths, peptide_lengths)).ravel()
    del tcr_lengths, peptide_lengths
    per_field = np.maximum(lengths - kmer_size + 1, 0)
    code = np.empty(int(per_field.sum()), _code_dtype(kmer_size))
    done = 0
    for start in range(0, len(data), _ENCODE_BLOCK):
        stop = min(start + _ENCODE_BLOCK, len(data))
        block_lengths = lengths[2 * start : 2 * stop]
        field_ends = np.cumsum(block_lengths + 1)  # each past its separator
        field_starts = field_ends - block_lengths - 1
        digits = np.zeros(int(field_ends[-1]), np.uint8)
        tcr_starts = field_starts[0::2]
        if include_cdr3a:
            cdr3a = data.cdr3a.rows(start, stop)
            _place(digits, tcr_starts, cdr3a)
            tcr_starts = tcr_starts + cdr3a.lengths()
            digits[tcr_starts] = len(_ALPHABET) - 1  # the joiner
            tcr_starts += 1
        _place(digits, tcr_starts, data.cdr3b.rows(start, stop))
        _place(digits, field_starts[1::2], ResidueColumn.of(data.peptide[start:stop]))
        block = _kmer_codes(digits, block_lengths, kmer_size)
        code[done : done + len(block)] = block
        done += len(block)
    return KmerWindows(kmer_size, per_field, code)


def build_vocabulary(windows: KmerWindows) -> dict[str, int]:
    """Map each k-mer of windows to a stable index, in first-seen order."""
    return dict(zip(windows.keys, range(len(windows.keys))))


@cache
def _sparsetools() -> Any:
    """scipy's compiled sparse kernels, scipy/sparse/_sparsetools*, found without
    importing scipy and loaded alone: `import scipy.sparse` pulls in array_api_compat,
    numpy.f2py and numpy.testing. Under a name of this package, a later
    `import scipy.sparse` still loads its own module over the same kernels."""
    import importlib.machinery
    import importlib.util

    folder = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "sparse"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / ("_sparsetools" + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(__package__ + "._sparsetools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise RuntimeError(f"scipy's compiled sparse kernels not found: no _sparsetools in {folder}")


@dataclass(frozen=True)
class CountMatrix:
    """Non-negative float64 counts in CSR form: row r stores the columns
    indices[indptr[r]:indptr[r + 1]] with data at the same positions.

    matvec(x) is X @ x and rmatvec(z) is X.T @ z, by scipy's compiled
    csr_matvec and csc_matvec loops called as scipy.sparse's own products
    call them, into fresh zeros: each output element starts at 0.0 and adds
    its terms data[k] * x[indices[k]] (or data[k] * z[row of k]) one at a
    time in stored order, with the bits of csr_matrix @ x and .T @ z.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        # the compiled loops trust these lengths, which csr_matrix checks
        stored = self.indptr[-1] if len(self.indptr) == self.shape[0] + 1 else -1
        if not len(self.indices) == len(self.data) >= stored >= 0:
            raise ValueError(f"CSR arrays do not fit shape {self.shape}")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._product("csr_matvec", self.shape, x)

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        return self._product("csc_matvec", self.shape[::-1], z)

    def _product(self, kernel: str, shape: tuple[int, int], vector: np.ndarray) -> np.ndarray:
        """kernel into shape[0] zeros, as scipy.sparse's _matmul_vector calls it."""
        if vector.shape != shape[1:]:
            raise ValueError(f"{kernel}: vector of shape {vector.shape} for shape {shape}")
        out = np.zeros(shape[0])
        getattr(_sparsetools(), kernel)(*shape, self.indptr, self.indices, self.data, vector, out)
        return out


def _training_matrix(rank: np.ndarray, per_row: np.ndarray) -> CountMatrix:
    """Row-by-k-mer float64 counts, each row's columns ascending.

    rank is every window's first-seen rank (KmerWindows.first_seen), which is
    its column, and per_row the number of windows of each row, whose windows
    follow those of the rows before it. Each window starts as a 1.0 entry of
    its row, in place in rank, which the matrix takes over; then scipy's
    csr_sort_indices and csr_sum_duplicates sort every row and add up
    repeated k-mers in place, as csr_matrix.sum_duplicates does.
    """
    shape = (len(per_row), int(rank.max()) + 1 if len(rank) else 0)
    indptr = np.append(0, np.cumsum(per_row)).astype(np.int32)
    data = np.ones(len(rank))
    kernels = _sparsetools()
    kernels.csr_sort_indices(shape[0], indptr, rank, data)
    kernels.csr_sum_duplicates(*shape, indptr, rank, data)
    return CountMatrix(indptr, rank[: indptr[-1]], data[: indptr[-1]], shape)


# Rows per block that score sums with one bincount. A block's temporaries take
# tens of bytes per window, so a block of typical rows (about 28 windows each)
# holds a few MB, whatever the size of the part scored.
_SCORE_BLOCK = 4096


def class_weights(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Inverse-prevalence weights (w_pos, w_neg) = (n/(2 n_pos), n/(2 n_neg))."""
    if n_pos <= 0 or n_neg <= 0:
        raise ValueError(f"both classes required, got n_pos={n_pos}, n_neg={n_neg}")
    n = n_pos + n_neg
    return n / (2.0 * n_pos), n / (2.0 * n_neg)


def loss_and_grad(
    X: CountMatrix,
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
    loss is None.
    """
    n = X.shape[0]
    z = X.matvec(weights)
    z += bias
    loss = None
    if want_loss:
        per_sample = np.logaddexp(0.0, z) - y * z
        loss = float(np.mean(sample_weights * per_sample)) + 0.5 * l2 * float(weights @ weights)
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
    grad_w = X.rmatvec(z) + l2 * weights
    grad_b = float(np.sum(z))
    return loss, grad_w, grad_b


def _smoothness_bound(X: CountMatrix, sample_weights: np.ndarray, l2: float) -> float:
    """An upper bound on the smoothness constant L of loss_and_grad's loss.

    sigmoid' <= 1/4, so the loss's Hessian is at most A = [X 1]^T diag(sw)
    [X 1] / (4n) plus l2 on the weights. Ten power iterations run on A from
    the all-ones vector. A is non-negative and every column of a training
    matrix has an entry, so v stays positive, and max_j (Av)_j / v_j is at
    least A's largest eigenvalue after any number of iterations (the
    Collatz-Wielandt bound). With no columns, A is the bias entry alone. The
    reductions are np.sum and np.max, whose bits do not depend on the BLAS
    thread count.
    """
    n = X.shape[0]
    v = np.ones(X.shape[1] + 1)  # the weights, then the bias
    for _ in range(10):
        u = sample_weights * (X.matvec(v[:-1]) + v[-1])
        Av = np.append(X.rmatvec(u), np.sum(u)) / (4 * n)
        bound = float(np.max(Av / v))
        v = Av / np.max(Av)
    return bound + l2


@dataclass(frozen=True, kw_only=True)
class LinearScorerModel(TrainingConfig):
    """Trained linear scorer: the TrainingConfig it was trained with, which
    also reproduces its features, plus what training learned."""

    vocabulary: dict[str, int]
    weights: np.ndarray
    bias: float
    class_weights: tuple[float, float]
    step: float = float("nan")
    final_train_loss: float = float("nan")
    train_fingerprint: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.shape != (len(self.vocabulary),):
            raise ValueError("weights length must equal vocabulary size")
        if sorted(self.vocabulary.values()) != list(range(len(self.vocabulary))):
            raise ValueError("vocabulary indices must be 0 .. size-1, each once")

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        payload.update(
            weights=self.weights.tolist(),
            bias=float(self.bias),
            class_weights=[float(c) for c in self.class_weights],
        )
        return json_text(payload)


def ids_fingerprint(ids: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


class TrainingSet:
    """A training part encoded for train_linear under config: its labels,
    class weights and ids fingerprint, and its k-mer windows.

    It keeps no reference to the part, so a caller that lets the part go once
    the set is built has it freed before the vocabulary and the training
    matrix are. train_linear takes the windows over, so a set trains one
    model. Raises, before encoding, if the part lacks a class.
    """

    def __init__(self, train: Dataset, config: TrainingConfig = TrainingConfig()) -> None:
        self.config = config
        self.labels = train.labels.astype(float)
        n_pos = int(self.labels.sum())
        self.class_weights = class_weights(n_pos, len(self.labels) - n_pos)
        self.fingerprint = ids_fingerprint(train.ids)
        self._windows: KmerWindows | None = encode_kmers(
            train, config.kmer_size, config.include_cdr3a
        )

    def take_windows(self) -> KmerWindows:
        """The windows, handed over once."""
        if self._windows is None:
            raise ValueError("this TrainingSet has trained a model; build another to train again")
        windows, self._windows = self._windows, None
        return windows


def train_linear(
    train: Dataset | TrainingSet, config: TrainingConfig = TrainingConfig()
) -> LinearScorerModel:
    """Fit the k-mer logistic scorer on the training split, given as a
    Dataset or as a TrainingSet of it built under config's k-mer setting.

    Deterministic: zero initialization, full-batch updates. Class weights come
    from the training split only; raises if a class is missing. Each epoch is
    one step of Nesterov's accelerated gradient (FISTA without a prox step)
    at step 1 / _smoothness_bound, so no iterate's loss exceeds the loss at
    zero. final_train_loss is the exact loss of the last iterate.
    """
    if isinstance(train, Dataset):
        train = TrainingSet(train, config)
    elif (train.config.kmer_size, train.config.include_cdr3a) != (
        config.kmer_size, config.include_cdr3a
    ):
        raise ValueError("the TrainingSet was built under another k-mer setting than config")
    labels, (w_pos, w_neg) = train.labels, train.class_weights
    windows = train.take_windows()
    vocabulary = build_vocabulary(windows)
    rank, per_row = windows.take_first_seen()[0], windows.per_row
    del windows  # frees the codes before the count matrix is built
    X = _training_matrix(rank, per_row)
    sample_w = np.where(labels == 1.0, w_pos, w_neg)
    step = 1.0 / _smoothness_bound(X, sample_w, config.l2)
    # (weights, bias) is the iterate; the gradient is taken at the
    # extrapolated point (at_w, at_b)
    weights = at_w = np.zeros(len(vocabulary))
    bias = at_b = 0.0
    t = 1.0
    for _ in range(config.epochs):
        _, grad_w, grad_b = loss_and_grad(
            X, labels, sample_w, at_w, at_b, config.l2, want_loss=False
        )
        next_w, next_b = at_w - step * grad_w, at_b - step * grad_b
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = (t - 1.0) / t_next
        at_w = next_w + momentum * (next_w - weights)
        at_b = next_b + momentum * (next_b - bias)
        weights, bias, t = next_w, next_b, t_next
    loss, _, _ = loss_and_grad(X, labels, sample_w, weights, bias, config.l2)
    return LinearScorerModel(
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        class_weights=(w_pos, w_neg),
        step=step,
        final_train_loss=loss,
        train_fingerprint=train.fingerprint,
        # the TrainingConfig fields only, also when config is a subclass of it
        **{f.name: getattr(config, f.name) for f in dataclass_fields(TrainingConfig)},
    )


def score(model: LinearScorerModel, data: Dataset) -> ScoreTable:
    """Logit of every example, in dataset order.

    A logit is ((bias + w1 * c1) + w2 * c2) + ..., over the example's
    in-vocabulary k-mers in order of first occurrence, each with its weight w
    and count c; a sorted-order sum differs in the last bits. The part is
    encoded and looked up in the vocabulary once; then each block of
    _SCORE_BLOCK rows is one bincount, which adds each bin's weights from 0.0
    in input order: every row's bias first, then the terms. A logit reads only
    its own row's windows, so the block size moves no bit of it.
    """
    windows = encode_kmers(data, model.kmer_size, model.include_cdr3a)
    columns, per_row = windows.columns(model.vocabulary), windows.per_row
    del windows  # frees the codes before the first block is built
    offsets = np.append(0, np.cumsum(per_row))
    # a logit starts at the bias, and from -0.0 it stays -0.0 while every term
    # is -0.0; bincount starts each row at +0.0 instead
    negative_zero = model.bias == 0.0 and math.copysign(1.0, model.bias) < 0.0
    logits = np.empty(len(per_row))
    for start in range(0, len(per_row), _SCORE_BLOCK):
        stop = min(start + _SCORE_BLOCK, len(per_row))
        n = stop - start
        block = columns[offsets[start] : offsets[stop]]
        hit = block >= 0
        row = np.repeat(np.arange(n, dtype=np.int32), per_row[start:stop])[hit]
        col = block[hit]
        # each (row, k-mer) pair once, at its first window, times its count
        rank, first = _first_seen(row.astype(np.int64) * len(model.vocabulary) + col)
        terms = model.weights[col[first]]
        terms *= np.bincount(rank)
        row = row[first]
        del hit, col, rank, first
        bins = np.concatenate((np.arange(n, dtype=np.int32), row))
        logits[start:stop] = np.bincount(bins, np.concatenate((np.full(n, model.bias), terms)))
        if negative_zero:
            kept = np.bincount(row, ~((terms == 0.0) & np.signbit(terms)), n)
            logits[start:stop][kept == 0.0] = -0.0
    return ScoreTable(data.ids, logits, data.labels)


def export_logits(table: ScoreTable, path: str | Path) -> None:
    """TSV of example_id and logit, one row per line, no header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for example_id, logit in zip(table.ids, table.logits.tolist()):
            handle.write(f"{example_id}\t{logit!r}\n")


def read_logits(path: str | Path) -> dict[str, float]:
    """Parse an external logit TSV: one 'id<TAB>logit' per line, blank lines and
    a leading byte-order mark skipped. The first malformed line (wrong field
    count, duplicate id, unparseable or non-finite logit) raises ValueError naming it,
    and bytes that are not UTF-8 raise NotUtf8 naming the file and the line
    once the lines above it pass.
    A file with none of these and no blank line is split a block at a time
    (split_blocks); the line loop reads any other, with the same results."""
    logits: dict[str, float] = {}
    rows = 0
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for _, cells in split_blocks(handle, 2):
                ids = cells[::2]
                rows += len(ids)
                logits.update(zip(ids, map(float, cells[1::2])))
        if len(logits) == rows and all(map(math.isfinite, logits.values())):
            return logits
    except (NotPlainText, ValueError):  # a decoding error is a ValueError too
        pass
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return _read_logit_lines(handle)
    except UnicodeDecodeError:
        error = NotUtf8("logits", path)
    # a malformed line above the one that does not decode is named first
    _read_logit_lines(io.StringIO(error.head, newline=None))
    raise error


def _read_logit_lines(lines: Iterable[str]) -> dict[str, float]:
    """read_logits of the lines of any file, one at a time."""
    logits: dict[str, float] = {}
    for line_no, line in enumerate(lines, start=1):
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


def ingest_logits(logits: Mapping[str, float], data: Dataset) -> ScoreTable:
    """Join external logits, as read_logits returns them, against a dataset's
    ids and labels, so one parse can serve several splits. Every dataset id
    must have a logit; ids that are not in the dataset are permitted. A
    missing id raises ValueError naming the first one in dataset order.
    """
    try:
        values = list(map(logits.__getitem__, data.ids))
    except KeyError:
        missing = next(ex_id for ex_id in data.ids if ex_id not in logits)
        raise ValueError(f"missing logit for id {missing!r}") from None
    return ScoreTable(data.ids, values, data.labels)
