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
import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, NotPlainText, json_text, split_blocks

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
_DIGITS = bytes.maketrans(_ALPHABET.encode("ascii"), bytes(range(len(_ALPHABET))))
_NAMESPACES = (TCR_NAMESPACE, PEPTIDE_NAMESPACE)


def _code_dtype(kmer_size: int) -> type:
    """Narrowest exact dtype for codes below 2 * 21**k: int32, int64, or
    Python ints (object) when k is too large for int64."""
    top = len(_NAMESPACES) * len(_ALPHABET) ** kmer_size
    for dtype in (np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return object


def _kmer_codes(fields: Sequence[str], kmer_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Window count of every field, and code of every length-k window.

    Windows come in field order, then left to right; a field shorter than k
    has none. Fields alternate tcr and peptide, so field f has namespace
    number f & 1. A code is that number followed by the k residue digits in
    base 21, so two windows share a code exactly when they share namespace
    and k-mer.
    """
    lengths = np.fromiter(map(len, fields), np.int64, len(fields))
    per_field = np.maximum(lengths - kmer_size + 1, 0)
    digits = np.frombuffer("\n".join(fields).encode("ascii").translate(_DIGITS), np.uint8)
    # the code at every position of the joined text, built in place from the
    # namespace number of the field there (its residues and the newline after
    # them), then only the positions whose k-mer lies inside one field: the
    # first per_field of each field's length + 1 positions
    n = max(len(digits) - kmer_size + 1, 0)
    namespace = (np.arange(len(fields)) & 1).astype(_code_dtype(kmer_size))
    code = np.repeat(namespace, lengths + 1)[:n]
    for j in range(kmer_size):
        code *= len(_ALPHABET)
        code += digits[j : j + n]
    inside = np.repeat(
        np.tile([True, False], len(fields)),
        np.column_stack((per_field, lengths + 1 - per_field)).ravel(),
    )
    return per_field, code[inside[:n]]


def _first_seen_by_table(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_first_seen for integer codes in [0, len(codes)): a table indexed by
    code holds each code's first position, then its rank."""
    n = len(codes)
    table = np.full(int(codes.max()) + 1 if n else 0, n, dtype=np.int32)
    np.minimum.at(table, codes, np.arange(n, dtype=np.int32))
    first = np.sort(table[table < n])
    table[codes[first]] = np.arange(len(first), dtype=np.int32)
    return table[codes], first


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number every value of codes by its first occurrence.

    Returns (rank, first): rank[i] (int32) is r when codes[i] holds the r-th
    distinct value to appear, counting from 0, and first[r] is the position
    where that value first appears, so first ascends. The codes choose the
    path. Integer codes in [0, n), for n codes, take a table of n entries at
    most (_first_seen_by_table). Other integer codes in [0, 2**(62 - bits)),
    where bits is the width of a position, take one sort of the int64 key
    code << bits | position. Object codes, negative ones and wider ones take
    np.unique.
    """
    n = len(codes)
    integer = codes.dtype != object
    low, high = (int(codes.min()), int(codes.max())) if integer and n else (0, -1)
    if integer and low >= 0 and high < n:
        return _first_seen_by_table(codes)
    bits = max(n - 1, 1).bit_length()
    if not integer or low < 0 or high >> (62 - bits):
        _, first, group = np.unique(codes, return_index=True, return_inverse=True)
        position = np.arange(n)  # group is in position order already
    else:
        key = codes.astype(np.int64)
        key <<= bits
        key |= np.arange(n)
        key.sort()
        # equal codes sort together in position order; a group starts where a
        # bit above the position changes
        start = np.empty(n, dtype=bool)
        start[:1] = True
        np.greater(key[1:] ^ key[:-1], (1 << bits) - 1, out=start[1:])
        key &= (1 << bits) - 1
        position = key.astype(np.int32)
        del key
        first = position[start]
        group = np.cumsum(start, dtype=np.int32)
        group -= 1
    # first holds each group's first position, in code order; rank the groups by it
    order = np.argsort(first)
    group_rank = np.empty(len(first), dtype=np.int32)
    group_rank[order] = np.arange(len(first), dtype=np.int32)
    rank = np.empty(n, dtype=np.int32)
    rank[position] = group_rank[group]
    return rank, first[order]


@dataclass(frozen=True)
class KmerWindows:
    """Every k-mer window of a dataset, in dataset order.

    Within a row the tcr windows (over cdr3a|cdr3b, or cdr3b alone) come
    first, then the peptide windows, each left to right. fields[2r] is row
    r's tcr string and fields[2r + 1] its peptide; per_field[f] is the number
    of windows of field f, and code[i] identifies the namespace and k-mer of
    window i (see _kmer_codes).
    """

    kmer_size: int
    fields: list[str]
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
        first-seen order: keys[r] names the windows of rank r."""
        _, first = self.first_seen
        ends = np.cumsum(self.per_field)
        field = np.searchsorted(ends, first, side="right")
        start = first - (ends - self.per_field)[field]
        k = self.kmer_size
        return [
            _NAMESPACES[f & 1] + ":" + self.fields[f][i : i + k]
            for f, i in zip(field.tolist(), start.tolist())
        ]

    def columns(self, vocabulary: Mapping[str, int]) -> np.ndarray:
        """Vocabulary index of every window, -1 where its k-mer is not a key.

        Each distinct k-mer is looked up once, by its key; keys that no window
        produces are never asked for.
        """
        lookup = [vocabulary.get(key, -1) for key in self.keys]
        return np.array(lookup, dtype=np.int32)[self.first_seen[0]]


def encode_kmers(data: Dataset, kmer_size: int, include_cdr3a: bool = True) -> KmerWindows:
    """The k-mer windows of every example of data; see KmerWindows."""
    fields = [""] * (2 * len(data))
    fields[0::2] = map(_JOIN.join, zip(data.cdr3a, data.cdr3b)) if include_cdr3a else data.cdr3b
    fields[1::2] = data.peptide
    return KmerWindows(kmer_size, fields, *_kmer_codes(fields, kmer_size))


def build_vocabulary(windows: KmerWindows) -> dict[str, int]:
    """Map each k-mer of windows to a stable index, in first-seen order."""
    return dict(zip(windows.keys, range(len(windows.keys))))


@dataclass(frozen=True)
class CountMatrix:
    """Non-negative float64 counts in CSR form: row r stores the columns
    indices[indptr[r]:indptr[r + 1]] with data at the same positions.

    matvec(x) is X @ x and rmatvec(z) is X.T @ z. Each output element starts
    at 0.0 and adds its terms data[k] * x[indices[k]] (or data[k] * z[row of
    k]) one at a time in stored order. With compiled, a scipy csr_matrix over
    these same arrays, scipy's csr_matvec and csc_matvec loops do that; without
    it, numpy's bincount, which adds each weight into its bin in input order.
    The two give the same bits as long as scipy's C++ loop does not fuse the
    multiply and the add into one rounding, which the tests check.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    compiled: Any = None  # scipy.sparse.csr_matrix over indptr, indices and data

    @cached_property
    def rows(self) -> np.ndarray:
        """Row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def _compiled_transpose(self) -> Any:
        return self.compiled.T  # a csc_matrix view on the same arrays

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.compiled is not None:
            return self.compiled @ x
        return _sum_into(self.rows, self.data * x[self.indices], self.shape[0])

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        if self.compiled is not None:
            return self._compiled_transpose @ z
        return _sum_into(self.indices, self.data * z[self.rows], self.shape[1])


def _sum_into(bins: np.ndarray, terms: np.ndarray, length: int) -> np.ndarray:
    """out[b] = sum of the terms in bin b, from 0.0 in input order: bincount,
    which returns integer zeros for no bins, as float64 in every case."""
    return np.bincount(bins, terms, length).astype(np.float64, copy=False)


# A fit makes epochs + 11 forward and transpose product pairs: one per epoch,
# ten in _smoothness_bound's power iteration and one for the final loss. In
# process CPU on one core of a 2-core x86-64 host (numpy 2.4, scipy 1.17), a
# bincount pair cost 9-16 ns per stored entry more than scipy's compiled pair
# (12k to 1.9M entries), and `import scipy.sparse` after numpy cost 0.13-0.15
# s. So the import pays for itself above about 1.3e7 window-pairs: 210k
# windows at the default 50 epochs.
_COMPILED_BUDGET = 13_000_000


def _compiled_pays(n_windows: int, epochs: int) -> bool:
    """Whether a fit over n_windows k-mer windows for epochs epochs should
    run on scipy's compiled products rather than numpy's bincount."""
    return n_windows * (epochs + 11) > _COMPILED_BUDGET


def _training_matrix(
    rank: np.ndarray, per_row: np.ndarray, epochs: int = TrainingConfig.epochs
) -> CountMatrix:
    """Row-by-k-mer float64 counts, each row's columns ascending, for a fit of
    epochs epochs.

    rank is every window's first-seen rank (KmerWindows.first_seen), which is
    its column, and per_row the number of windows of each row, whose windows
    follow those of the rows before it. The matrix takes rank over and may
    overwrite it. Below the budget (_compiled_pays), np.unique sorts the
    (row, rank) keys and counts repeated k-mers. Above it, scipy holds each
    window as a 1.0 entry of its row, in place in rank, and sum_duplicates
    sorts every row and adds up repeated k-mers. Both give the same arrays.
    """
    shape = (len(per_row), int(rank.max()) + 1 if len(rank) else 0)
    if _compiled_pays(len(rank), epochs):
        from scipy.sparse import csr_matrix  # deferred: small fits never load it

        X = csr_matrix((np.ones(len(rank)), rank, np.append(0, np.cumsum(per_row))), shape=shape)
        X.sum_duplicates()
        return CountMatrix(X.indptr, X.indices, X.data, shape, X)
    row = np.repeat(np.arange(len(per_row), dtype=np.int64), per_row)
    key, count = np.unique(row << 32 | rank, return_counts=True)
    indptr = np.searchsorted(key >> 32, np.arange(len(per_row) + 1))
    return CountMatrix(
        indptr.astype(np.int32), (key & 0xFFFFFFFF).astype(np.int32), count.astype(float), shape
    )


# Rows per block that score turns into one count matrix. Building a matrix
# takes tens of bytes per window, so a block of typical rows (about 28 windows
# each) holds a few MB, whatever the size of the part scored.
_SCORE_BLOCK = 4096


def _scoring_matrix(columns: np.ndarray, per_row: np.ndarray, n_vocab: int) -> CountMatrix:
    """Counts with a leading bias column, in the order the logit sums them.

    columns is the vocabulary index of every window of some rows, -1 where
    its k-mer is not in the vocabulary of n_vocab keys (KmerWindows.columns),
    and per_row the number of windows of each row, whose windows follow those
    of the rows before it. Column 0 holds 1.0 for the bias, and column i + 1
    the count of k-mer i. Each row stores the bias first, then its
    in-vocabulary k-mers in order of first occurrence. matvec sums a row from
    0.0 in stored order, so a logit is ((bias + w1 * c1) + w2 * c2) + ... in
    exactly that order; a sorted-order sum differs in the last bits.
    """
    n_rows = len(per_row)
    hit = columns >= 0
    row = np.repeat(np.arange(n_rows, dtype=np.int32), per_row)[hit]
    col = columns[hit]
    rank, first = _first_seen(row.astype(np.int64) * n_vocab + col)
    count = np.bincount(rank, minlength=len(first))
    row, col = row[first], col[first]
    starts = np.searchsorted(row, np.arange(n_rows))
    return CountMatrix(
        np.append(starts + np.arange(n_rows), len(row) + n_rows),
        np.insert(col + 1, starts, 0),
        np.insert(count.astype(float), starts, 1.0),
        (n_rows, n_vocab + 1),
    )


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


def train_linear(train: Dataset, config: TrainingConfig = TrainingConfig()) -> LinearScorerModel:
    """Fit the k-mer logistic scorer on the training split.

    Deterministic: zero initialization, full-batch updates. Class weights come
    from the training split only; raises if a class is missing. Each epoch is
    one step of Nesterov's accelerated gradient (FISTA without a prox step)
    at step 1 / _smoothness_bound, so no iterate's loss exceeds the loss at
    zero. final_train_loss is the exact loss of the last iterate.
    """
    labels = train.labels.astype(float)
    n_pos = int(labels.sum())
    w_pos, w_neg = class_weights(n_pos, len(labels) - n_pos)
    windows = encode_kmers(train, config.kmer_size, config.include_cdr3a)
    vocabulary = build_vocabulary(windows)
    rank, per_row = windows.take_first_seen()[0], windows.per_row
    del windows  # frees the strings and codes before the count matrix is built
    X = _training_matrix(rank, per_row, config.epochs)
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
        train_fingerprint=ids_fingerprint(train.ids),
        # the TrainingConfig fields only, also when config is a subclass of it
        **{f.name: getattr(config, f.name) for f in dataclass_fields(TrainingConfig)},
    )


def score(model: LinearScorerModel, data: Dataset) -> ScoreTable:
    """Logit of every example, in dataset order.

    A logit is the bias plus weight * count over the example's in-vocabulary
    k-mers, summed in order of first occurrence; see _scoring_matrix. The
    part is encoded and looked up in the vocabulary once; then each block of
    _SCORE_BLOCK rows gets its own count matrix and product. A logit reads
    only its own row's windows, so the block size moves no bit of it.
    """
    windows = encode_kmers(data, model.kmer_size, model.include_cdr3a)
    columns, per_row = windows.columns(model.vocabulary), windows.per_row
    del windows  # frees the strings and codes before the first block is built
    offsets = np.append(0, np.cumsum(per_row))
    x = np.concatenate(([model.bias], model.weights))
    # a logit starts at the bias, and from -0.0 it stays -0.0 while every term
    # is -0.0; matvec starts each row at +0.0 instead
    negative_zero = model.bias == 0.0 and math.copysign(1.0, model.bias) < 0.0
    nonzero = (~((x == 0.0) & np.signbit(x))).astype(float) if negative_zero else None
    logits = np.empty(len(per_row))
    for start in range(0, len(per_row), _SCORE_BLOCK):
        stop = min(start + _SCORE_BLOCK, len(per_row))
        X = _scoring_matrix(
            columns[offsets[start] : offsets[stop]], per_row[start:stop], len(model.vocabulary)
        )
        block = logits[start:stop]
        block[:] = X.matvec(x)
        if nonzero is not None:
            block[X.matvec(nonzero) == 0.0] = -0.0
    return ScoreTable(data.ids, logits, data.labels)


def export_logits(table: ScoreTable, path: str | Path) -> None:
    """TSV of example_id and logit, one row per line, no header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for example_id, logit in zip(table.ids, table.logits.tolist()):
            handle.write(f"{example_id}\t{logit!r}\n")


def read_logits(path: str | Path) -> dict[str, float]:
    """Parse an external logit TSV: one 'id<TAB>logit' per line, blank lines and
    a leading byte-order mark skipped. The first malformed line (wrong field
    count, duplicate id, unparseable or non-finite logit) raises ValueError naming it.
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
    return _read_logit_lines(path)


def _read_logit_lines(path: str | Path) -> dict[str, float]:
    """read_logits for any file, one line at a time."""
    logits: dict[str, float] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
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
