"""Per-row k-mer features, the oracle for the vectorized encoder in scorer.

These are the dictionary-per-example functions the scorer used before its
features came from one numpy encoder. The encoder must reproduce their
vocabulary order, training matrix and score logits bit for bit.
"""

from typing import Mapping

import numpy as np
from scipy.sparse import csr_matrix

from score_oracle import ScoreRecord
from tcrselect.data import Dataset, SequenceExample
from tcrselect.scorer import (
    PEPTIDE_NAMESPACE,
    TCR_NAMESPACE,
    LinearScorerModel,
)


def _tcr_string(example: SequenceExample, include_cdr3a: bool) -> str:
    return example.cdr3a + "|" + example.cdr3b if include_cdr3a else example.cdr3b


def kmer_counts(
    example: SequenceExample, kmer_size: int, include_cdr3a: bool = True
) -> dict[str, int]:
    """Namespaced overlapping k-mer counts for one example.

    Keys are "tcr:<kmer>" over the joined cdr3a|cdr3b string and "pep:<kmer>"
    over the peptide. A field shorter than k contributes nothing.
    """
    counts: dict[str, int] = {}
    for namespace, seq in (
        (TCR_NAMESPACE, _tcr_string(example, include_cdr3a)),
        (PEPTIDE_NAMESPACE, example.peptide),
    ):
        for start in range(len(seq) - kmer_size + 1):
            key = namespace + ":" + seq[start : start + kmer_size]
            counts[key] = counts.get(key, 0) + 1
    return counts


def window_keys(
    example: SequenceExample, kmer_size: int, include_cdr3a: bool = True
) -> list[str]:
    """The key of every window of one example, in encoder order: the tcr
    windows, then the peptide windows, each left to right."""
    return [
        namespace + ":" + seq[start : start + kmer_size]
        for namespace, seq in (
            (TCR_NAMESPACE, _tcr_string(example, include_cdr3a)),
            (PEPTIDE_NAMESPACE, example.peptide),
        )
        for start in range(len(seq) - kmer_size + 1)
    ]


def window_code(key: str) -> int:
    """The code of a window's key: its namespace number (tcr 0, pep 1), then
    each letter of its k-mer as a base-21 digit, the 20 residues in
    alphabetical order and the joiner "|" last."""
    namespace, kmer = key.split(":")
    code = (TCR_NAMESPACE, PEPTIDE_NAMESPACE).index(namespace)
    for letter in kmer:
        code = code * 21 + "ACDEFGHIKLMNPQRSTVWY|".index(letter)
    return code


def build_vocabulary(
    data: Dataset, kmer_size: int, include_cdr3a: bool = True
) -> dict[str, int]:
    """Map each k-mer seen in data to a stable index, in first-seen order."""
    vocab: dict[str, int] = {}
    for ex in data:
        for key in kmer_counts(ex, kmer_size, include_cdr3a):
            if key not in vocab:
                vocab[key] = len(vocab)
    return vocab


def featurize(
    example: SequenceExample,
    kmer_size: int,
    vocabulary: Mapping[str, int],
    include_cdr3a: bool = True,
) -> dict[int, int]:
    """Sparse count vector for one example; out-of-vocabulary k-mers ignored."""
    vec: dict[int, int] = {}
    for key, count in kmer_counts(example, kmer_size, include_cdr3a).items():
        idx = vocabulary.get(key)
        if idx is not None:
            vec[idx] = count
    return vec


def _design_matrix(
    data: Dataset, kmer_size: int, vocabulary: Mapping[str, int], include_cdr3a: bool
) -> csr_matrix:
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for ex in data:
        vec = featurize(ex, kmer_size, vocabulary, include_cdr3a)
        for idx in sorted(vec):
            indices.append(idx)
            values.append(float(vec[idx]))
        indptr.append(len(indices))
    return csr_matrix(
        (np.array(values), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(data), len(vocabulary)),
    )


def score(model: LinearScorerModel, data: Dataset) -> list[ScoreRecord]:
    """Logit and probability for every example, preserving dataset order."""
    records = []
    for ex in data:
        vec = featurize(ex, model.kmer_size, model.vocabulary, model.include_cdr3a)
        logit = model.bias
        for idx, count in vec.items():
            logit += model.weights[idx] * count
        records.append(ScoreRecord.from_logit(ex.id, float(logit), ex.label))
    return records
