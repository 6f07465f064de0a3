"""Nesterov-accelerated training against the plain loop in train_oracle, bit for bit.

train_linear computes no loss until the last epoch. Its step, weights, bias
and final_train_loss must equal the oracle's by float.hex; the oracle's exact
loss at every epoch checks what the certified step promises.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import train_oracle
from dataset_rows import dataset_of
from tcrselect.data import SequenceExample
from tcrselect.scorer import (
    CountMatrix,
    TrainingConfig,
    _smoothness_bound,
    _training_matrix,
    class_weights,
    encode_kmers,
    train_linear,
)
from tcrselect.splits import SplitConfig, split_random
from tcrselect.toycorpus import motif_corpus

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def outcome(train, data, config):
    """(weight hexes, bias hex, step hex, final loss hex) of a trained model."""
    model = train(data, config)
    weights = [w.hex() for w in model.weights.tolist()]
    return weights, float(model.bias).hex(), model.step.hex(), model.final_train_loss.hex()


@st.composite
def training_sets(draw):
    """Datasets of 2-12 random rows holding both labels."""
    alphabet = draw(st.sampled_from(["AC", "ACDEF", AMINO]))
    seqs = st.text(alphabet=alphabet, min_size=1, max_size=12)
    rows = draw(st.lists(st.tuples(seqs, seqs, seqs, st.integers(0, 1)), min_size=2, max_size=12))
    rows[0], rows[1] = (*rows[0][:3], 1), (*rows[1][:3], 0)
    return dataset_of(
        SequenceExample(
            id=f"t{i}", cdr3a=a, cdr3b=b, peptide=p, epitope_id="E" + p, label=y
        )
        for i, (a, b, p, y) in enumerate(rows)
    )


@settings(max_examples=300, deadline=None)
@given(
    data=training_sets(),
    l2=st.sampled_from([0.0, 1e-4, 1e3]),
    epochs=st.integers(0, 40),
    kmer_size=st.integers(1, 4),
    include_cdr3a=st.booleans(),
)
def test_training_matches_oracle(data, l2, epochs, kmer_size, include_cdr3a):
    config = TrainingConfig(
        kmer_size=kmer_size, epochs=epochs, l2=l2, include_cdr3a=include_cdr3a,
    )
    assert outcome(train_linear, data, config) == outcome(train_oracle.train_linear, data, config)


@pytest.mark.parametrize("seed", [1, 7919])
def test_motif_corpus_regression(seed):
    data = motif_corpus(2000, seed)
    expected = outcome(train_oracle.train_linear, data, TrainingConfig())
    assert outcome(train_linear, data, TrainingConfig()) == expected


def test_compiled_fit_matches_oracle():
    # the regression above on a fit of 220,592 windows, where the oracle's
    # scipy.sparse products and the package's direct kernel calls must still
    # agree bit for bit
    data = motif_corpus(8000, 1)
    expected = outcome(train_oracle.train_linear, data, TrainingConfig())
    assert outcome(train_linear, data, TrainingConfig()) == expected


@settings(max_examples=150, deadline=None)
@given(
    data=training_sets(),
    l2=st.sampled_from([0.0, 1e-4, 1.0, 1e3]),
    kmer_size=st.integers(1, 3),
    include_cdr3a=st.booleans(),
)
def test_no_iterate_loss_exceeds_the_loss_at_zero(data, l2, kmer_size, include_cdr3a):
    # FISTA at a step of at most 1/L keeps F(x_k) <= F(x_0) for every k, so
    # the loss stays finite; the slack covers rounding when x_k barely moves
    losses = []
    config = TrainingConfig(kmer_size=kmer_size, epochs=40, l2=l2, include_cdr3a=include_cdr3a)
    train_oracle.train_linear(data, config, loss_callback=lambda _, loss: losses.append(loss))
    assert len(losses) == 41
    assert all(loss <= losses[0] + 1e-12 for loss in losses)


def test_empty_vocabulary_trains_the_bias_alone():
    # every field is shorter than k, so the training matrix has no columns
    model = train_linear(motif_corpus(50, 1), TrainingConfig(kmer_size=40))
    assert model.vocabulary == {} and model.weights.shape == (0,)
    assert math.isfinite(model.bias) and math.isfinite(model.final_train_loss)
    # A is the bias entry alone: sum(sw) / 4n = 1/4
    assert model.step == pytest.approx(1.0 / (0.25 + model.l2), rel=1e-12)


def gram_eigenvalue(X, sample_weights):
    """Largest eigenvalue of [X 1]^T diag(sw) [X 1] / (4n), from the smaller
    of the two Gram matrices that share its nonzero eigenvalues."""
    n = X.shape[0]
    B = np.hstack([X, np.ones((n, 1))]) * np.sqrt(sample_weights / (4 * n))[:, None]
    small = B @ B.T if n <= B.shape[1] else B.T @ B
    return float(np.linalg.eigvalsh(small)[-1])


@st.composite
def count_matrices(draw):
    """(X, labels): 2-9 rows of 1-8 small counts, no empty column, both labels."""
    n, d = draw(st.integers(2, 9)), draw(st.integers(1, 8))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    X[0] += X.sum(axis=0) == 0  # a training matrix has no empty column
    y = np.array([1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)))
    return X, y


@settings(max_examples=200, deadline=None)
@given(instance=count_matrices(), l2=st.sampled_from([0.0, 1e-4, 1.0, 1e3]))
def test_smoothness_bound_is_an_upper_bound(instance, l2):
    X, y = instance
    n_pos = int(y.sum())
    sw = np.where(y == 1, *class_weights(n_pos, len(y) - n_pos))
    sparse = csr_matrix(X)
    bound = _smoothness_bound(
        CountMatrix(sparse.indptr, sparse.indices, sparse.data, sparse.shape), sw, l2
    )
    assert bound >= (gram_eigenvalue(X, sw) + l2) * (1.0 - 1e-12)


def test_smoothness_bound_is_tight_on_motif_corpus():
    data = motif_corpus(2000, 1)
    train = data.subset(split_random(data, SplitConfig(seed=13)).train_ids)
    windows = encode_kmers(train, 3)
    X = _training_matrix(windows.take_first_seen()[0], windows.per_row)
    y = train.labels.astype(float)
    n_pos = int(y.sum())
    sw = np.where(y == 1.0, *class_weights(n_pos, len(y) - n_pos))
    dense = csr_matrix((X.data, X.indices, X.indptr), shape=X.shape).toarray()
    exact = gram_eigenvalue(dense, sw) + 1e-4
    bound = _smoothness_bound(X, sw, 1e-4)
    assert exact * (1.0 - 1e-12) <= bound <= 1.01 * exact
