"""Nesterov-accelerated gradient descent written plainly, the oracle for train_linear.

The step comes from a plain power iteration, and every epoch evaluates the
exact loss of its iterate. The package must reproduce the weights, bias, step
and final_train_loss bit for bit.
"""

import math
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from tcrselect.data import Dataset
from tcrselect.scorer import (
    LinearScorerModel,
    TrainingConfig,
    build_vocabulary,
    class_weights,
    encode_kmers,
    ids_fingerprint,
)


def loss_and_grad(
    X: csr_matrix,
    y: np.ndarray,
    sample_weights: np.ndarray,
    weights: np.ndarray,
    bias: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Class-weighted mean BCE plus 0.5*l2*||w||^2 (bias unpenalized).

    Returns (loss, grad_weights, grad_bias). Per-sample cross-entropy is
    computed as softplus(z) - y*z, which is exact and overflow-safe.
    """
    n = X.shape[0]
    z = X @ weights + bias
    per_sample = np.logaddexp(0.0, z) - y * z
    loss = float(np.mean(sample_weights * per_sample)) + 0.5 * l2 * float(weights @ weights)
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    coef = sample_weights * (p - y) / n
    grad_w = np.asarray(X.T @ coef) + l2 * weights
    grad_b = float(np.sum(coef))
    return loss, grad_w, grad_b


def smoothness_bound(X: csr_matrix, sample_weights: np.ndarray, l2: float) -> float:
    """Ten power iterations on A = [X 1]^T diag(sw) [X 1] / (4n) from the
    all-ones vector; the last max_j (Av)_j / v_j, plus l2."""
    n = X.shape[0]
    v = np.ones(X.shape[1] + 1)
    for _ in range(10):
        u = sample_weights * (X @ v[:-1] + v[-1])
        Av = np.append(X.T @ u, np.sum(u)) / (4 * n)
        bound = float(np.max(Av / v))
        v = Av / np.max(Av)
    return bound + l2


def train_linear(
    train: Dataset,
    config: TrainingConfig = TrainingConfig(),
    loss_callback: Callable[[int, float], None] | None = None,
) -> LinearScorerModel:
    """Fit the k-mer logistic scorer on the training split.

    FISTA without a prox step at step 1 / smoothness_bound, from zero.
    loss_callback, if given, receives (k, exact loss of the k-th iterate) for
    k = 0 .. epochs, the zero start first.
    """
    labels = train.labels.astype(float)
    n_pos = int(labels.sum())
    w_pos, w_neg = class_weights(n_pos, len(labels) - n_pos)
    windows = encode_kmers(train, config.kmer_size, config.include_cdr3a)
    vocabulary = build_vocabulary(windows)
    # every window a 1.0 entry of its row at its first-seen rank, which is
    # its vocabulary column, then scipy adds up repeated k-mers
    rank = windows.first_seen[0]
    X = csr_matrix(
        (np.ones(len(rank)), rank, np.append(0, np.cumsum(windows.per_row))),
        shape=(len(train), len(vocabulary)),
    )
    X.sum_duplicates()
    sample_w = np.where(labels == 1.0, w_pos, w_neg)
    step = 1.0 / smoothness_bound(X, sample_w, config.l2)
    weights, bias = np.zeros(len(vocabulary)), 0.0
    at_w, at_b = weights, bias
    t = 1.0
    loss = loss_and_grad(X, labels, sample_w, weights, bias, config.l2)[0]
    for epoch in range(config.epochs):
        if loss_callback is not None:
            loss_callback(epoch, loss)
        _, grad_w, grad_b = loss_and_grad(X, labels, sample_w, at_w, at_b, config.l2)
        next_w = at_w - step * grad_w
        next_b = at_b - step * grad_b
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        at_w = next_w + (t - 1.0) / t_next * (next_w - weights)
        at_b = next_b + (t - 1.0) / t_next * (next_b - bias)
        weights, bias, t = next_w, next_b, t_next
        loss = loss_and_grad(X, labels, sample_w, weights, bias, config.l2)[0]
    if loss_callback is not None:
        loss_callback(config.epochs, loss)
    return LinearScorerModel(
        kmer_size=config.kmer_size,
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        class_weights=(w_pos, w_neg),
        include_cdr3a=config.include_cdr3a,
        l2=config.l2,
        epochs=config.epochs,
        step=step,
        final_train_loss=loss,
        train_fingerprint=ids_fingerprint(train.ids),
    )
