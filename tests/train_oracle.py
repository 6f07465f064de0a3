"""Gradient descent with the exact loss at every epoch, the oracle for train_linear.

These are the loss function and training loop the scorer used before its loop
skipped the per-epoch loss whenever a bound proves it finite. The package must
reproduce their weights, bias and final_train_loss bit for bit, and raise the
same divergence error at the same epoch.
"""

import math
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from tcrselect.data import Dataset
from tcrselect.scorer import (
    LinearScorerModel,
    TrainingConfig,
    _training_matrix,
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
    # overflow to inf is expected when training diverges; the caller checks
    # for a non-finite loss and reports it
    with np.errstate(over="ignore"):
        z = X @ weights + bias
        per_sample = np.logaddexp(0.0, z) - y * z
        loss = float(np.mean(sample_weights * per_sample)) + 0.5 * l2 * float(weights @ weights)
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
        coef = sample_weights * (p - y) / n
        grad_w = np.asarray(X.T @ coef) + l2 * weights
        grad_b = float(np.sum(coef))
    return loss, grad_w, grad_b


def train_linear(
    train: Dataset,
    config: TrainingConfig = TrainingConfig(),
    loss_callback: Callable[[int, float], None] | None = None,
) -> LinearScorerModel:
    """Fit the k-mer logistic scorer on the training split.

    Deterministic: zero initialization, full-batch updates. Class weights come
    from the training split only. Raises if the loss goes non-finite (the
    learning rate is too large) or if a class is missing.
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
    loss = float("nan")
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_grad(X, labels, sample_w, weights, bias, config.l2)
        if not math.isfinite(loss):
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
        kmer_size=config.kmer_size,
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        class_weights=(w_pos, w_neg),
        include_cdr3a=config.include_cdr3a,
        l2=config.l2,
        learning_rate=config.learning_rate,
        epochs=config.epochs,
        seed=config.seed,
        final_train_loss=loss,
        train_fingerprint=ids_fingerprint(train.ids),
    )
