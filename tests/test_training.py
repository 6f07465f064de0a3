"""Gradient descent against the exact-loss loop in train_oracle, bit for bit.

train_linear skips the per-epoch loss whenever a bound proves it finite. Its
weights, bias and final_train_loss must equal the oracle's by float.hex, and
a diverging run must raise the oracle's error, naming the same epoch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import tcrselect.scorer as scorer
import train_oracle
from tcrselect.data import Dataset, SequenceExample
from tcrselect.scorer import TrainingConfig, class_weights, loss_and_grad, train_linear
from tcrselect.toycorpus import motif_corpus

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def outcome(train, data, config, with_callback=False):
    """("model", weight hexes, bias hex, final loss hex, per-epoch loss hexes)
    or ("error", message, per-epoch loss hexes)."""
    losses = []
    callback = (lambda epoch, loss: losses.append(loss.hex())) if with_callback else None
    try:
        # diverging runs overflow on purpose; the loop reports it as an error
        with np.errstate(invalid="ignore", divide="ignore"):
            model = train(data, config, callback)
    except ValueError as err:
        return ("error", str(err), losses)
    weights = [w.hex() for w in model.weights.tolist()]
    return ("model", weights, float(model.bias).hex(), model.final_train_loss.hex(), losses)


@st.composite
def training_sets(draw):
    """Datasets of 2-12 random rows holding both labels."""
    alphabet = draw(st.sampled_from(["AC", "ACDEF", AMINO]))
    seqs = st.text(alphabet=alphabet, min_size=1, max_size=12)
    rows = draw(st.lists(st.tuples(seqs, seqs, seqs, st.integers(0, 1)), min_size=2, max_size=12))
    rows[0], rows[1] = (*rows[0][:3], 1), (*rows[1][:3], 0)
    return Dataset(
        SequenceExample(
            id=f"t{i}", cdr3a=a, cdr3b=b, peptide=p, epitope_id="E" + p, label=y
        )
        for i, (a, b, p, y) in enumerate(rows)
    )


@settings(max_examples=300, deadline=None)
@given(
    data=training_sets(),
    log_rate=st.floats(-3.0, 300.0),
    l2=st.sampled_from([0.0, 1e-4, 1e3]),
    epochs=st.integers(0, 40),
    kmer_size=st.integers(1, 4),
    include_cdr3a=st.booleans(),
    with_callback=st.booleans(),
)
def test_training_matches_oracle(data, log_rate, l2, epochs, kmer_size, include_cdr3a,
                                 with_callback):
    config = TrainingConfig(
        kmer_size=kmer_size, learning_rate=10.0**log_rate, epochs=epochs, l2=l2,
        include_cdr3a=include_cdr3a,
    )
    assert outcome(train_linear, data, config, with_callback) == outcome(
        train_oracle.train_linear, data, config, with_callback
    )


@pytest.mark.parametrize("seed", [1, 7919])
def test_motif_corpus_regression(seed):
    data = motif_corpus(2000, seed)
    expected = outcome(train_oracle.train_linear, data, TrainingConfig())
    assert expected[0] == "model"
    assert outcome(train_linear, data, TrainingConfig()) == expected


@pytest.mark.parametrize(
    "learning_rate, l2",
    [(1e10, 1e-4), (100.0, 1e3)],
)
def test_epochs_past_the_bound_take_the_exact_loss(monkeypatch, learning_rate, l2):
    # these runs reach epochs whose loss is finite but above the bound, then
    # diverge; the loop must compute those losses and fail at the oracle's epoch
    data = motif_corpus(40, 3)
    calls = []

    def spy(*args, **kwargs):
        result = loss_and_grad(*args, **kwargs)
        calls.append((kwargs.get("want_loss", True), result[0]))
        return result

    monkeypatch.setattr(scorer, "loss_and_grad", spy)
    config = TrainingConfig(learning_rate=learning_rate, l2=l2, epochs=40)
    got = outcome(train_linear, data, config)
    assert got == outcome(train_oracle.train_linear, data, config)
    assert got[0] == "error" and "at epoch" in got[1]
    skipped = [loss for want, loss in calls if not want]
    assert None in skipped
    assert any(loss is not None and math.isfinite(loss) for loss in skipped)


def instance(weight):
    """Forty rows with balanced labels and class weights, and one feature that
    every row has once, so every logit is weight + bias."""
    X = csr_matrix(np.ones((40, 1)))
    y = np.tile([1.0, 0.0], 20)
    sw = np.where(y == 1.0, *class_weights(20, 20))
    return X, y, sw, np.array([weight])


@pytest.mark.parametrize(
    "bias, weight, l2, skipped",
    [
        (3.0, 0.5, 1e-4, True),
        (1e298, 0.0, 0.0, True),  # 40 * 1 * (1e298 + 1) is within 1e300
        (1e299, 0.0, 0.0, False),  # above the bound, and the loss is finite
        (-1e299, 0.0, 1e-4, False),
        (0.0, 1e150, 1e3, False),  # 0.5 * l2 * w.w = 5e302, finite
        (0.0, 1e200, 0.0, False),  # w.w overflows, and 0 * inf is a NaN loss
        (float("nan"), 0.0, 1e-4, False),
        (float("inf"), 0.0, 1e-4, False),
    ],
)
def test_loss_is_skipped_only_under_the_bound(bias, weight, l2, skipped):
    X, y, sw, weights = instance(weight)
    with np.errstate(invalid="ignore"):
        loss, grad_w, grad_b = loss_and_grad(X, y, sw, weights, bias, l2, want_loss=False)
        exact = train_oracle.loss_and_grad(X, y, sw, weights, bias, l2)
    assert grad_w.tobytes() == exact[1].tobytes()
    assert grad_b.hex() == exact[2].hex()
    if skipped:
        assert loss is None and math.isfinite(exact[0])
    else:
        assert loss is not None and loss.hex() == exact[0].hex()
