"""Built-in linear scorer: features, loss gradient, training, score tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import kmer_oracle as oracle
import train_oracle
from tcrselect.data import Dataset, SequenceExample
from tcrselect.scorer import (
    LinearScorerModel,
    ScoreTable,
    TrainingConfig,
    _scoring_matrix,
    _training_matrix,
    build_vocabulary,
    class_weights,
    encode_kmers,
    export_logits,
    ingest_logits,
    loss_and_grad,
    read_logits,
    score,
    sigmoid,
    train_linear,
)
from tcrselect.toycorpus import motif_corpus


def make_example(ex_id="e0", cdr3a="CAVSDF", cdr3b="CASSLF",
                 peptide="GILGFVFTL", epitope_id="EP01", label=1):
    return SequenceExample(
        id=ex_id, cdr3a=cdr3a, cdr3b=cdr3b, peptide=peptide,
        epitope_id=epitope_id, label=label,
    )


class TestScoreTable:
    def test_from_logit_matches_sigmoid(self):
        table = ScoreTable(("e0",), [1.0], [1])
        assert sigmoid(table.logits)[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_rejects_non_finite_logit(self):
        with pytest.raises(ValueError):
            ScoreTable(("e0",), [float("nan")], [1])
        with pytest.raises(ValueError):
            ScoreTable(("e0",), [float("inf")], [0])

    def test_rejects_mismatched_column_lengths(self):
        with pytest.raises(ValueError, match="column lengths"):
            ScoreTable(("e0", "e1"), [1.0], [1, 0])

    def test_errors_name_the_first_bad_row(self):
        with pytest.raises(ValueError, match="'e1'"):
            ScoreTable(("e0", "e1", "e2"), [1.0, float("-inf"), float("nan")], [1, 0, 1])
        with pytest.raises(ValueError, match="'e2'"):
            ScoreTable(("e0", "e1", "e2"), [1.0, 2.0, 3.0], [1, 0, 2])

    def test_column_types(self):
        table = ScoreTable(["e0", "e1"], [1, -2], [True, False])
        assert table.ids == ("e0", "e1")
        assert table.logits.dtype == np.float64
        assert table.labels.dtype == np.int8
        assert table.labels.tolist() == [1, 0]
        assert len(table) == 2


def kmer_counts(example, kmer_size, include_cdr3a=True):
    """The encoder's k-mer counts for one example, keyed like the vocabulary."""
    windows = encode_kmers(Dataset([example]), kmer_size, include_cdr3a)
    vocab = build_vocabulary(windows)
    row = _training_matrix(windows, vocab)
    keys = list(vocab)
    return {keys[i]: int(c) for i, c in zip(row.indices, row.data)}


def featurize(example, kmer_size, vocabulary, include_cdr3a=True):
    """Vocabulary indices the encoder finds in one example."""
    windows = encode_kmers(Dataset([example]), kmer_size, include_cdr3a)
    return {int(i) for i in windows.columns(vocabulary) if i >= 0}


class TestKmers:
    def test_single_window_peptide(self):
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GIL")
        counts = kmer_counts(ex, 3)
        pep = {k: v for k, v in counts.items() if k.startswith("pep:")}
        assert pep == {"pep:GIL": 1}

    def test_sliding_window(self):
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GILG")
        counts = kmer_counts(ex, 3)
        pep = {k: v for k, v in counts.items() if k.startswith("pep:")}
        assert pep == {"pep:GIL": 1, "pep:ILG": 1}

    def test_field_shorter_than_k_contributes_nothing(self):
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GI")
        counts = kmer_counts(ex, 3)
        # the joiner glues cdr3a|cdr3b into CA|CA, which has no 3-mer windows
        # free of the joiner? it does: windows cross the joiner character
        assert all(not k.startswith("pep:") for k in counts)

    def test_namespaces_keep_sides_distinct(self):
        ex = make_example(cdr3a="GILGIL", cdr3b="GILGIL", peptide="GILGIL")
        counts = kmer_counts(ex, 3)
        assert "tcr:GIL" in counts and "pep:GIL" in counts

    def test_mask_cdr3a(self):
        ex = make_example(cdr3a="AAAAAA", cdr3b="CCCCCC", peptide="GILGFVFTL")
        counts = kmer_counts(ex, 3, include_cdr3a=False)
        assert "tcr:AAA" not in counts
        assert "tcr:CCC" in counts

    def test_featurize_ignores_oov(self):
        ex = make_example()
        vocab = build_vocabulary(encode_kmers(Dataset([ex]), 3))
        other = make_example(ex_id="e1", peptide="WWWWWWWWW", label=0)
        vec = featurize(other, 3, vocab)
        seen = {idx for idx in vec}
        pep_indices = {v for k, v in vocab.items() if k.startswith("pep:")}
        assert seen & pep_indices == set()


AMINO = "ACDEFGHIKLMNPQRSTVWY"


@st.composite
def example_sets(draw, alphabet, prefix, max_rows=8):
    """Datasets of random sequences; the epitope id is derived from the
    peptide so rows sharing one always agree on it."""
    seqs = st.text(alphabet=alphabet, min_size=1, max_size=16)
    rows = draw(st.lists(st.tuples(seqs, seqs, seqs, st.integers(0, 1)), max_size=max_rows))
    return Dataset(
        SequenceExample(
            id=f"{prefix}{i}", cdr3a=a, cdr3b=b, peptide=p, epitope_id="E" + p, label=y
        )
        for i, (a, b, p, y) in enumerate(rows)
    )


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert actual.data.tobytes() == expected.data.tobytes()


def assert_same_logits(actual, expected):
    assert list(actual.ids) == [r.example_id for r in expected]
    assert [z.hex() for z in actual.logits.tolist()] == [r.logit.hex() for r in expected]
    assert actual.logits.dtype == np.float64


def random_model(vocab, kmer_size, include_cdr3a, seed, bias):
    """Normal weights with exact zeros of both signs mixed in."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=2.0, size=len(vocab))
    weights[rng.random(len(vocab)) < 0.15] = 0.0
    weights[rng.random(len(vocab)) < 0.15] = -0.0
    return LinearScorerModel(
        kmer_size=kmer_size, vocabulary=vocab, weights=weights, bias=bias,
        class_weights=(1.0, 1.0), include_cdr3a=include_cdr3a,
    )


class TestEncoderMatchesOracle:
    """The vectorized encoder against the per-row functions in kmer_oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        train_alphabet=st.sampled_from(["AC", "ACDEF", AMINO]),
        data=st.data(),
        kmer_size=st.integers(1, 15),
        include_cdr3a=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        bias=st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
    )
    def test_vocabulary_matrix_and_logits(
        self, train_alphabet, data, kmer_size, include_cdr3a, seed, bias
    ):
        train = data.draw(example_sets(train_alphabet, "t"))
        windows = encode_kmers(train, kmer_size, include_cdr3a)
        vocab = build_vocabulary(windows)
        expected = oracle.build_vocabulary(train, kmer_size, include_cdr3a)
        assert list(vocab.items()) == list(expected.items())
        assert_same_csr(
            _training_matrix(windows, vocab),
            oracle._design_matrix(train, kmer_size, expected, include_cdr3a),
        )
        # scoring rows over the full alphabet are mostly outside a vocabulary
        # built on two or five residues
        fresh = data.draw(example_sets(AMINO, "s"))
        kept = data.draw(st.lists(st.sampled_from(list(train)), unique=True)) if len(train) else []
        scored = Dataset([*kept, *fresh])
        model = random_model(vocab, kmer_size, include_cdr3a, seed, bias)
        assert_same_logits(score(model, scored), oracle.score(model, scored))

    def test_motif_corpus_regression(self):
        data = motif_corpus(2000, 1)
        windows = encode_kmers(data, 3)
        vocab = build_vocabulary(windows)
        expected = oracle.build_vocabulary(data, 3)
        assert list(vocab.items()) == list(expected.items())
        assert_same_csr(
            _training_matrix(windows, vocab), oracle._design_matrix(data, 3, expected, True)
        )
        model = train_linear(Dataset(list(data)[:1400]), TrainingConfig(epochs=20))
        assert_same_logits(score(model, data), oracle.score(model, data))

    def test_unproducible_keys_are_ignored(self):
        data = toy_train_set(6)
        vocab = build_vocabulary(encode_kmers(data, 3))
        junk = ["tcr:AAZ", "pep:GI", "pep:GILG", "xyz:GIL", "GIL", "pep:gil", "tcr:A|", "pep:\u00e9AA"]
        vocab.update((key, len(vocab)) for key in junk)
        model = random_model(vocab, 3, True, 0, 0.5)
        assert_same_logits(score(model, data), oracle.score(model, data))

    def test_scoring_matrix_puts_bias_first_then_first_occurrence(self):
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GILGIL")
        vocab = {"pep:ILG": 0, "pep:GIL": 1, "tcr:A|C": 2}
        X = _scoring_matrix(encode_kmers(Dataset([ex]), 3), vocab)
        # tcr string CA|CA: A|C; peptide: GIL ILG LGI GIL
        assert X.indices.tolist() == [0, 3, 2, 1]
        assert X.data.tolist() == [1.0, 1.0, 2.0, 1.0]


def test_vocabulary_indices_must_be_a_permutation():
    with pytest.raises(ValueError, match="vocabulary indices"):
        LinearScorerModel(
            kmer_size=3, vocabulary={"pep:GIL": 0, "pep:ILG": 0}, weights=np.zeros(2),
            bias=0.0, class_weights=(1.0, 1.0),
        )


class TestClassWeights:
    def test_imbalanced(self):
        w_pos, w_neg = class_weights(4, 96)
        assert w_pos == pytest.approx(12.5, abs=1e-12)
        assert w_neg == pytest.approx(100 / 192, abs=1e-12)

    def test_balanced(self):
        assert class_weights(50, 50) == (1.0, 1.0)

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights(0, 10)
        with pytest.raises(ValueError):
            class_weights(10, 0)


def random_instance(rng):
    n = rng.integers(2, 8)
    d = rng.integers(1, 6)
    dense = rng.integers(0, 3, size=(n, d)).astype(float)
    X = csr_matrix(dense)
    y = rng.integers(0, 2, size=n).astype(float)
    if y.sum() == 0:
        y[0] = 1.0
    if y.sum() == n:
        y[0] = 0.0
    w_pos, w_neg = class_weights(int(y.sum()), int(n - y.sum()))
    sw = np.where(y == 1.0, w_pos, w_neg)
    weights = rng.normal(scale=0.5, size=d)
    bias = float(rng.normal(scale=0.5))
    l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
    return X, y, sw, weights, bias, l2


class TestLossAndGrad:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            X, y, sw, weights, bias, l2 = random_instance(rng)
            _, grad_w, grad_b = loss_and_grad(X, y, sw, weights, bias, l2)
            for k in range(len(weights)):
                bump = weights.copy()
                bump[k] += h
                up, _, _ = loss_and_grad(X, y, sw, bump, bias, l2)
                bump[k] -= 2 * h
                down, _, _ = loss_and_grad(X, y, sw, bump, bias, l2)
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad_w[k]), 1e-8)
                assert abs(numeric - grad_w[k]) / denom <= 1e-5
            up, _, _ = loss_and_grad(X, y, sw, weights, bias + h, l2)
            down, _, _ = loss_and_grad(X, y, sw, weights, bias - h, l2)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad_b), 1e-8)
            assert abs(numeric - grad_b) / denom <= 1e-5

    def test_unit_weights_recover_plain_bce(self):
        rng = np.random.default_rng(11)
        X, y, _, weights, bias, _ = random_instance(rng)
        ones = np.ones(X.shape[0])
        loss, _, _ = loss_and_grad(X, y, ones, weights, bias, 0.0)
        z = X @ weights + bias
        p = 1.0 / (1.0 + np.exp(-z))
        plain = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert abs(loss - plain) <= 1e-12


def toy_train_set(n=40):
    """Positives carry peptide k-mer AAA, negatives never do: separable."""
    examples = []
    for i in range(n):
        pos = i % 2 == 0
        peptide = "AAAGILGFV" if pos else "CDEGILGFV"
        examples.append(
            make_example(
                ex_id=f"t{i}",
                cdr3a="CAVS",
                cdr3b="CASS" + "GILV"[i % 4] + "F",
                peptide=peptide,
                epitope_id="EP01" if pos else "EP02",
                label=1 if pos else 0,
            )
        )
    return Dataset(examples)


class TestTrainLinear:
    def test_separable_set_reaches_full_accuracy(self):
        data = toy_train_set()
        model = train_linear(data, TrainingConfig())
        records = score(model, data)
        predicted = [1 if p >= 0.5 else 0 for p in sigmoid(records.logits)]
        assert predicted == [ex.label for ex in data]

    def test_zero_learning_rate_is_null_model(self):
        data = toy_train_set()
        model = train_linear(
            data, TrainingConfig(learning_rate=0.0, epochs=1)
        )
        assert np.all(model.weights == 0.0)
        assert model.bias == 0.0
        records = score(model, data)
        probs = sigmoid(records.logits)
        assert all(z == 0.0 and p == 0.5 for z, p in zip(records.logits, probs))

    def test_same_seed_identical_weights(self):
        data = toy_train_set()
        a = train_linear(data, TrainingConfig())
        b = train_linear(data, TrainingConfig())
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_loss_non_increasing_at_default_settings(self):
        data = toy_train_set()
        losses, exact = [], []
        train_linear(
            data, TrainingConfig(), loss_callback=lambda epoch, loss: losses.append(loss)
        )
        train_oracle.train_linear(
            data, TrainingConfig(), loss_callback=lambda epoch, loss: exact.append(loss)
        )
        # the callback gets the exact loss of every epoch, never a skipped one
        assert [loss.hex() for loss in losses] == [loss.hex() for loss in exact]
        assert len(losses) == TrainingConfig().epochs
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_divergence_reported(self):
        # learning_rate * l2 >> 2 makes the ridge step oscillate with growing
        # amplitude until the loss overflows
        data = toy_train_set()
        with pytest.raises(ValueError, match="learning_rate"):
            train_linear(data, TrainingConfig(learning_rate=1e8))

    def test_single_class_rejected(self):
        examples = [make_example(ex_id=f"p{i}", label=1) for i in range(3)]
        with pytest.raises(ValueError):
            train_linear(Dataset(examples), TrainingConfig())

    def test_score_order_follows_dataset(self):
        data = toy_train_set(12)
        model = train_linear(data, TrainingConfig(epochs=5))
        forward = score(model, data)
        flipped = Dataset(list(reversed(list(data))))
        backward = score(model, flipped)
        assert list(backward.ids) == list(reversed(forward.ids))
        by_id = dict(zip(forward.ids, forward.logits))
        assert all(by_id[i] == z for i, z in zip(backward.ids, backward.logits))

    def test_model_json_round_trip(self, tmp_path):
        data = toy_train_set(12)
        model = train_linear(data, TrainingConfig(epochs=5))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LinearScorerModel.load(path)
        assert loaded.vocabulary == model.vocabulary
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.fingerprint() == model.fingerprint()

    def test_fingerprint_tracks_train_split(self):
        a = train_linear(toy_train_set(12), TrainingConfig(epochs=2))
        b = train_linear(toy_train_set(16), TrainingConfig(epochs=2))
        assert a.train_fingerprint != b.train_fingerprint


class TestManualModel:
    def test_single_feature_closed_form(self):
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GIL")
        vocab = {"pep:GIL": 0}
        model = LinearScorerModel(
            kmer_size=3, vocabulary=vocab, weights=np.array([2.0]),
            bias=-1.0, class_weights=(1.0, 1.0),
        )
        records = score(model, Dataset([ex]))
        assert records.logits[0] == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(records.logits)[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_empty_dataset(self):
        model = LinearScorerModel(
            kmer_size=3, vocabulary={}, weights=np.zeros(0),
            bias=0.0, class_weights=(1.0, 1.0),
        )
        assert len(score(model, Dataset([]))) == 0


class TestLogitFiles:
    def test_round_trip(self, tmp_path):
        data = toy_train_set(8)
        model = train_linear(data, TrainingConfig(epochs=5))
        records = score(model, data)
        path = tmp_path / "logits.tsv"
        export_logits(records, path)
        loaded = ingest_logits(path, data)
        assert list(zip(loaded.ids, loaded.logits, loaded.labels)) == list(
            zip(records.ids, records.logits, records.labels)
        )

    def test_missing_id_named(self, tmp_path):
        data = toy_train_set(4)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nt2\t0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t3"):
            ingest_logits(path, data)

    def test_duplicate_id_named(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt0\t0.6\nt1\t-0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t0"):
            ingest_logits(path, data)

    def test_non_finite_logit_named(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\tnan\nt1\t-0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t0"):
            ingest_logits(path, data)

    def test_extra_ids_tolerated(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nghost\t9.0\n", encoding="utf-8")
        records = ingest_logits(path, data)
        assert list(records.ids) == ["t0", "t1"]

    def test_parsed_logits_serve_several_parts(self, tmp_path):
        data = toy_train_set(4)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nt2\t0.25\nt3\t1.5\n", encoding="utf-8")
        logits = read_logits(path)
        head, tail = data.subset(["t0", "t1"]), data.subset(["t2", "t3"])
        assert ingest_logits(logits, head).logits.tolist() == [0.5, -0.5]
        assert ingest_logits(logits, tail).logits.tolist() == [0.25, 1.5]
        assert ingest_logits(path, tail).logits.tolist() == [0.25, 1.5]


def test_sigmoid_extremes():
    half, one, tiny = sigmoid(np.array([0.0, 800.0, -800.0])).tolist()
    assert half == 0.5
    assert one == 1.0
    assert tiny == math.exp(-800.0) if tiny else True
    assert 0.0 <= tiny < 1e-300
