"""Built-in linear scorer: features, loss gradient, training, score tables."""

import importlib.machinery
import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import kmer_oracle as oracle
import logit_oracle
import train_oracle
from dataset_rows import dataset_of
from tcrselect import data as data_module
from tcrselect import scorer as scorer_module
from tcrselect.cli import main
from tcrselect.data import SequenceExample
from tcrselect.scorer import (
    CountMatrix,
    LinearScorerModel,
    ScoreTable,
    TrainingConfig,
    TrainingSet,
    _first_seen,
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
from tcrselect.splits import SplitConfig, split_random
from tcrselect.toycorpus import motif_corpus, toy_dataset_path


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
    windows = encode_kmers(dataset_of([example]), kmer_size, include_cdr3a)
    vocab = build_vocabulary(windows)
    row = training_matrix(windows)
    keys = list(vocab)
    return {keys[i]: int(c) for i, c in zip(row.indices, row.data)}


def featurize(example, kmer_size, vocabulary, include_cdr3a=True):
    """Vocabulary indices the encoder finds in one example."""
    windows = encode_kmers(dataset_of([example]), kmer_size, include_cdr3a)
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
        vocab = build_vocabulary(encode_kmers(dataset_of([ex]), 3))
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
    return dataset_of(
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
            training_matrix(windows),
            oracle._design_matrix(train, kmer_size, expected, include_cdr3a),
        )
        # scoring rows over the full alphabet are mostly outside a vocabulary
        # built on two or five residues
        fresh = data.draw(example_sets(AMINO, "s"))
        kept = data.draw(st.lists(st.sampled_from(list(train)), unique=True)) if len(train) else []
        scored = dataset_of([*kept, *fresh])
        model = random_model(vocab, kmer_size, include_cdr3a, seed, bias)
        assert_same_logits(score(model, scored), oracle.score(model, scored))

    @settings(max_examples=100, deadline=None)
    @given(
        alphabet=st.sampled_from(["AC", AMINO]),
        data=st.data(),
        kmer_size=st.integers(1, 16),
        include_cdr3a=st.booleans(),
    )
    def test_training_and_scoring_share_one_numbering(
        self, alphabet, data, kmer_size, include_cdr3a
    ):
        windows = encode_kmers(data.draw(example_sets(alphabet, "t")), kmer_size, include_cdr3a)
        vocab = build_vocabulary(windows)
        assert list(vocab) == windows.keys
        rank, _ = windows.first_seen
        assert windows.columns(vocab).tolist() == rank.tolist()

    # k = 1, fields shorter than k (sequences of 1 to 16 residues at k = 7 and
    # 15), cdr3b alone, int64 codes at 7 and Python-int codes at 15; blocks of
    # 1 to 3 rows put block edges between every pair of rows
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        case=st.sampled_from(
            [(1, True, np.int32), (3, False, np.int32), (7, True, np.int64), (15, True, object)]
        ),
        block=st.sampled_from([1, 2, 3, 8192]),
    )
    def test_codes_and_keys_match_oracle(self, data, case, block):
        kmer_size, include_cdr3a, dtype = case
        rows = data.draw(example_sets(AMINO, "t"))
        with mock.patch.object(scorer_module, "_ENCODE_BLOCK", block):
            windows = encode_kmers(rows, kmer_size, include_cdr3a)
        expected = [oracle.window_keys(ex, kmer_size, include_cdr3a) for ex in rows]
        keys = [key for row in expected for key in row]
        assert windows.code.dtype == dtype
        assert windows.code.tolist() == list(map(oracle.window_code, keys))
        assert windows.per_row.tolist() == list(map(len, expected))
        rank, _ = windows.first_seen
        assert [windows.keys[r] for r in rank.tolist()] == keys
        assert windows.keys == list(dict.fromkeys(keys))

    # on these 200 rows every k takes np.unique before the first-seen table:
    # 3 has int32 codes (fewer windows than the largest code), 9 and 14 int64
    # codes, 15 object codes; the motif corpus regression below takes the
    # table alone (TestFirstSeen.test_encoder_codes_take_each_path)
    @pytest.mark.parametrize("kmer_size", [3, 9, 14, 15])
    def test_every_code_path_matches_oracle(self, kmer_size):
        data = motif_corpus(300, 1)
        train = dataset_of(list(data)[:200])
        windows = encode_kmers(train, kmer_size)
        vocab = build_vocabulary(windows)
        expected = oracle.build_vocabulary(train, kmer_size)
        assert list(vocab.items()) == list(expected.items())
        assert_same_csr(
            training_matrix(windows), oracle._design_matrix(train, kmer_size, expected, True)
        )
        model = random_model(vocab, kmer_size, True, kmer_size, 0.5)
        assert_same_logits(score(model, data), oracle.score(model, data))

    def test_motif_corpus_regression(self):
        data = motif_corpus(2000, 1)
        windows = encode_kmers(data, 3)
        vocab = build_vocabulary(windows)
        expected = oracle.build_vocabulary(data, 3)
        assert list(vocab.items()) == list(expected.items())
        assert_same_csr(
            training_matrix(windows), oracle._design_matrix(data, 3, expected, True)
        )
        model = train_linear(dataset_of(list(data)[:1400]), TrainingConfig(epochs=20))
        assert_same_logits(score(model, data), oracle.score(model, data))

    def test_unproducible_keys_are_ignored(self):
        data = toy_train_set(6)
        vocab = build_vocabulary(encode_kmers(data, 3))
        junk = ["tcr:AAZ", "pep:GI", "pep:GILG", "xyz:GIL", "GIL", "pep:gil", "tcr:A|", "pep:\u00e9AA"]
        vocab.update((key, len(vocab)) for key in junk)
        model = random_model(vocab, 3, True, 0, 0.5)
        assert_same_logits(score(model, data), oracle.score(model, data))

    def test_score_sums_bias_first_then_first_occurrence(self):
        # tcr string CA|CA holds A|C once; the peptide GILGIL holds GIL twice
        # and ILG once, GIL first
        ex = make_example(cdr3a="CA", cdr3b="CA", peptide="GILGIL")
        vocab = {"pep:ILG": 0, "pep:GIL": 1, "tcr:A|C": 2}
        weights = [1.0, 1.0, -1e16]
        model = LinearScorerModel(
            kmer_size=3, vocabulary=vocab, weights=weights, bias=1e16, class_weights=(1.0, 1.0)
        )

        def total(start, terms):
            for column, count in terms:
                start += weights[column] * count
            return start

        first_occurrence = [(2, 1), (1, 2), (0, 1)]  # (column, count)
        expected = total(model.bias, first_occurrence)
        # these weights give the bias-last and the sorted-column sums other bits
        assert (expected, total(0.0, first_occurrence) + model.bias) == (3.0, 4.0)
        assert total(model.bias, sorted(first_occurrence)) == 2.0
        assert score(model, dataset_of([ex])).logits[0].hex() == expected.hex()


def random_rows(n_rows, alphabets, rng):
    """n_rows checked rows; row i draws its sequences, 1 to 12 residues
    each, from alphabets[i % len(alphabets)]."""
    rows = []
    for i in range(n_rows):
        alphabet = alphabets[i % len(alphabets)]
        a, b, p = ("".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(3))
        rows.append(SequenceExample(f"r{i}", a, b, p, "E" + p, i % 2))
    return dataset_of(rows)


@pytest.mark.parametrize("bias", [0.5, -0.0])
@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_score_is_bit_identical_across_block_edges(monkeypatch, block, bias):
    # every third scored row is made of W and Y only, so it holds no k-mer of
    # a vocabulary built on ACDEF and its logit is the bias alone, -0.0 too
    rng = random.Random(block)
    vocab = build_vocabulary(encode_kmers(random_rows(40, ["ACDEF"], rng), 3))
    model = random_model(vocab, 3, True, block, bias)
    monkeypatch.setattr(scorer_module, "_SCORE_BLOCK", block)
    for n_rows in (0, 2 * block, 2 * block + 1):
        data = random_rows(n_rows, ["ACDEF", "ACDEF", "WY"], rng)
        table = score(model, data)
        assert table.logits[2::3].tobytes() == np.full(n_rows // 3, bias).tobytes()
        assert_same_logits(table, oracle.score(model, data))


def test_score_traced_peak_per_window_is_bounded():
    # score encodes the part once and then sums each block of _SCORE_BLOCK
    # rows with one bincount. The traced peak counts every Python and numpy
    # allocation. It reads 23.5 bytes per window on the 332,478 windows with
    # numpy 2.4; 25.9 with a count matrix per block, and 52.6 with one count
    # matrix for the whole part.
    model = train_linear(motif_corpus(2000, 1))
    data = motif_corpus(12000, 2)
    n_windows = len(encode_kmers(data, 3).code)
    tracemalloc.start()
    try:
        score(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_windows < 32.0


# kernel inputs: any finite float, plus signed zeros, subnormals and values
# whose products overflow
KERNEL_INPUTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300]
)


@st.composite
def sparse_counts(draw):
    """scipy CSR counts of 0-6 rows by 0-5 columns, mostly 0 and up to 3, so
    rows and columns are often empty and counts often above 1."""
    n, d = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    cells = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n * d, max_size=n * d))
    return csr_matrix(np.array(cells, dtype=float).reshape(n, d))


def bits(values: np.ndarray) -> list[int]:
    assert values.dtype == np.float64
    return values.view(np.int64).tolist()


def training_matrix(windows):
    """_training_matrix of windows, as train_linear builds it."""
    return _training_matrix(windows.take_first_seen()[0], windows.per_row)


def csr_sum_duplicates(windows):
    """The training matrix as scipy builds it: every window a 1.0 entry of its
    row at its first-seen rank, then sum_duplicates."""
    rank, first = _first_seen(windows.code)
    n_rows = len(windows.per_field) // 2
    row = np.repeat(np.arange(2 * n_rows) // 2, windows.per_field)
    per_row = np.bincount(row, minlength=n_rows)
    X = csr_matrix(
        (np.ones(len(rank)), rank, np.append(0, np.cumsum(per_row))),
        shape=(n_rows, len(first)),
    )
    X.sum_duplicates()
    return X


def assert_same_arrays(X, expected):
    """X holds scipy's CSR arrays, dtypes and shape, byte for byte."""
    assert X.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        actual, wanted = getattr(X, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype
        assert actual.tobytes() == wanted.tobytes()


class TestCountMatrix:
    @settings(max_examples=400, deadline=None)
    @given(sparse=sparse_counts(), data=st.data())
    def test_kernels_give_scipy_bits(self, sparse, data):
        n, d = sparse.shape
        x = np.array(data.draw(st.lists(KERNEL_INPUTS, min_size=d, max_size=d)), dtype=float)
        z = np.array(data.draw(st.lists(KERNEL_INPUTS, min_size=n, max_size=n)), dtype=float)
        X = CountMatrix(sparse.indptr, sparse.indices, sparse.data, sparse.shape)
        with np.errstate(over="ignore"):  # 3 * 1e300; scipy does not warn
            assert bits(X.matvec(x)) == bits(sparse @ x)
            assert bits(X.rmatvec(z)) == bits(sparse.T @ z)

    @settings(max_examples=150, deadline=None)
    @given(
        alphabet=st.sampled_from(["A", "AC", "ACDEF"]),
        data=st.data(),
        kmer_size=st.integers(1, 4),
        include_cdr3a=st.booleans(),
    )
    def test_training_matrix_equals_csr_sum_duplicates(
        self, alphabet, data, kmer_size, include_cdr3a
    ):
        windows = encode_kmers(data.draw(example_sets(alphabet, "t")), kmer_size, include_cdr3a)
        expected = csr_sum_duplicates(windows)
        assert_same_arrays(training_matrix(windows), expected)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_rows_and_columns(self, shape):
        # a training matrix with no rows, or rows without a k-mer, then the
        # kernels on zero-row and zero-column matrices
        n_rows, n_cols = shape
        per_row = np.zeros(n_rows, dtype=np.int64)
        X = _training_matrix(np.empty(0, dtype=np.int32), per_row)
        assert_same_arrays(X, csr_matrix((n_rows, 0)))
        sparse = csr_matrix(shape)
        X = CountMatrix(sparse.indptr, sparse.indices, sparse.data, shape)
        x, z = np.arange(n_cols, dtype=float), np.arange(n_rows, dtype=float)
        assert bits(X.matvec(x)) == bits(sparse @ x)
        assert bits(X.rmatvec(z)) == bits(sparse.T @ z)

    def test_arrays_and_vectors_must_fit_the_shape(self):
        # the compiled loops index the arrays and vectors unchecked
        sparse = csr_matrix(np.eye(3))
        arrays = sparse.indptr, sparse.indices, sparse.data
        with pytest.raises(ValueError, match="do not fit shape"):
            CountMatrix(*arrays, (4, 3))
        with pytest.raises(ValueError, match="do not fit shape"):
            CountMatrix(sparse.indptr, sparse.indices[:2], sparse.data[:2], (3, 3))
        X = CountMatrix(*arrays, (3, 5))
        with pytest.raises(ValueError, match="csr_matvec: vector of shape"):
            X.matvec(np.ones(3))
        with pytest.raises(ValueError, match="csc_matvec: vector of shape"):
            X.rmatvec(np.ones(5))

    # the cases keep the names of the two sides a fit's size once picked:
    # 8,253 windows were built with np.unique and bincount, 220,592 with
    # scipy's compiled kernels. Both sizes now take the compiled kernels.
    @pytest.mark.parametrize("n_rows", [300, 8000], ids=["bincount", "compiled"])
    def test_training_matrix_leaves_the_windows_numbering_intact(self, n_rows):
        # the kernels sort and compact their indices in place; they must not
        # be the windows' cached first-seen ranks
        windows = encode_kmers(motif_corpus(n_rows, 1), 3)
        vocab = build_vocabulary(windows)
        columns, rank = windows.columns(vocab), windows.first_seen[0].copy()
        X = training_matrix(windows)
        assert windows.columns(vocab).tolist() == columns.tolist()
        assert windows.first_seen[0].tolist() == rank.tolist()
        assert not np.shares_memory(X.indices, windows.first_seen[0])


def test_scipy_sparse_imported_after_a_fit_gives_its_bits():
    # a fit loads the kernels without scipy; a later import of scipy.sparse in
    # the same process still loads its own kernel module, and its products
    # give CountMatrix's bits
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from tcrselect.scorer import _training_matrix, encode_kmers, train_linear\n"
        "from tcrselect.toycorpus import motif_corpus\n"
        "data = motif_corpus(300, 1)\n"
        "model = train_linear(data)\n"
        "windows = encode_kmers(data, 3)\n"
        "X = _training_matrix(windows.take_first_seen()[0], windows.per_row)\n"
        "assert 'tcrselect._sparsetools' in sys.modules and 'scipy' not in sys.modules\n"
        "import scipy.sparse\n"
        "assert 'scipy.sparse._sparsetools' in sys.modules\n"
        "assert scipy.sparse._sparsetools is not sys.modules['tcrselect._sparsetools']\n"
        "sparse = scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)\n"
        "x, z = model.weights, np.sin(np.arange(X.shape[0]))\n"
        "assert X.matvec(x).tobytes() == (sparse @ x).tobytes()\n"
        "assert X.rmatvec(z).tobytes() == (sparse.T @ z).tobytes()\n"
        "print(X.shape)\n"
    )
    package_root = Path(scorer_module.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert done.stdout == "(300, 2495)\n"


def test_missing_kernels_are_a_one_line_error(tmp_path, monkeypatch, capsys):
    # the kernels are looked for in scipy's sparse folder alone; without them
    # a fit fails naming that folder, and nothing falls back to scipy.sparse
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    message = f"scipy's compiled sparse kernels not found: no _sparsetools in {tmp_path / 'sparse'}"
    scorer_module._sparsetools.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
            with pytest.raises(RuntimeError) as err:
                train_linear(motif_corpus(50, 1))
            assert str(err.value) == message
            argv = ["score", "--dataset", str(toy_dataset_path()), "--out", str(tmp_path / "o")]
            assert main(argv) == 1
    finally:
        scorer_module._sparsetools.cache_clear()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_linear_traced_peak_per_window_is_bounded():
    # the random-split train part of motif_corpus(20000, 1), whose k-mer codes
    # take the first-seen table. The traced peak counts every Python and
    # numpy allocation. It reads 17.0 bytes per window on numpy 2.4; it read
    # 30.3 when a packed int64 sort numbered the k-mers and the count matrix
    # was built while the strings and codes were still held.
    data = motif_corpus(20000, 1)
    train = data.subset(split_random(data, SplitConfig(seed=13)).train_ids)
    n_windows = len(encode_kmers(train, 3).code)
    assert n_windows == 386_064
    tracemalloc.start()
    try:
        train_linear(train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_windows < 18.0


def test_encode_kmers_traced_peak_per_window_is_bounded(monkeypatch):
    # encode_kmers writes each block's digits straight from the sequence
    # buffers and copies the block's codes into one array of the part's
    # window count. On the random-split train part of motif_corpus(12000, 2),
    # in blocks of 1,024 rows, the traced peak reads 7.35 bytes per window at
    # k = 3 on numpy 2.4, 4.58 of them the codes and window counts returned.
    # Joining the part's fields into one text first, as the encoder once did,
    # read 15.9. At this size the training matrix sets train_linear's own
    # peak, 19.1 bytes per window with either encoder, so the encoder is
    # bounded alone.
    monkeypatch.setattr(scorer_module, "_ENCODE_BLOCK", 1024)
    data = motif_corpus(12000, 2)
    (train,) = split_random(data, SplitConfig()).take(data, "train")
    n_windows = len(encode_kmers(train, 3).code)
    assert n_windows == 232_718
    tracemalloc.start()
    try:
        encode_kmers(train, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_windows < 8.5


def first_seen_oracle(values: list) -> tuple[list[int], list[int]]:
    """(rank, first) by a dict: the r-th distinct value to appear has rank r
    and first appears at first[r]."""
    rank_of: dict = {}
    first: list[int] = []
    for i, value in enumerate(values):
        if value not in rank_of:
            rank_of[value] = len(first)
            first.append(i)
    return [rank_of[value] for value in values], first


def assert_first_seen_matches_oracle(codes: np.ndarray) -> None:
    rank, first = _first_seen(codes)
    expected_rank, expected_first = first_seen_oracle(codes.tolist())
    assert rank.dtype == np.int32
    assert rank.tolist() == expected_rank
    assert first.tolist() == expected_first


@st.composite
def code_arrays(draw):
    """Codes with repeats, drawn from a few values of one kind: int32 and
    int64 codes below 60, which fall on either side of the table rule; any
    int32 codes; int64 codes below 2**40, up to 2**63 - 1, or possibly
    negative; Python ints beyond int64. All but the first two kinds nearly
    always take np.unique."""
    dtype, values = draw(st.sampled_from([
        (np.int32, st.integers(0, 2**31 - 1)),
        (np.int32, st.integers(0, 60)),
        (np.int64, st.integers(0, 60)),
        (np.int64, st.integers(0, 2**40)),
        (np.int64, st.integers(0, 2**63 - 1)),
        (np.int64, st.integers(-(2**40), 2**40)),
        (object, st.integers(0, 2**80)),
    ]))
    pool = draw(st.lists(values, min_size=1, max_size=8))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=60)), dtype=dtype)


def first_seen_rule(codes: np.ndarray) -> str:
    """The path _first_seen documents for codes: the table alone when every
    code is an integer in [0, len(codes)), else np.unique before it."""
    values = codes.tolist()
    if codes.dtype != object and all(0 <= value < len(values) for value in values):
        return "table"
    return "unique"


def first_seen_path(codes: np.ndarray) -> str:
    """The path _first_seen takes on codes, checked against the dict oracle:
    np.unique when it calls it, else the table alone."""
    calls = []

    def spy(name, function):
        return lambda *a, **k: calls.append(name) or function(*a, **k)

    with mock.patch.object(np, "unique", spy("unique", np.unique)):
        assert_first_seen_matches_oracle(codes)
    assert len(calls) <= 1
    return calls[0] if calls else "table"


class TestFirstSeen:
    @settings(max_examples=300, deadline=None)
    @given(codes=code_arrays())
    # the largest code one below the count, then equal to it
    @example(codes=np.array([3, 0, 3, 1], np.int32))
    @example(codes=np.array([4, 0, 4, 1], np.int32))
    @example(codes=np.array([5, 5, 2, 0, 1, 2], np.int64))
    @example(codes=np.array([6, 6, 2, 0, 1, 2], np.int64))
    def test_matches_dict_oracle(self, codes):
        assert first_seen_path(codes) == first_seen_rule(codes)

    @pytest.mark.parametrize(
        "codes",
        [
            np.zeros(0, np.int32),
            np.zeros(0, np.int64),
            np.zeros(0, object),
            np.full(1, 7, np.int32),
            np.full(9, 7, np.int32),
            np.full(9, 9, np.int32),
            np.full(9, 2**62, np.int64),
            np.full(9, 2**70, object),
        ],
        ids=["empty-int32", "empty-int64", "empty-object", "one", "repeated",
             "repeated-above", "repeated-wide", "repeated-object"],
    )
    def test_empty_and_one_repeated_value(self, codes):
        assert first_seen_path(codes) == first_seen_rule(codes)

    # k = 3 codes reach 17,971 on motif_corpus: 40 rows have 1,107 windows
    # and 800 rows 22,032, on either side of the table rule
    @pytest.mark.parametrize(
        "n_rows, kmer_size, dtype, path",
        [
            pytest.param(40, 3, np.int32, "unique", id="3-int32-True"),
            pytest.param(40, 9, np.int64, "unique", id="9-int64-True"),
            pytest.param(40, 14, np.int64, "unique", id="14-int64-False"),
            pytest.param(40, 15, object, "unique", id="15-object-False"),
            pytest.param(40, 2, np.int32, "table", id="2-int32-table"),
            pytest.param(800, 3, np.int32, "table", id="3-int32-table"),
        ],
    )
    def test_encoder_codes_take_each_path(self, n_rows, kmer_size, dtype, path):
        windows = encode_kmers(motif_corpus(n_rows, 1), kmer_size)
        assert windows.code.dtype == dtype
        assert first_seen_path(windows.code) == path


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
            X = CountMatrix(X.indptr, X.indices, X.data, X.shape)
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
        M = CountMatrix(X.indptr, X.indices, X.data, X.shape)
        loss, _, _ = loss_and_grad(M, y, ones, weights, bias, 0.0)
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
    return dataset_of(examples)


class TestTrainLinear:
    def test_separable_set_reaches_full_accuracy(self):
        data = toy_train_set()
        model = train_linear(data, TrainingConfig())
        records = score(model, data)
        predicted = [1 if p >= 0.5 else 0 for p in sigmoid(records.logits)]
        assert predicted == [ex.label for ex in data]

    def test_zero_epochs_is_null_model(self):
        data = toy_train_set()
        model = train_linear(data, TrainingConfig(epochs=0))
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
        # momentum alone does not promise a monotone loss; on this separable
        # set at the default settings every epoch still lowers it
        data = toy_train_set()
        losses = []
        # the oracle computes the exact loss of every iterate; train_linear
        # only the final one, which must be the oracle's
        oracle = train_oracle.train_linear(
            data, TrainingConfig(), loss_callback=lambda k, loss: losses.append(loss)
        )
        model = train_linear(data, TrainingConfig())
        assert model.final_train_loss.hex() == oracle.final_train_loss.hex()
        assert len(losses) == TrainingConfig().epochs + 1
        assert losses[-1].hex() == model.final_train_loss.hex()
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_single_class_rejected(self):
        examples = [make_example(ex_id=f"p{i}", label=1) for i in range(3)]
        with pytest.raises(ValueError):
            train_linear(dataset_of(examples), TrainingConfig())

    def test_score_order_follows_dataset(self):
        data = toy_train_set(12)
        model = train_linear(data, TrainingConfig(epochs=5))
        forward = score(model, data)
        flipped = dataset_of(list(reversed(list(data))))
        backward = score(model, flipped)
        assert list(backward.ids) == list(reversed(forward.ids))
        by_id = dict(zip(forward.ids, forward.logits))
        assert all(by_id[i] == z for i, z in zip(backward.ids, backward.logits))

    def test_training_set_trains_the_same_model_once(self):
        data, config = toy_train_set(16), TrainingConfig(epochs=5)
        training = TrainingSet(data, config)
        assert train_linear(training, config).to_json() == train_linear(data, config).to_json()
        # train_linear took the windows over
        with pytest.raises(ValueError, match="has trained a model"):
            train_linear(training, config)
        with pytest.raises(ValueError, match="another k-mer setting"):
            train_linear(TrainingSet(data, config), TrainingConfig(kmer_size=2))

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
        records = score(model, dataset_of([ex]))
        assert records.logits[0] == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(records.logits)[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_empty_dataset(self):
        model = LinearScorerModel(
            kmer_size=3, vocabulary={}, weights=np.zeros(0),
            bias=0.0, class_weights=(1.0, 1.0),
        )
        assert len(score(model, dataset_of([]))) == 0


class TestLogitFiles:
    def test_round_trip(self, tmp_path):
        data = toy_train_set(8)
        model = train_linear(data, TrainingConfig(epochs=5))
        records = score(model, data)
        path = tmp_path / "logits.tsv"
        export_logits(records, path)
        loaded = ingest_logits(read_logits(path), data)
        assert list(zip(loaded.ids, loaded.logits, loaded.labels)) == list(
            zip(records.ids, records.logits, records.labels)
        )

    def test_missing_id_named(self, tmp_path):
        data = toy_train_set(4)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nt2\t0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t3"):
            ingest_logits(read_logits(path), data)

    def test_duplicate_id_named(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt0\t0.6\nt1\t-0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t0"):
            ingest_logits(read_logits(path), data)

    def test_non_finite_logit_named(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\tnan\nt1\t-0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="t0"):
            ingest_logits(read_logits(path), data)

    def test_extra_ids_tolerated(self, tmp_path):
        data = toy_train_set(2)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nghost\t9.0\n", encoding="utf-8")
        records = ingest_logits(read_logits(path), data)
        assert list(records.ids) == ["t0", "t1"]

    def test_parsed_logits_serve_several_parts(self, tmp_path):
        data = toy_train_set(4)
        path = tmp_path / "logits.tsv"
        path.write_text("t0\t0.5\nt1\t-0.5\nt2\t0.25\nt3\t1.5\n", encoding="utf-8")
        logits = read_logits(path)
        head, tail = data.subset(["t0", "t1"]), data.subset(["t2", "t3"])
        assert ingest_logits(logits, head).logits.tolist() == [0.5, -0.5]
        assert ingest_logits(logits, tail).logits.tolist() == [0.25, 1.5]
        assert ingest_logits(read_logits(path), tail).logits.tolist() == [0.25, 1.5]


LOGIT_IDS = ("t0", "t1", "", " t1", "t\u2028", "p\x85q", "é", "n\0ul")
LOGIT_VALUES = ("0.5", " 2 ", "1_0", "0x1", "abc", "", "nan", "-inf", "1e999", "1.5\x0b")


@st.composite
def logit_files(draw):
    """Bytes of a logit TSV. Most files hold one good 'id<TAB>logit' per line;
    the rest also have blank, short and long lines, odd or repeated ids and
    bad logits. LF, CRLF and CR line ends, 0 to 2 trailing line ends, an
    optional byte-order mark, and an undecodable tail."""
    odd = draw(st.integers(0, 2)) == 0
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9)) if odd else 9
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "\t", "a\tb\tc", "only"])))
            continue
        ex_id = draw(st.sampled_from(LOGIT_IDS)) if kind < 4 else f"x{i}"
        value = draw(st.sampled_from(LOGIT_VALUES)) if kind in (4, 5) else repr(
            draw(st.floats(allow_nan=False, allow_infinity=False))
        )
        lines.append(f"{ex_id}\t{value}")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines)
    text += newline * draw(st.integers(0, 2))
    return text.encode("utf-8") + (b"\xff\n" if odd and draw(st.integers(0, 3)) == 0 else b"")


def logit_outcome(read, path):
    try:
        return list(read(path).items())
    except ValueError as err:
        return type(err), str(err)


@given(logit_files(), st.sampled_from([1, 5, 16, 1 << 16]))
@settings(max_examples=300, deadline=None)
@example(b"x\t0.5\ny\tnan\n", 1 << 16)
@example(b"x\t-inf\n", 1 << 16)
@example(b"1\t2\t3\n4\n", 1 << 16)  # a line a cell long, then one a cell short
def test_read_logits_matches_the_line_reader(tmp_path_factory, contents, block_chars):
    path = tmp_path_factory.mktemp("logits") / "logits.tsv"
    path.write_bytes(contents)
    with mock.patch.object(data_module, "_BLOCK_CHARS", block_chars):
        assert logit_outcome(read_logits, path) == logit_outcome(logit_oracle.read_logits, path)


def test_plain_logits_are_read_in_blocks(tmp_path, monkeypatch):
    path = tmp_path / "logits.tsv"
    path.write_text("".join(f"x{i}\t{i / 7!r}\n" for i in range(5000)), encoding="utf-8")
    expected = logit_oracle.read_logits(path)
    monkeypatch.setattr(scorer_module, "_read_logit_lines", None)
    assert list(read_logits(path).items()) == list(expected.items())


def test_sigmoid_extremes():
    half, one, tiny = sigmoid(np.array([0.0, 800.0, -800.0])).tolist()
    assert half == 0.5
    assert one == 1.0
    assert tiny == math.exp(-800.0) if tiny else True
    assert 0.0 <= tiny < 1e-300
