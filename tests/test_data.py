"""Corpus ingestion, dedup, and negative generation."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dataset_oracle
from dataset_rows import dataset_of
from pair_oracle import oracle_dedup, related_strings, thresholds
from tcrselect import data as data_module
from tcrselect.data import (
    Dataset,
    NotUtf8,
    SequenceExample,
    TsvRowError,
    TsvSchemaError,
    deduplicate,
    export_tsv,
    generate_negatives,
    ingest_tsv,
)
from tcrselect.scorer import ingest_logits, read_logits


def make_example(
    ex_id="e1", cdr3a="CAVSDF", cdr3b="CASSLF", peptide="GILGFVFTL",
    epitope_id="EP01", label=1,
):
    return SequenceExample(
        id=ex_id, cdr3a=cdr3a, cdr3b=cdr3b, peptide=peptide,
        epitope_id=epitope_id, label=label,
    )


def make_dataset(rows, prefix="e"):
    return dataset_of(
        (f"{prefix}{i}", a, b, p, ep, y) for i, (a, b, p, ep, y) in enumerate(rows)
    )


TSV_HEADER = "id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"


class TestSequenceExample:
    """A row's checks, which run when it goes into a Dataset."""

    def test_uppercases_on_construction(self):
        data = dataset_of([make_example(cdr3b="cassLF")])
        assert tuple(data.cdr3b) == ("CASSLF",)
        assert next(iter(data)) == make_example(cdr3b="CASSLF")

    def test_rejects_invalid_residue(self):
        with pytest.raises(ValueError, match="X"):
            dataset_of([make_example(cdr3b="CASSXB")])

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError, match="^row 0: label must be 0 or 1, got '2'$"):
            dataset_of([make_example(label=2)])

    def test_label_is_checked_before_id(self, tmp_path):
        # a row with two defects reports the label, in a file and in code alike
        path = tmp_path / "c.tsv"
        path.write_text("id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n\tCAV\tCASS\tGIL\tEP1\t2\n")
        with pytest.raises(TsvRowError, match="^line 2: label must be 0 or 1, got '2'$"):
            ingest_tsv(path)
        with pytest.raises(ValueError, match="^row 0: label must be 0 or 1, got '2'$"):
            dataset_of([make_example(ex_id="", label=2)])


class TestDataset:
    def test_rejects_duplicate_ids(self):
        ex = make_example()
        with pytest.raises(ValueError, match="e1"):
            dataset_of([ex, ex])

    def test_rejects_epitope_peptide_mismatch(self):
        rows = [
            ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
            ("CAVT", "CAST", "NLVPMVATV", "EP01", 1),
        ]
        with pytest.raises(ValueError, match="EP01"):
            make_dataset(rows)

    @pytest.mark.parametrize("field", ["id", "epitope_id"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_rejects_tab_or_line_break_in_names(self, field, char):
        # no TSV output could write such an id or epitope id back
        columns = {"id": ["e0", "e1"], "cdr3a": ["CAV"] * 2, "cdr3b": ["CAS"] * 2,
                   "peptide": ["GIL"] * 2, "epitope_id": ["EP1"] * 2, "labels": [1, 0]}
        columns[field] = [columns[field][0], f"a{char}b"]
        with pytest.raises(ValueError, match=f"^row 1: {field} contains a tab or line break$"):
            Dataset(*columns.values())

    def test_subset_keeps_dataset_order(self):
        # id order in the argument must not matter: loaded manifests sort ids
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        assert data.subset(["e1", "e0"]).ids == ("e0", "e1")
        assert data.subset(["e0", "e1"]).ids == ("e0", "e1")

    def test_subset_unknown_id(self):
        data = make_dataset([("CAVS", "CASS", "GILGFVFTL", "EP01", 1)])
        with pytest.raises(ValueError, match="nope"):
            data.subset(["nope"])


class TestIngest:
    def test_round_trip(self, tmp_path):
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        path = tmp_path / "pairs.tsv"
        export_tsv(data, path)
        first = path.read_bytes()
        again = tmp_path / "again.tsv"
        export_tsv(ingest_tsv(path), again)
        assert again.read_bytes() == first

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("cdr3a\tcdr3b\tpeptide\tepitope\n", encoding="utf-8")
        with pytest.raises(TsvSchemaError, match="label"):
            ingest_tsv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n"
            "CAVT\tCAST\tNLVPMVATV\tEP02\t2\n",
            encoding="utf-8",
        )
        with pytest.raises(TsvRowError) as err:
            ingest_tsv(path)
        assert err.value.line == 3

    def test_bad_residue_names_line_and_character(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASB\tGILGFVFTL\tEP01\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(TsvRowError, match="B") as err:
            ingest_tsv(path)
        assert err.value.line == 2

    # str.upper folds each of these into residues ("ß" and "ﬀ" into two);
    # only a-z is uppercased, so each is an invalid residue, named as written
    @pytest.mark.parametrize("letter", ["ſ", "ı", "ß", "ﬀ"])
    @pytest.mark.parametrize("field", [1, 2, 3], ids=["cdr3a", "cdr3b", "peptide"])
    def test_non_ascii_letter_is_an_invalid_residue(self, tmp_path, letter, field):
        row = ["a", "cav", "CASS", "gilgf", "EP01", "1"]
        row[field] += letter
        message = f"{TSV_HEADER.split()[field]} contains invalid residue(s) [{letter!r}]"
        for name, line_end in (("block.tsv", "\n"), ("rows.tsv", "\r\n")):
            path = tmp_path / name
            text = TSV_HEADER + "\t".join(row) + "\n"
            path.write_text(text.replace("\n", line_end), encoding="utf-8")
            with pytest.raises(TsvRowError) as err:
                ingest_tsv(path)
            assert str(err.value) == f"line 2: {message}"
        with pytest.raises(ValueError) as err:
            Dataset(*zip(row))
        assert str(err.value) == f"row 0: {message}"

    def test_lowercase_accepted(self, tmp_path):
        path = tmp_path / "lower.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "cavs\tcass\tgilgfvftl\tEP01\t1\n",
            encoding="utf-8",
        )
        data = ingest_tsv(path)
        assert tuple(data.cdr3b) == ("CASS",)

    def test_column_mapping(self, tmp_path):
        path = tmp_path / "renamed.tsv"
        path.write_text(
            "alpha\tbeta\tpep\tantigen\tbound\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n",
            encoding="utf-8",
        )
        data = ingest_tsv(
            path,
            columns={
                "cdr3a": "alpha", "cdr3b": "beta", "peptide": "pep",
                "epitope_id": "antigen", "label": "bound",
            },
        )
        assert data.epitope_id == ("EP01",)

    def test_auto_ids_are_row_indices(self, tmp_path):
        path = tmp_path / "noid.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n"
            "CAVT\tCAST\tNLVPMVATV\tEP02\t0\n",
            encoding="utf-8",
        )
        assert ingest_tsv(path).ids == ("0", "1")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors that save "UTF-8 with BOM" prefix the first header cell;
        # read as text it would hide the id column and number the rows instead
        path = tmp_path / "bom.tsv"
        path.write_text(
            "id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "x1\tCAVS\tCASS\tGILGFVFTL\tEP01\t1\n"
            "x2\tCAVT\tCAST\tNLVPMVATV\tEP02\t0\n",
            encoding="utf-8-sig",
        )
        logits = tmp_path / "bom_logits.tsv"
        logits.write_text("x1\t0.5\nx2\t-1.5\n", encoding="utf-8-sig")
        assert path.read_bytes()[:3] == logits.read_bytes()[:3] == b"\xef\xbb\xbf"
        data = ingest_tsv(path)
        assert data.ids == ("x1", "x2")
        assert read_logits(logits) == {"x1": 0.5, "x2": -1.5}
        assert ingest_logits(read_logits(logits), data).logits.tolist() == [0.5, -1.5]


@pytest.mark.parametrize("contents, line, head", [
    (b"\xff", 1, ""),
    (b"a\nb\xff\n", 2, "a\n"),
    # a byte-order mark is dropped; CR LF and CR end lines as LF does
    (b"\xef\xbb\xbfa\r\nb\r\n\xc3\r\n", 3, "a\r\nb\r\n"),
    (b"a\rb\r\xed\xa0\x80\n", 3, "a\rb\r"),  # an encoded surrogate
    (b"a\n\nb\xe2\x82", 3, "a\n\n"),  # a character cut off at the end
    (b"\xe2\x82\nb\n", 1, ""),  # and one cut off by a line end
])
def test_not_utf8_names_the_first_line_that_does_not_decode(tmp_path, contents, line, head):
    path = tmp_path / "f.tsv"
    path.write_bytes(contents)
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8-sig")
    error = NotUtf8("dataset", path)
    assert (error.line, error.head) == (line, head)
    assert str(error) == f"dataset {path}: line {line}: not valid UTF-8"
    assert isinstance(error, ValueError)


RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
# names that ingest reads back as written: no quote, tab, line break, control
# character or whitespace that str.strip would remove
NAMES = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs"), blacklist_characters='"'),
    min_size=1, max_size=5,
)


@st.composite
def valid_rows(draw, max_rows=10):
    """Rows that Dataset accepts: unique ids, residue sequences, and one
    peptide per epitope."""
    ids = draw(st.lists(NAMES, unique=True, max_size=max_rows))
    sequences = st.text(RESIDUES, min_size=1, max_size=12)
    peptide_of = draw(st.dictionaries(NAMES, sequences, min_size=1, max_size=3))
    epitopes = st.sampled_from(sorted(peptide_of))
    rows = []
    for row_id in ids:
        epitope = draw(epitopes)
        rows.append((row_id, draw(sequences), draw(sequences), peptide_of[epitope], epitope,
                     draw(st.integers(0, 1))))
    return rows


ROWS = [("a", "CAV", "CASS", "GILGF", "EP1", 1), ("b", "CAVW", "CAS", "GILGF", "EP1", 0),
        ("c", "C", "CASSY", "NLVPM", "EP2", 1)]


def row_bytes(column, rows):
    """The bytes of each given row of a ResidueColumn, sliced one at a time."""
    return [column.data[column.offsets[r] : column.offsets[r + 1]].tobytes() for r in rows]


@settings(max_examples=150, deadline=None)
@given(rows=valid_rows(), positions=st.lists(st.integers(0, 99), max_size=20),
       block=st.sampled_from([1, 2, 3, 8192]))
@example(rows=ROWS, positions=[], block=8192)
@example(rows=ROWS, positions=[1], block=8192)
def test_take_gathers_the_rows_slices(rows, positions, block):
    data = dataset_of(rows)
    positions = [p % len(rows) for p in positions] if rows else []
    with mock.patch.object(data_module, "_ROW_BLOCK", block):
        taken = data._take(positions)
        assert list(taken) == [SequenceExample(*rows[p]) for p in positions]
    for column, source in ((taken.cdr3a, data.cdr3a), (taken.cdr3b, data.cdr3b)):
        assert column.offsets[0] == 0 and column.offsets[-1] == len(column.data)
        assert row_bytes(column, range(len(positions))) == row_bytes(source, positions)
        assert not (column.data.flags.writeable or column.offsets.flags.writeable)
    assert taken.labels.tolist() == [rows[p][5] for p in positions]


@settings(max_examples=150, deadline=None)
@given(rows=valid_rows(max_rows=30), block_chars=st.sampled_from([1, 7, 32, 1 << 16]))
def test_export_of_ingest_gives_back_the_file(tmp_path_factory, rows, block_chars):
    # what export_tsv writes: the default header, then each row's cells as
    # written, which the block reader reads in blocks of 1 to 65,536 characters
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    path.write_text(TSV_HEADER + "".join("\t".join(map(str, row)) + "\n" for row in rows),
                    encoding="utf-8", newline="")
    again = path.with_name("again.tsv")
    with mock.patch.object(data_module, "_BLOCK_CHARS", block_chars):
        export_tsv(ingest_tsv(path), again)
    assert again.read_bytes() == path.read_bytes()


class TestDeduplicate:
    # length-20 concatenations one substitution apart: identity 0.95
    NEAR_A = ("CASSLGQET", "QYGILGFVF", "TL", "EP01", 1)
    NEAR_B = ("CASSPGQET", "QYGILGFVF", "TL", "EP01", 1)

    def test_exact_duplicate_dropped_at_threshold_one(self):
        rows = [self.NEAR_A, self.NEAR_A]
        data = make_dataset(rows)
        kept = deduplicate(data, 1.0)
        assert kept.ids == ("e0",)

    def test_near_duplicate_dropped_at_090(self):
        data = make_dataset([self.NEAR_A, self.NEAR_B])
        assert deduplicate(data, 0.9).ids == ("e0",)

    def test_near_duplicate_retained_at_099(self):
        data = make_dataset([self.NEAR_A, self.NEAR_B])
        assert deduplicate(data, 0.99).ids == ("e0", "e1")

    def test_empty_dataset_ok(self):
        assert len(deduplicate(dataset_of([]), 0.9)) == 0

    def test_first_kept_order(self):
        rows = [self.NEAR_B, self.NEAR_A]
        data = make_dataset(rows)
        assert deduplicate(data, 0.9).ids == ("e0",)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        import random

        rng = random.Random(seed)
        rows = []
        for _ in range(12):
            b = "CASS" + "".join(rng.choice("GILV") for _ in range(4)) + "F"
            rows.append(("CAV", b, "GILGFVFTL", "EP01", 1))
        data = make_dataset(rows)
        once = deduplicate(data, 0.8)
        twice = deduplicate(once, 0.8)
        assert once.ids == twice.ids

    @given(related_strings(min_size=1), st.sampled_from(["G", "GW", "GILGF"]), thresholds)
    @settings(max_examples=150, deadline=None)
    def test_matches_pair_oracle(self, cdr3bs, peptide, threshold):
        data = make_dataset([("C", b, peptide, "EP01", 1) for b in cdr3bs])
        keys = list(map("".join, zip(data.cdr3a, data.cdr3b, data.peptide)))
        expected = tuple(data.ids[pos] for pos in oracle_dedup(keys, threshold))
        assert deduplicate(data, threshold).ids == expected


def positives_corpus(n_pos=50, n_epitopes=25):
    """Distinct TCR per positive so the non-cognate pool is large:
    n_pos * (n_epitopes - 1) pairs."""
    residues = "ACDEFGHIKLMNPQRSTVY"
    peptides = [
        residues[e % 19] + residues[(e // 19) % 19]
        + "".join(residues[(3 * k) % 19] for k in range(7))
        for e in range(n_epitopes)
    ]
    rows = []
    for i in range(n_pos):
        ep = i % n_epitopes
        tag = residues[i % 19] + residues[(i // 19) % 19]
        rows.append(
            make_example(
                ex_id=f"p{i}",
                cdr3a="CAV" + tag + "F",
                cdr3b="CASS" + tag + residues[i % 19] + "F",
                peptide=peptides[ep],
                epitope_id=f"EP{ep:02d}",
                label=1,
            )
        )
    return dataset_of(rows)


class TestGenerateNegatives:
    def test_count_at_low_rate(self):
        combined = generate_negatives(positives_corpus(50), 0.05, seed=3)
        assert len(combined) == 1000
        assert sum(ex.label for ex in combined) == 50

    def test_count_at_even_rate(self):
        combined = generate_negatives(positives_corpus(50), 0.5, seed=3)
        assert len(combined) == 100

    def test_rate_within_one_example(self):
        combined = generate_negatives(positives_corpus(50), 0.3, seed=3)
        n_pos = sum(ex.label for ex in combined)
        assert abs(n_pos - 0.3 * len(combined)) <= 1.0

    def test_single_epitope_rejected(self):
        rows = [("CAVS", "CASS", "GILGFVFTL", "EP01", 1)] * 3
        data = make_dataset(rows, prefix="p")
        with pytest.raises(ValueError, match="epitope"):
            generate_negatives(data, 0.5, seed=0)

    def test_rejects_nonpositive_input(self):
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        with pytest.raises(ValueError):
            generate_negatives(data, 0.5, seed=0)

    def test_no_cognate_pairs_emitted(self):
        positives = positives_corpus(50)
        known = {(ex.cdr3a, ex.cdr3b): set() for ex in positives}
        for ex in positives:
            known[(ex.cdr3a, ex.cdr3b)].add(ex.epitope_id)
        combined = generate_negatives(positives, 0.2, seed=9)
        for ex in combined:
            if ex.label == 0:
                binder_epitopes = known.get((ex.cdr3a, ex.cdr3b), set())
                assert ex.epitope_id not in binder_epitopes

    def test_same_seed_same_output(self, tmp_path):
        a = generate_negatives(positives_corpus(50), 0.1, seed=4)
        b = generate_negatives(positives_corpus(50), 0.1, seed=4)
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_tsv(a, pa)
        export_tsv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = generate_negatives(positives_corpus(50), 0.1, seed=4)
        b = generate_negatives(positives_corpus(50), 0.1, seed=5)
        pairs_a = [(ex.cdr3b, ex.peptide) for ex in a if ex.label == 0]
        pairs_b = [(ex.cdr3b, ex.peptide) for ex in b if ex.label == 0]
        assert pairs_a != pairs_b

    def test_demand_beyond_pool_rejected(self):
        # 2 TCRs x 2 epitopes with all-distinct cognates leaves 2 non-cognate
        # pairs; r=0.2 asks for 8
        rows = [
            ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
            ("CAVT", "CAST", "NLVPMVATV", "EP02", 1),
        ]
        data = make_dataset(rows, prefix="p")
        with pytest.raises(ValueError):
            generate_negatives(data, 0.2, seed=0)


RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def pair_positives(pairs, colliding=()):
    """Row i pairs TCR t with epitope e for (t, e) = pairs[i]; TCRs t and t + 4
    share cdr3a, and t and t + 1 share cdr3b unless t + 1 is a multiple of 4.
    Row i is named neg-i when i is in colliding, p<i> otherwise."""
    return dataset_of(
        (f"neg-{i}" if i in colliding else f"p{i}", "CAV" + RESIDUES[t % 4],
         "CASS" + RESIDUES[t // 4], "GIL" + RESIDUES[e % 20] + RESIDUES[e // 20], f"EP{e}", 1)
        for i, (t, e) in enumerate(pairs)
    )


def outcome(sample, *args):
    try:
        return sample(*args)
    except (ValueError, AssertionError) as err:
        return type(err), str(err)


# random.sample(population, k) copies a population of n <= 21 items for k <= 5
# and keeps a set of picks above that: 5 TCRs x 6 epitopes less 9 or 8 cognate
# pairs allow 21 or 22, and rates 0.65 and 0.62 ask for 5 negatives
POOL_EDGE = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 5), (1, 5), (2, 0), (3, 0)]


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 9)), min_size=1, max_size=40),
    colliding=st.sets(st.integers(0, 39)),
    rate=st.one_of(st.floats(0.02, 0.98), st.sampled_from(("none", "all"))),
    seed=st.integers(0, 2**32),
)
@example(pairs=POOL_EDGE, colliding=set(), rate=0.65, seed=1)
@example(pairs=POOL_EDGE[:8], colliding=set(), rate=0.62, seed=1)
@example(pairs=[(0, 0), (0, 1), (1, 1), (0, 0)], colliding={0, 2}, rate="all", seed=3)
@example(pairs=[(0, 0), (0, 1), (1, 0), (1, 1)], colliding=set(), rate="all", seed=0)
def test_generate_negatives_matches_the_list_sampler(pairs, colliding, rate, seed):
    positives = pair_positives(pairs, colliding)
    n_pos = len(pairs)
    n_allowed = len({t for t, _ in pairs}) * len({e for _, e in pairs}) - len(set(pairs))
    if rate == "none":
        rate = 1.0 - 1e-12  # ceil(n_pos * 1e-12 - 1e-9) = 0 negatives
    elif rate == "all":
        rate = n_pos / (n_pos + n_allowed)  # every allowed pair; 1.0, rejected, when none
    expected = outcome(dataset_oracle.generate_negatives, positives, rate, seed)
    assert outcome(generate_negatives, positives, rate, seed) == expected
    if rate == n_pos / (n_pos + n_allowed) and not isinstance(expected, tuple):
        assert len(expected) == n_pos + n_allowed


def test_generate_negatives_traced_peak_is_bounded():
    # 2,000 TCRs x 200 epitopes: listing the 398,000 allowed pairs peaked at
    # 26.4 MiB; numbering them leaves the 8,000 negatives' rows and draws
    positives = dataset_of(
        (f"p{i}", "CAV" + RESIDUES[i % 20] + RESIDUES[i // 20 % 20],
         "CASS" + RESIDUES[i // 400] + "F", "GIL" + RESIDUES[i % 20] + RESIDUES[i % 200 // 20],
         f"EP{i % 200}", 1)
        for i in range(2000)
    )
    tracemalloc.start()
    try:
        combined = generate_negatives(positives, 0.2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(combined) == 10000
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
