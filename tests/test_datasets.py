"""The column store against the row-object oracle in dataset_oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dataset_oracle as oracle
from tcrselect.data import Dataset, deduplicate, export_tsv, ingest_tsv
from tcrselect.splits import split_distance_aware, split_epitope_held_out, split_random
from tcrselect.toycorpus import motif_corpus

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
PEPTIDE_OF = {"EP1": "GILGF", "EP2": "NLVPM", "EP3": "GLCTL"}
# cells that fail a check, or pass only after stripping or uppercasing
ODD_SEQUENCES = ("", "  ", "CASB", "CA SS", "CAS1", "*", "ß", "straße", "CASé", "Ω")
PADDING = (" ", "  ", " ", "\x0b")
ODD_LABELS = ("", "2", "x", "1.0", "-1", "１")
ODD_IDS = ("", "  ", "dup", "dup", "é")


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def sequence_cells(draw, base=st.text(RESIDUES, min_size=1, max_size=6)):
    kind = draw(st.integers(0, 19))
    seq = draw(base)
    if kind < 12:
        return seq
    if kind < 14:
        return seq.lower()
    if kind < 16:
        pad = draw(st.sampled_from(PADDING))
        return pad + seq + pad
    return draw(st.sampled_from(ODD_SEQUENCES))


@st.composite
def corpus_files(draw):
    """TSV text and the columns mapping to read it with.

    Covers lowercase, padding, blank rows, extra columns, no id column,
    renamed headers, quoted cells (with tabs and newlines inside), non-ASCII,
    invalid residues, empty fields, bad labels, short rows, duplicate ids and
    epitopes with two peptides.
    """
    names = ["cdr3a", "cdr3b", "peptide", "epitope", "label"]
    if draw(st.booleans()):
        names.append("id")
    if draw(st.booleans()):
        names.append("note")
    names = draw(st.permutations(names))
    columns = None
    if draw(st.integers(0, 3)) == 0:
        names = ["beta" if name == "cdr3b" else name for name in names]
        columns = {"cdr3b": "beta"}
    lines = ["\t".join(names)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "\t", "\t\t\t\t\t\t"])))
            continue
        epitope = draw(st.sampled_from(sorted(PEPTIDE_OF)))
        peptide = PEPTIDE_OF[epitope]
        if kind == 1:
            peptide = draw(sequence_cells())
        cells = {
            "cdr3a": draw(sequence_cells()),
            "cdr3b": draw(sequence_cells()),
            "peptide": peptide,
            "epitope": epitope if kind != 2 else draw(st.sampled_from(["", " ", " EP1 "])),
            "label": draw(st.sampled_from("01")) if kind != 3 else draw(
                st.sampled_from(ODD_LABELS + (" 1", "0 "))
            ),
            "id": f"r{i}" if kind != 4 else draw(st.sampled_from(ODD_IDS)),
            "note": draw(st.sampled_from(["", "x", "tab\there", "line\nbreak"])),
        }
        cells["beta"] = cells["cdr3b"]
        row = [cells[name] for name in names]
        row = [
            quoted(cell) if "\t" in cell or "\n" in cell or draw(st.integers(0, 9)) == 0
            else cell
            for cell in row
        ]
        if kind == 5:
            row = row[: draw(st.integers(0, len(row) - 1))]
        if kind == 6:
            row.append("extra")
        lines.append("\t".join(row))
    ending = draw(st.sampled_from(["\n", ""]))
    return "\n".join(lines) + ending, columns


def columns_of(data):
    """The six columns of a column-store or an oracle dataset."""
    if isinstance(data, Dataset):
        return (
            data.ids, data.cdr3a, data.cdr3b, data.peptide, data.epitope_id,
            data.labels.tolist(),
        )
    rows = data.examples
    return (
        tuple(ex.id for ex in rows), tuple(ex.cdr3a for ex in rows),
        tuple(ex.cdr3b for ex in rows), tuple(ex.peptide for ex in rows),
        tuple(ex.epitope_id for ex in rows), [ex.label for ex in rows],
    )


def outcome(read, path, columns=None):
    """The columns read, or the error's class, message and line."""
    try:
        return columns_of(read(path, columns))
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)


@given(corpus_files())
@settings(max_examples=300, deadline=None)
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
          "cass\tCASS\tGILGF\tEP1\t1\nCASB\tCASS\tGILGF\tEP1\t1\nCASX\tCASS\tGILGF\tEP1\t1\n",
          None))
@example(("id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
          "a\tCA\tCA\tGILGF\tEP1\t1\na\tCA\tCA\tNLVPM\tEP1\t1\n", None))
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n\n CA \t ca \tGILGF\tEP1\t 0\n", None))
def test_ingest_matches_oracle(tmp_path_factory, case):
    text, columns = case
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(ingest_tsv, path, columns) == outcome(oracle.ingest_tsv, path, columns)


def test_first_bad_row_is_reported(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
        "CASS\tCASS\tGILGF\tEP1\t1\n"
        "\n"
        "CASS\tCASB\tGILGF\tEP1\t1\n"
        "CASS\tCASS\tGILGF\tEP1\t2\n"
        "CASS\tCASS\tGILGF\tEP1\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        ingest_tsv(path)
    assert (str(err.value), err.value.line) == ("line 4: cdr3b contains invalid residue(s) ['B']", 4)


def test_row_error_before_undecodable_bytes_wins(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(
        b"cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
        b"CASS\tCASS\tGILGF\tEP1\t7\n" + b"CASS\tCASS\tGILGF\tEP1\t1\n" * 2000 + b"\xff\n"
    )
    assert outcome(ingest_tsv, path) == outcome(oracle.ingest_tsv, path)
    assert outcome(ingest_tsv, path)[2] == 2


def test_rows_are_built_on_demand():
    data = motif_corpus(30, 3)
    rows = list(data)
    assert [row.id for row in rows] == list(data.ids)
    assert data[4] == rows[4]
    assert data.by_id(data.ids[7]) == rows[7]
    assert Dataset(rows) == data
    assert not data.labels.flags.writeable


@pytest.fixture(scope="module")
def corpus_pair(tmp_path_factory):
    path = tmp_path_factory.mktemp("motif") / "corpus.tsv"
    export_tsv(motif_corpus(2000, 1), path)
    return path, ingest_tsv(path), oracle.ingest_tsv(path)


def test_motif_corpus_round_trips(corpus_pair, tmp_path):
    path, data, old = corpus_pair
    assert columns_of(data) == columns_of(old)
    again = tmp_path / "again.tsv"
    export_tsv(data, again)
    assert again.read_bytes() == path.read_bytes()


SPLITS = {
    "random": (split_random, oracle.split_random, {}),
    "epitope_held_out": (split_epitope_held_out, oracle.split_epitope_held_out,
                         {"k_test_epitopes": 2}),
    "epitope_disjoint_cal": (split_epitope_held_out, oracle.split_epitope_held_out,
                             {"k_test_epitopes": 2, "epitope_disjoint_cal": True}),
    "distance_aware": (split_distance_aware, oracle.split_distance_aware,
                       {"identity_ceiling": 0.9}),
}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("protocol", sorted(SPLITS))
def test_splits_match_oracle(corpus_pair, protocol, seed):
    _, data, old = corpus_pair
    split, split_oracle, kwargs = SPLITS[protocol]
    manifest = split(data, seed=seed, **kwargs)
    assert manifest.to_json() == split_oracle(old, seed=seed, **kwargs).to_json()
    for ids in (manifest.train_ids, manifest.cal_ids, manifest.test_ids):
        assert columns_of(data.subset(ids)) == columns_of(old.subset(ids))


def test_deduplicate_matches_oracle(corpus_pair):
    _, data, old = corpus_pair
    head = data.subset(data.ids[:600])
    assert columns_of(deduplicate(head, 0.8)) == columns_of(
        oracle.deduplicate(old.subset(old.ids()[:600]), 0.8)
    )
