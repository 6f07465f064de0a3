"""The column store against the row-object oracle in dataset_oracle."""

import csv
import hashlib
import io
import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dataset_oracle as oracle
from dataset_rows import dataset_of
from tcrselect import data as data_module
from tcrselect.data import Dataset, TsvRowError, deduplicate, export_tsv, ingest_tsv
from tcrselect.splits import (
    PARTS,
    SplitConfig,
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)
from tcrselect.toycorpus import motif_corpus

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
PEPTIDE_OF = {"EP1": "GILGF", "EP2": "NLVPM", "EP3": "GLCTL"}
# cells that fail a check, or pass only after stripping or uppercasing
ODD_SEQUENCES = ("", "  ", "CASB", "CA SS", "CAS1", "*", "ß", "straße", "CASé", "Ω")
PADDING = (" ", "  ", "\xa0", "\x0b")
ODD_LABELS = ("", "2", "x", "1.0", "-1", "１")
ODD_IDS = ("", "  ", "dup", "dup", "é", "t\tab", "l\nf", "c\rr", "\xa0x\x0b")
# characters that str.splitlines breaks at but csv keeps inside a cell, and NUL
IN_CELL = ("\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\x1e", "\0")
NOTES = ("", "x", "a b", "u\u2028v", "n\x85o")


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

    Covers lowercase, padding, blank and all-tab rows, extra columns and
    cells, no id column, renamed headers, quoted cells (with tabs and line
    breaks inside, or only in the last row), LF, CRLF and lone CR line ends,
    0 to 2 trailing line ends, line separators and NUL inside cells,
    non-ASCII, invalid residues, empty fields, bad labels, short rows,
    duplicate ids, ids and epitopes with a tab or line break, and epitopes
    with two peptides.
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
    # quoting: only where a cell needs it, also at random, or in the last row
    quoting = draw(st.sampled_from(["needed"] * 3 + ["random", "last"]))
    newline = draw(st.sampled_from(["\n"] * 3 + ["\r\n", "\r", "mixed"]))
    # most files keep one cell per header column in every row, so that a
    # split at tabs and newlines reads them
    ragged = draw(st.integers(0, 2)) == 0
    rows = [list(names)]
    for i in range(draw(st.integers(0, 8))):
        kinds = st.integers(0, 29) if ragged else st.sampled_from([0, 1, 2, 3, 4, 8, *range(9, 30)])
        kind = draw(kinds)
        if kind == 0:
            # csv reads an all-tab row as blank, even one as wide as the header
            blank = ["", "\t", "\t" * 6] if ragged else []
            rows.append(draw(st.sampled_from([*blank, "\t" * (len(names) - 1)])))
            continue
        epitope = draw(st.sampled_from(sorted(PEPTIDE_OF)))
        peptide = PEPTIDE_OF[epitope]
        if kind == 1:
            peptide = draw(sequence_cells())
        cells = {
            "cdr3a": draw(sequence_cells()),
            "cdr3b": draw(sequence_cells()),
            "peptide": peptide,
            "epitope": epitope if kind != 2 else draw(
                st.sampled_from(["", " ", " EP1 ", "\xa0EP1\x0b", "E\nP", "E\tP"])
            ),
            "label": draw(st.sampled_from("01")) if kind != 3 else draw(
                st.sampled_from(ODD_LABELS + (" 1", "0 ", "\xa01", "0\x0b"))
            ),
            "id": f"r{i}" if kind != 4 else draw(st.sampled_from(ODD_IDS)),
            "note": draw(st.sampled_from(NOTES)) if kind != 7 else draw(
                st.sampled_from(["tab\there", "line\nbreak", 'say "hi"'])
            ),
        }
        if kind == 8:
            field = draw(st.sampled_from(sorted(cells)))
            cells[field] += draw(st.sampled_from(IN_CELL)) + "x"
        cells["beta"] = cells["cdr3b"]
        row = [cells[name] for name in names]
        if kind == 5:
            row = row[: draw(st.integers(0, len(row) - 1))]
        if kind == 6:
            row.append("extra")
        rows.append(row)
    last = len(rows) - 1
    lines = [
        row if isinstance(row, str) else "\t".join(
            quoted(cell)
            if any(char in cell for char in '\t\n\r"')
            or quoting == "random" and draw(st.integers(0, 9)) == 0
            or quoting == "last" and number == last and number > 0
            else cell
            for cell in row
        )
        for number, row in enumerate(rows)
    ]
    ends = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if newline == "mixed" else newline
        for _ in range(len(lines) - 1 + draw(st.integers(0, 2)))
    ]
    text = lines[0]
    for line, end in zip(lines[1:] + [""] * 2, ends):
        text += end + line
    return text, columns


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
    """The columns read, or the error's class, message and line. The oracle
    lets a csv.Error out (NUL in a cell, before Python 3.11); the package
    reports it as a TsvRowError, so both give its message and the class."""
    try:
        return columns_of(read(path, columns))
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)
    except csv.Error as err:
        return TsvRowError, str(err)


def assert_same_outcome(path, columns=None):
    ours, reference = outcome(ingest_tsv, path, columns), outcome(oracle.ingest_tsv, path, columns)
    if len(reference) == 2:  # a csv.Error, which the package gives with its line
        assert ours[0] is TsvRowError and ours[1].endswith(f": {reference[1]}")
    else:
        assert ours == reference


@given(corpus_files(), st.sampled_from([1, 7, 32, 1 << 16]))
@settings(max_examples=400, deadline=None)
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
          "cass\tCASS\tGILGF\tEP1\t1\nCASB\tCASS\tGILGF\tEP1\t1\nCASX\tCASS\tGILGF\tEP1\t1\n",
          None), 1 << 16)
@example(("id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
          "a\tCA\tCA\tGILGF\tEP1\t1\na\tCA\tCA\tNLVPM\tEP1\t1\n", None), 1 << 16)
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n\n CA \t ca \tGILGF\tEP1\t 0\n", None), 1 << 16)
# one row a cell short and one a cell long: the block's tab total is right
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
          "CA\tCA\tGILGF\tEP1\t1\tx\nCA\tCA\tGILGF\tEP1\n", None), 1 << 16)
# only the default id column may be missing: a renamed one is read when
# present and required otherwise, by the block reader and the row loop (CRLF)
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\nCA\tCA\tGILGF\tEP1\t1\n",
          {"id": "sample"}), 1 << 16)
@example(("cdr3a\tcdr3b\tpeptide\tepitope\tlabel\r\nCA\tCA\tGILGF\tEP1\t1\r\n",
          {"id": "sample"}), 1 << 16)
@example(("sample\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\r\nx\tCA\tCA\tGILGF\tEP1\t1\r\n",
          {"id": "sample"}), 1 << 16)
def test_ingest_matches_oracle(tmp_path_factory, case, block_chars):
    # small blocks put a non-plain line in a later block than the first
    text, columns = case
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(data_module, "_BLOCK_CHARS", block_chars):
        assert_same_outcome(path, columns)


def test_plain_corpus_is_read_in_blocks(tmp_path, monkeypatch):
    # the benchmark's corpus shape never reaches the row loop, and keeps one
    # string object per distinct peptide and epitope
    path = tmp_path / "corpus.tsv"
    export_tsv(motif_corpus(3000, 1), path)
    expected = oracle.ingest_tsv(path)
    monkeypatch.setattr(data_module, "_ingest_rows", None)
    data = ingest_tsv(path)
    assert columns_of(data) == columns_of(expected)
    for column in (data.peptide, data.epitope_id):
        assert len(set(map(id, column))) == len(set(column))


def test_field_over_the_csv_limit_fails_as_csv_does(tmp_path):
    # the row loop reports the csv error; a split at tabs would read the row
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
        + "a\tCAS\tCAS\tGILGF\tEP1\t1\n" * 3 + "b\tCASSLGQETQYF\tCAS\tGILGF\tEP1\t1\n",
        encoding="utf-8",
    )
    limit = csv.field_size_limit(11)
    try:
        assert_same_outcome(path)
        assert outcome(ingest_tsv, path)[1:] == ("line 5: field larger than field limit (11)", 5)
    finally:
        csv.field_size_limit(limit)


def test_lines_longer_than_a_block_are_read_by_the_row_loop(tmp_path):
    # a file with CR line ends holds no LF, so it is one line to split_blocks
    rows = "".join(f"r{i}\tCAS\tCAS\tGILGF\tEP1\t1\r" for i in range(10000))
    stream = io.StringIO(rows, newline="")
    with pytest.raises(data_module.NotPlainText):
        next(data_module.split_blocks(stream, 6))
    assert stream.tell() == 2 * data_module._BLOCK_CHARS < len(rows)  # not the whole file
    path = tmp_path / "corpus.tsv"
    path.write_text("id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n" + rows, encoding="utf-8")
    assert_same_outcome(path)


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
    assert rows[7] == tuple(column[7] for column in columns_of(data))
    assert Dataset(*zip(*rows)) == data
    assert not data.labels.flags.writeable


# one defect per kind, each injected into a row that is otherwise valid
DEFECTS = ("none", "empty id", "empty epitope", "empty cdr3a", "bad residue", "lowercase",
           "label 2", "repeated id", "second peptide")


@st.composite
def defective_rows(draw):
    """Rows of (id, cdr3a, cdr3b, peptide, epitope_id, label), some with a defect."""
    rows = []
    for i in range(draw(st.integers(0, 6))):
        epitope = draw(st.sampled_from(sorted(PEPTIDE_OF)))
        row = {
            "id": f"r{i}",
            "cdr3a": draw(st.text(RESIDUES, min_size=1, max_size=6)),
            "cdr3b": draw(st.text(RESIDUES, min_size=1, max_size=6)),
            "peptide": PEPTIDE_OF[epitope],
            "epitope_id": epitope,
            "label": draw(st.sampled_from([0, 1])),
        }
        defect = draw(st.sampled_from(DEFECTS[:1] * 6 + DEFECTS[1:]))
        if defect == "empty id":
            row["id"] = ""
        elif defect == "empty epitope":
            row["epitope_id"] = ""
        elif defect == "empty cdr3a":
            row["cdr3a"] = ""
        elif defect == "bad residue":
            row["cdr3b"] += draw(st.sampled_from("BJOUXZ1*"))
        elif defect == "lowercase":
            row["cdr3a"] = row["cdr3a"].lower()
        elif defect == "label 2":
            row["label"] = 2
        elif defect == "repeated id":
            row["id"] = "dup"
        elif defect == "second peptide":
            row["peptide"] = draw(st.text(RESIDUES, min_size=1, max_size=6))
        rows.append(tuple(row.values()))
    return rows


def checked(build):
    """The six columns built, or the message of the ValueError raised."""
    try:
        return columns_of(build())
    except ValueError as err:
        return str(err)


@given(defective_rows())
@settings(max_examples=300, deadline=None)
def test_columns_and_file_share_one_row_checker(tmp_path_factory, rows):
    """Dataset(*columns) and ingest_tsv on the same rows: both succeed with
    equal columns, or both fail at the same row with the same message."""
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    lines = ["id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel"]
    lines += ["\t".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = checked(lambda: ingest_tsv(path))
    from_columns = checked(lambda: dataset_of(rows))
    if isinstance(from_columns, str) and from_columns.startswith("row "):
        # a row error names the row position; the file names its line
        position, message = from_columns[len("row "):].split(": ", 1)
        from_columns = f"line {int(position) + 2}: {message}"
    assert from_file == from_columns


def test_unequal_column_lengths_raise():
    row = ("a", "CAS", "CAS", "GILGF", "EP1", 1)
    columns = [(cell,) for cell in row]
    columns[3] = ("GILGF", "GILGF")
    with pytest.raises(ValueError, match=r"^columns have unequal lengths \[1, 1, 1, 2, 1, 1\]$"):
        Dataset(*columns)
    assert Dataset(*(column[:1] for column in columns)).ids == ("a",)


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "input_sha256.json"


@pytest.mark.parametrize("seed", [1, 7919])
def test_benchmark_corpus_matches_its_pin(tmp_path, seed):
    # the cluster_distance workload exports motif_corpus(800, seed); a change
    # to the corpus generator's draws would change the benchmark's input
    pin = json.loads(PINS.read_text())["cluster_distance"][str(seed)]["corpus.tsv"]
    path = tmp_path / "corpus.tsv"
    export_tsv(motif_corpus(800, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin


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


def check_split_matches_oracle(data, old, protocol, seed):
    split, split_oracle, kwargs = SPLITS[protocol]
    manifest = split(data, SplitConfig(seed=seed, **kwargs))
    assert manifest.to_json() == split_oracle(old, seed=seed, **kwargs).to_json()
    parts = (manifest.train_ids, manifest.cal_ids, manifest.test_ids)
    # the parts run_pipeline takes, by position in the split's own column
    taken = manifest.take(data, "train", "cal", "test")
    for part, ids in zip(taken, parts):
        assert columns_of(part) == columns_of(data.subset(ids)) == columns_of(old.subset(ids))


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("protocol", sorted(SPLITS))
def test_splits_match_oracle(corpus_pair, protocol, seed):
    _, data, old = corpus_pair
    check_split_matches_oracle(data, old, protocol, seed)


@pytest.fixture(scope="module")
def shuffled_pair(tmp_path_factory):
    """corpus_pair's corpus exported in a seeded shuffled row order, so that
    its ids are not in sorted order."""
    data = motif_corpus(2000, 1)
    order = list(range(len(data)))
    random.Random(5).shuffle(order)
    path = tmp_path_factory.mktemp("shuffled") / "corpus.tsv"
    export_tsv(data._take(order), path)
    return path, ingest_tsv(path), oracle.ingest_tsv(path)


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("protocol", sorted(SPLITS))
def test_splits_match_oracle_in_shuffled_row_order(shuffled_pair, protocol, seed):
    _, data, old = shuffled_pair
    assert list(data.ids) != sorted(data.ids)
    check_split_matches_oracle(data, old, protocol, seed)


def test_reordered_dataset_is_taken_by_id(corpus_pair):
    # a manifest's column holds positions in the dataset it was split from;
    # the same rows in another order must be matched by id
    _, data, _ = corpus_pair
    manifest = split_random(data, SplitConfig(seed=1))
    reordered = data._take(list(reversed(range(len(data)))))
    parts = (manifest.train_ids, manifest.cal_ids, manifest.test_ids)
    for code, (part, ids) in enumerate(zip(manifest.take(reordered, *PARTS), parts)):
        assert columns_of(part) == columns_of(reordered.subset(ids))
        stale = reordered._take(np.flatnonzero(manifest.row_part == code).tolist())
        assert set(stale.ids) != set(ids)


def test_deduplicate_matches_oracle(corpus_pair):
    _, data, old = corpus_pair
    head = data.subset(data.ids[:600])
    assert columns_of(deduplicate(head, 0.8)) == columns_of(
        oracle.deduplicate(old.subset(old.ids()[:600]), 0.8)
    )
