"""Paired-sequence data model: a column store, TSV ingestion, dedup, negatives.

A corpus row is a TCR (cdr3a, cdr3b) paired with a peptide and its epitope id,
labeled 1 (binds) or 0. A Dataset stores six columns: ids, peptide and
epitope_id as tuples of str, cdr3a and cdr3b as ResidueColumns (one uint8
buffer of residue letters plus int64 offsets, Apache Arrow's variable-size
binary layout), and labels as an int8 array. Sequences have a-z uppercased on
ingest, and any other character that is not one of the 20 amino-acid letters
is invalid, named as written. Validation runs once, in bulk over whole
columns; only when a check fails is a single row examined, to name the first
bad row. Dataset(ids, cdr3a, cdr3b, peptide, epitope_id, labels) and
ingest_tsv run the same checks. SequenceExample is the plain row tuple that
iteration yields, with each sequence as a str.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .distance import candidate_pairs, check_identity_threshold, identity_at_least

AMINO_ACIDS = frozenset("ACDEFGHIKLMNPQRSTVWY")
_RESIDUE_BYTES = "".join(sorted(AMINO_ACIDS)).encode("ascii")

DEFAULT_COLUMNS: dict[str, str] = {
    "id": "id",
    "cdr3a": "cdr3a",
    "cdr3b": "cdr3b",
    "peptide": "peptide",
    "epitope_id": "epitope",
    "label": "label",
}


class TsvSchemaError(ValueError):
    """Header does not provide a required column."""


class TsvRowError(ValueError):
    """A data row is malformed; carries the 1-based file line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotUtf8(ValueError):
    """A file that is not valid UTF-8, named as "<kind> <path>: line N: not
    valid UTF-8" with N its first line that does not decode. Made only after a
    read has failed: it reads the file again as bytes. head is the text of the
    lines before line N, without a byte-order mark."""

    def __init__(self, kind: str, path: str | Path) -> None:
        lines = Path(path).read_bytes().splitlines(keepends=True)
        good = 0
        for line in lines:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
            good += 1
        self.line = good + 1
        self.head = b"".join(lines[:good]).decode("utf-8-sig")
        super().__init__(f"{kind} {path}: line {self.line}: not valid UTF-8")


def check_open_unit(name: str, value: float) -> None:
    """Raise unless a share, rate or identity setting lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1)")


def check_column_keys(columns: Mapping[str, str]) -> None:
    """Raise unless every key of a column mapping is a key of DEFAULT_COLUMNS."""
    unknown = set(columns) - set(DEFAULT_COLUMNS)
    if unknown:
        raise TsvSchemaError(f"unknown column key(s): {sorted(unknown)!r}")


def json_text(payload: Mapping) -> str:
    """The text of every JSON report: indented by 2, keys sorted, then a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _row_error(
    ex_id: str, cdr3a: str, cdr3b: str, peptide: str, epitope_id: str, label: str
) -> str | None:
    """The message of the first check one row fails, or None if it passes.

    Sequences must already be uppercased; the label is its text.
    """
    if label not in ("0", "1"):
        return f"label must be 0 or 1, got {label!r}"
    if not ex_id:
        return "id is empty"
    if _has_break(ex_id):
        return "id contains a tab or line break"
    if not epitope_id:
        return "epitope_id is empty"
    if _has_break(epitope_id):
        return "epitope_id contains a tab or line break"
    for field, seq in (("cdr3a", cdr3a), ("cdr3b", cdr3b), ("peptide", peptide)):
        if not seq:
            return f"{field} is empty"
        bad = set(seq) - AMINO_ACIDS
        if bad:
            return f"{field} contains invalid residue(s) {sorted(bad)!r}"
    return None


def _has_break(text: str) -> bool:
    """Whether text holds a tab, CR or LF, which no TSV output could write back."""
    return "\t" in text or "\n" in text or "\r" in text


def _all_residues(seqs: Collection[str]) -> bool:
    """Whether every string is non-empty and made of amino-acid letters only."""
    joined = "".join(seqs)
    return (
        all(seqs)
        and joined.isascii()
        and not joined.encode("ascii").translate(None, _RESIDUE_BYTES)
    )


# a-z alone: str.upper would fold some other letters into residues, such as
# "ſ" into "S" and "ß" into "SS"
_ASCII_UPPER = str.maketrans("abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _uppercased(seqs: Iterable[str]) -> tuple[str, ...]:
    """The strings with a-z uppercased, as the same tuple when none changes;
    each distinct string is uppercased once, and equal results share one object."""
    column = tuple(seqs)
    upper = {seq: seq.translate(_ASCII_UPPER) for seq in set(column)}
    if all(map(str.__eq__, upper, upper.values())):
        return column
    return tuple(map(upper.__getitem__, column))


def _encode_cells(cells: Sequence[str], data: bytearray, lengths: list[int]) -> None:
    """Append the cells' UTF-8 bytes, with a-z uppercased, to data, and the
    length in bytes of each cell to lengths."""
    joined = "".join(cells)
    if joined.isascii():
        data += joined.encode("ascii").upper()
        lengths.extend(map(len, cells))
    else:
        encoded = [cell.encode("utf-8", "surrogatepass") for cell in cells]
        data += b"".join(encoded).upper()
        lengths.extend(map(len, encoded))


_ROW_BLOCK = 8192  # rows per block of a ResidueColumn gather or decode


class ResidueColumn:
    """A column of sequences in Apache Arrow's variable-size binary layout.

    data is a uint8 array of every sequence's bytes back to back, and offsets
    an int64 array one longer than the column: row r is
    data[offsets[r]:offsets[r + 1]]. Both are read-only. A Dataset's columns
    hold residue letters only, so their bytes are ASCII; one being checked
    holds UTF-8. Iteration yields each row as a str.
    """

    __slots__ = ("data", "offsets")

    def __init__(self, data: np.ndarray, offsets: np.ndarray) -> None:
        data.flags.writeable = offsets.flags.writeable = False
        self.data, self.offsets = data, offsets

    @classmethod
    def of(cls, seqs: Iterable[str]) -> "ResidueColumn":
        """The strings, encoded once, with a-z uppercased."""
        data, lengths = bytearray(), []
        _encode_cells(list(seqs), data, lengths)
        return cls.built(data, lengths)

    @classmethod
    def built(cls, data: bytearray, lengths: list[int]) -> "ResidueColumn":
        """The column of data and lengths as _encode_cells appends them."""
        offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(np.frombuffer(data, np.uint8), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(self._strs, range(0, len(self), _ROW_BLOCK)))

    def _strs(self, start: int) -> Iterator[str]:
        """The rows of the block of _ROW_BLOCK rows from start, each as a str."""
        bounds = self.offsets[start : start + _ROW_BLOCK + 1]
        text = self.data[bounds[0] : bounds[-1]].tobytes()
        bounds = (bounds - bounds[0]).tolist()
        cells = map(slice, bounds[:-1], bounds[1:])
        if text.isascii():
            return map(text.decode("ascii").__getitem__, cells)
        return (text[cell].decode("utf-8", "surrogatepass") for cell in cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueColumn):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.data, other.data)

    def lengths(self) -> np.ndarray:
        """The length of every sequence."""
        return np.diff(self.offsets)

    def rows(self, start: int, stop: int) -> "ResidueColumn":
        """Rows start to stop, as views of this column's arrays."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return ResidueColumn(self.data[lo:hi], self.offsets[start : stop + 1] - lo)

    def take(self, rows: np.ndarray) -> "ResidueColumn":
        """The sequences at rows (an integer array), in that order. The bytes
        are gathered a block of _ROW_BLOCK rows at a time, so no index array
        spans the whole result."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.empty(offsets[-1], np.uint8)
        for start in range(0, len(rows), _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, len(rows))
            lo, hi = offsets[start], offsets[stop]
            # each byte's source position: its row's start, plus its place in the row
            index = np.repeat(starts[start:stop] - offsets[start:stop], lengths[start:stop])
            index += np.arange(lo, hi)
            data[lo:hi] = self.data[index]
        return ResidueColumn(data, offsets)

    def residues_ok(self) -> bool:
        """Whether every sequence is non-empty and made of amino-acid letters only."""
        return bool(self.lengths().all()) and not (
            self.data.tobytes().translate(None, _RESIDUE_BYTES))


def _first_bad_row(ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> tuple[int, str] | None:
    """(position, message) of the first row that fails a check, or None. The
    checks run in bulk over whole columns, and on single rows only after one
    fails. cdr3a and cdr3b are ResidueColumns, peptides have a-z uppercased,
    and labels are text."""
    residues_ok = cdr3a.residues_ok() and cdr3b.residues_ok() and _all_residues(set(peptide))
    names = "".join(ids) + "".join(set(epitope_id))
    names_ok = all(ids) and all(epitope_id) and not _has_break(names)
    if set(labels) <= {"0", "1"} and names_ok and residues_ok:
        return None
    for pos, row in enumerate(zip(ids, cdr3a, cdr3b, peptide, epitope_id, labels)):
        error = _row_error(*row)
        if error is not None:
            return pos, error
    raise AssertionError("bulk and per-row checks disagree")


def _names_unique(
    ids: Sequence[str], epitope_id: Sequence[str], peptide: Sequence[str]
) -> bool:
    """Whether the ids are distinct and each epitope carries one peptide, by one
    set pass over each column."""
    pairs = set(zip(epitope_id, peptide))
    return len(set(ids)) == len(ids) and len(pairs) == len({epitope for epitope, _ in pairs})


def _raise_not_unique(
    ids: Sequence[str], epitope_id: Sequence[str], peptide: Sequence[str]
) -> None:
    """Raise ValueError on the first row with a duplicate id or an epitope
    carrying a second peptide; called once _names_unique has failed."""
    seen: set[str] = set()
    peptide_of: dict[str, str] = {}
    for ex_id, epitope, pep in zip(ids, epitope_id, peptide):
        if ex_id in seen:
            raise ValueError(f"duplicate id {ex_id!r}")
        seen.add(ex_id)
        first = peptide_of.setdefault(epitope, pep)
        if first != pep:
            raise ValueError(
                f"epitope {epitope!r} maps to conflicting peptides {first!r} and {pep!r}"
            )
    raise AssertionError("bulk and per-row id checks disagree")


class SequenceExample(NamedTuple):
    """One TCR/peptide pair with a binary binding label; the unchecked row type."""

    id: str
    cdr3a: str
    cdr3b: str
    peptide: str
    epitope_id: str
    label: int


class Dataset:
    """Immutable ordered examples as columns, with unique ids.

    ids, peptide and epitope_id are tuples of str; cdr3a and cdr3b are
    ResidueColumns; labels is a read-only int8 array. Examples sharing an
    epitope_id carry the same peptide. Dataset(*zip(*rows)) builds one from
    rows; iteration yields SequenceExample rows.
    """

    __slots__ = ("ids", "cdr3a", "cdr3b", "peptide", "epitope_id", "labels")

    def __init__(self, ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> None:
        """Six columns of any iterables, checked as ingest_tsv checks a file,
        with each label read as its text; sequences have a-z uppercased.
        Unequal lengths, the first bad row ("row <position>: ..."), a
        duplicate id or an epitope with two peptides raise ValueError."""
        ids, peptide, epitope_id = tuple(ids), _uppercased(peptide), tuple(epitope_id)
        # the id set, the largest transient, is built before the residue buffers
        unique = _names_unique(ids, epitope_id, peptide)
        columns = (
            ids, ResidueColumn.of(cdr3a), ResidueColumn.of(cdr3b), peptide, epitope_id,
            tuple(map(str, labels)),
        )
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns have unequal lengths {list(map(len, columns))}")
        bad = _first_bad_row(*columns)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")
        if not unique:
            _raise_not_unique(ids, epitope_id, peptide)
        ids, cdr3a, cdr3b, peptide, epitope_id, labels = columns
        labels = np.frombuffer("".join(labels).encode(), np.int8) - 48  # each "0" or "1"
        self._assign(ids, cdr3a, cdr3b, peptide, epitope_id, labels)

    def _assign(self, ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> None:
        self.ids, self.cdr3a, self.cdr3b = ids, cdr3a, cdr3b
        self.peptide, self.epitope_id = peptide, epitope_id
        self.labels = np.asarray(labels, dtype=np.int8)
        self.labels.flags.writeable = False

    @classmethod
    def _from_columns(cls, ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> "Dataset":
        """A dataset of already validated columns; no check runs."""
        data = cls.__new__(cls)
        data._assign(ids, cdr3a, cdr3b, peptide, epitope_id, labels)
        return data

    def _text_columns(self) -> tuple:
        return (self.ids, self.cdr3a, self.cdr3b, self.peptide, self.epitope_id)

    def _take(self, positions: list[int]) -> "Dataset":
        """The rows at the given positions, in that order."""
        # itemgetter of two or more positions returns a tuple
        get = itemgetter(*positions) if len(positions) > 1 else (
            lambda column: tuple(map(column.__getitem__, positions)))
        rows = np.asarray(positions, dtype=np.intp)
        return Dataset._from_columns(
            get(self.ids), self.cdr3a.take(rows), self.cdr3b.take(rows), get(self.peptide),
            get(self.epitope_id), self.labels[rows],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[SequenceExample]:
        return map(SequenceExample, *self._text_columns(), self.labels.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._text_columns() == other._text_columns() and np.array_equal(
            self.labels, other.labels
        )

    def labels_by_id(self) -> dict[str, int]:
        return dict(zip(self.ids, self.labels.tolist()))

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """Examples with the given ids, in this dataset's order."""
        wanted = set(ids)
        keep = np.fromiter(map(wanted.__contains__, self.ids), bool, len(self))
        positions = np.flatnonzero(keep).tolist()
        if len(positions) < len(wanted):
            missing = wanted - set(self.ids)
            raise ValueError(f"unknown id(s): {sorted(missing)[:5]!r}")
        return self._take(positions)


_BLOCK_CHARS = 1 << 16  # characters per read in split_blocks
_SPACES = " \x0b\x0c\x1c\x1d\x1e\x1f"  # with \t\n\r, the ASCII that str.strip() removes
_SEQUENCE_FIELDS = ("cdr3a", "cdr3b")  # the columns that ingest reads into ResidueColumns


class NotPlainText(Exception):
    """A file that a split at newlines and tabs may read otherwise than its row loop."""


def split_blocks(handle: TextIO, width: int) -> Iterator[tuple[str, list[str]]]:
    """(text, cells) per block of about _BLOCK_CHARS characters of whole lines,
    split once at "\n" and then "\t": row r is cells[r * width:(r + 1) * width].
    A line with other than width - 1 tabs, or only tabs, or longer than a block
    raises NotPlainText; the caller then reads the file with its row loop,
    which defines the result."""
    row_ends = np.array([9] * (width - 1) + [10], np.uint8)  # a row's separators

    def cells(text: str) -> tuple[str, list[str]]:
        data = np.frombuffer(text.encode(), np.uint8)  # "\t" and "\n" stay one byte
        seps = np.flatnonzero((data == 9) | (data == 10))
        kinds = np.append(data[seps], 10)
        cell_bytes = np.diff(seps, prepend=-1, append=len(data)) - 1
        if (len(kinds) % width or (kinds.reshape(-1, width) != row_ends).any()
                or not cell_bytes.reshape(-1, width).any(axis=1).all()):
            raise NotPlainText
        return text, text.replace("\n", "\t").split("\t")

    carry = ""
    while chunk := handle.read(_BLOCK_CHARS):
        text, newline, carry = (carry + chunk).rpartition("\n")
        if newline:
            yield cells(text)
        elif len(carry) > _BLOCK_CHARS:  # such as a file whose lines end in CR only
            raise NotPlainText
    if carry:
        yield cells(carry)


def _csv_plain(text: str) -> bool:
    """Whether tab-delimited csv.reader reads text as a split at "\n" and "\t" does."""
    return len(text) <= csv.field_size_limit() and not any(map(text.__contains__, '"\r\0'))


def _column_positions(header: list[str], colmap: Mapping[str, str]):
    """The header position of each field, and the cell of a row that each of
    the six columns takes; only the default id column may be missing, and then
    the label cells stand in for ids, which are replaced by row indices."""
    positions: dict[str, int] = {}
    for field, name in colmap.items():
        if name in header:
            positions[field] = header.index(name)
        elif (field, name) != ("id", "id"):
            raise TsvSchemaError(f"missing required column {name!r}")
    return positions, tuple(positions.get(field, positions["label"]) for field in colmap)


def _ingest_blocks(path: str | Path, colmap: Mapping[str, str]):
    """_ingest_rows for a corpus that split_blocks reads as csv.reader does;
    the cells need no str.strip in a block that is ASCII without spaces. Each
    block's cdr3a and cdr3b cells are stripped, joined, encoded and appended to
    one growing buffer per column: keeping each block's bytes apart until the
    end left 1 MB more of the heap resident on the 100k-row corpus."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        first = handle.readline()
        header = first.removesuffix("\n").split("\t")
        if not (any(header) and _csv_plain(first)):
            raise NotPlainText
        positions, picks = _column_positions(header, colmap)
        cells: tuple = ([], (bytearray(), []), (bytearray(), []), [], [], [])
        width, strip = len(header), ()
        for text, block in split_blocks(handle, width):
            if not _csv_plain(text):
                raise NotPlainText
            spaced = not text.isascii() or any(map(text.__contains__, _SPACES))
            if spaced:
                strip = (str.strip,)
            for field, column, pos in zip(colmap, cells, picks):
                part = block[pos::width]
                if field in _SEQUENCE_FIELDS:
                    _encode_cells(list(map(str.strip, part)) if spaced else part, *column)
                elif field in ("peptide", "epitope_id"):
                    # they repeat a few values: keep one string of each
                    column.extend(map(sys.intern, part))
                else:
                    column.extend(part)
    ids, cdr3a, cdr3b, peptide, epitope_id, labels = cells
    return positions, (ids, ResidueColumn.built(*cdr3a), ResidueColumn.built(*cdr3b), peptide,
                       epitope_id, labels), [], None, strip


def _ingest_rows(path: str | Path, colmap: Mapping[str, str]):
    """(positions, the six columns, blank line numbers, the error that stopped
    the read or None, the steps that clean each cell) of any corpus, read with
    csv.reader. cdr3a and cdr3b are ResidueColumns of the stripped cells, and
    the other columns raw cells. A corpus that is not UTF-8 is read up to its
    first line that does not decode, and that NotUtf8 is the error unless an
    earlier line fails first."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return _read_rows(handle, colmap)
    except UnicodeDecodeError:
        error = NotUtf8("dataset", path)
    if error.line == 1:
        raise error
    head = io.StringIO(error.head, newline="")
    positions, cells, blank, failure, strip = _read_rows(head, colmap)
    return positions, cells, blank, failure or error, strip


def _read_rows(handle: TextIO, colmap: Mapping[str, str]):
    """_ingest_rows of an open corpus."""
    cells: tuple[list[str], ...] = ([], [], [], [], [], [])
    blank: list[int] = []
    failure: Exception | None = None
    reader = csv.reader(handle, delimiter="\t")
    try:
        header = next(reader)
    except StopIteration:
        raise TsvSchemaError("empty file, no header row") from None
    positions, (p_id, p_a, p_b, p_p, p_e, p_l) = _column_positions(header, colmap)
    needed = max(positions.values())
    add_id, add_a, add_b, add_p, add_e, add_l = (column.append for column in cells)
    line = 1
    try:
        for line, row in enumerate(reader, start=2):
            if not any(row):
                blank.append(line)
                continue
            if len(row) <= needed:
                failure = TsvRowError(
                    line, f"expected at least {needed + 1} fields, got {len(row)}"
                )
                break
            add_id(row[p_id])
            add_a(row[p_a])
            add_b(row[p_b])
            add_p(sys.intern(row[p_p]))
            add_e(sys.intern(row[p_e]))
            add_l(row[p_l])
    except csv.Error as err:
        failure = TsvRowError(line + 1, str(err))
    ids, cdr3a, cdr3b, peptide, epitope_id, labels = cells
    return positions, (ids, ResidueColumn.of(_clean(cdr3a, str.strip)),
                       ResidueColumn.of(_clean(cdr3b, str.strip)), peptide, epitope_id,
                       labels), blank, failure, (str.strip,)


def _clean(raw: list[str], *steps: Callable[[str], str]) -> tuple[str, ...]:
    """Every cell passed through the steps in turn; the raw cells are released."""
    cells: Iterable[str] = raw
    for step in steps:
        cells = map(step, cells)
    column = tuple(cells)
    raw.clear()
    return column


def ingest_tsv(path: str | Path, columns: Mapping[str, str] | None = None) -> Dataset:
    """Read a TSV corpus.

    columns maps logical field names (keys of DEFAULT_COLUMNS) to header names.
    The id column is optional under its default name id; absent, ids are the
    0-based data-row index, counting blank rows. A renamed id column is
    required. A leading UTF-8 byte-order mark is skipped. Cells are stripped
    and sequences have a-z uppercased. The cdr3a and cdr3b cells of each block
    (or of the whole file, on the csv.reader path) are encoded into the
    columns' buffers at once, and are not kept as str. The first malformed
    row (short, bad label, empty field, invalid residue) raises TsvRowError
    with its file line number, a data row's index + 2. Bytes that are not
    UTF-8 raise NotUtf8, naming the first line that does not decode, unless a
    row before it fails.

    A file with one cell per header column on every line and no quote, CR,
    NUL or blank line is split a block at a time (split_blocks); csv.reader
    reads any other row by row, with the same results.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        check_column_keys(columns)
        colmap.update(columns)
    try:
        positions, cells, blank, failure, strip = _ingest_blocks(path, colmap)
    except (NotPlainText, UnicodeDecodeError):
        positions, cells, blank, failure, strip = _ingest_rows(path, colmap)
    n = len(cells[0])

    def data_lines() -> list[int]:
        skipped = set(blank)
        return [line for line in range(2, n + len(blank) + 2) if line not in skipped]

    if "id" in positions:
        ids = _clean(cells[0], *strip)
    else:
        ids = tuple(str(line - 2) for line in data_lines())
        cells[0].clear()
    cdr3a, cdr3b = cells[1], cells[2]
    # a corpus has few distinct peptides and epitopes: keep one string of each
    peptide = _uppercased(_clean(cells[3], *strip, sys.intern))
    epitope_id = _clean(cells[4], *strip, sys.intern)
    raw_labels = _clean(cells[5], *strip)
    bad = _first_bad_row(ids, cdr3a, cdr3b, peptide, epitope_id, raw_labels)
    if bad is not None:
        raise TsvRowError(data_lines()[bad[0]], bad[1])
    if failure is not None:
        raise failure
    if not _names_unique(ids, epitope_id, peptide):
        _raise_not_unique(ids, epitope_id, peptide)
    return Dataset._from_columns(
        ids, cdr3a, cdr3b, peptide, epitope_id,
        np.frombuffer("".join(raw_labels).encode(), np.int8) - 48,
    )


def export_tsv(data: Dataset, path: str | Path) -> None:
    """Write the default schema plus the id column; round-trips with ingest_tsv."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(DEFAULT_COLUMNS.values()) + "\n")
        for row in zip(*data._text_columns(), map(str, data.labels.tolist())):
            handle.write("\t".join(row) + "\n")


def deduplicate(data: Dataset, identity_threshold: float) -> Dataset:
    """Greedy first-kept dedup over the cdr3a+cdr3b+peptide concatenation.

    An example is dropped when its concatenation has identity >=
    identity_threshold with any previously retained example. Keeps input order;
    idempotent. threshold 1.0 removes exactly byte-identical concatenations.
    """
    check_identity_threshold("identity_threshold", identity_threshold)
    keys = list(map("".join, zip(data.cdr3a, data.cdr3b, data.peptide)))
    # pairs come ordered by the later row, so an earlier row is settled first
    dropped = bytearray(len(keys))
    for later, earlier in candidate_pairs(keys, identity_threshold):
        for j, i in zip(later, earlier):
            if not (dropped[j] or dropped[i]) and identity_at_least(
                keys[j], keys[i], identity_threshold
            ):
                dropped[j] = 1
    return data._take([pos for pos, gone in enumerate(dropped) if not gone])


def generate_negatives(positives: Dataset, target_positive_rate: float, seed: int) -> Dataset:
    """Pad a positives-only dataset with sampled non-binding pairs.

    Draws ceil(n_pos * (1 - r) / r) (TCR, peptide) pairs uniformly without
    replacement from the combinations where the peptide's epitope differs from
    every epitope the TCR is seen binding, numbered TCR-major with TCRs and
    epitopes in first-seen order; no list of pairs is built, so memory is
    O(positives + negatives). Negatives carry label 0 and fresh ids; the
    returned dataset is positives (input order) followed by negatives, with
    its positive rate within one example of the target.
    """
    check_open_unit("target_positive_rate", target_positive_rate)
    if np.any(positives.labels != 1):
        raise ValueError("positives must contain only label=1 examples")
    n_pos = len(positives)
    if n_pos == 0:
        raise ValueError("positives is empty")

    tcr_codes: dict[tuple[str, str], int] = {}  # TCRs numbered in first-seen order
    tcr_of_row = np.fromiter((tcr_codes.setdefault(key, len(tcr_codes))
                              for key in zip(positives.cdr3a, positives.cdr3b)), np.int64, n_pos)
    peptides = dict(zip(positives.epitope_id, positives.peptide))  # epitopes, first-seen
    if len(peptides) < 2:
        raise ValueError("need at least 2 distinct epitopes to sample non-binders")

    r = target_positive_rate
    # 1e-9 snap keeps decimal-intended integer counts (50 pos, r=0.05 -> 950)
    # from crossing a ceil boundary through binary float error.
    count = math.ceil(n_pos * (1.0 - r) / r - 1e-9)
    # pair (t, e) of TCR t and epitope e is t * n_epi + e; the allowed pairs,
    # those no positive binds, are numbered 0 .. n_allowed - 1 in that order
    n_epi = len(peptides)
    epitope_codes = dict(zip(peptides, range(n_epi)))
    cognate = np.unique(tcr_of_row * n_epi + np.fromiter(
        map(epitope_codes.__getitem__, positives.epitope_id), np.int64, n_pos))
    n_allowed = len(tcr_codes) * n_epi - len(cognate)
    if count > n_allowed:
        raise ValueError(
            f"requested {count} negatives but only {n_allowed} non-cognate pairs exist"
        )
    # sample draws over range(n) as over any n-item list, to the same positions
    pairs = np.array(random.Random(seed).sample(range(n_allowed), count), dtype=np.int64)
    # cognate pair i has cognate[i] - i allowed pairs before it: step past each
    # cognate pair that an allowed position reaches
    pairs += np.searchsorted(cognate - np.arange(len(cognate)), pairs, side="right")
    epitopes = list(peptides)
    epitope = list(map(epitopes.__getitem__, (pairs % n_epi).tolist()))
    # each negative's TCR as the first positive row that holds it
    first_row = np.unique(tcr_of_row, return_index=True)[1]
    rows = np.concatenate((np.arange(n_pos), first_row[pairs // n_epi]))

    existing = set(positives.ids)
    neg_ids = []
    serial = 0
    for _ in range(count):
        while f"neg-{serial}" in existing:
            serial += 1
        neg_ids.append(f"neg-{serial}")
        serial += 1
    # fresh ids and the positives' own TCRs and epitope peptides: nothing to check
    combined = Dataset._from_columns(
        positives.ids + tuple(neg_ids),
        positives.cdr3a.take(rows),
        positives.cdr3b.take(rows),
        positives.peptide + tuple(map(peptides.__getitem__, epitope)),
        positives.epitope_id + tuple(epitope),
        np.concatenate((positives.labels, np.zeros(count, dtype=np.int8))),
    )
    if abs(n_pos - r * len(combined)) > 1.0 + 1e-9:
        raise AssertionError("negative count failed to hit the target rate")
    return combined
