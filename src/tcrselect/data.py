"""Paired-sequence data model: a column store, TSV ingestion, dedup, negatives.

A corpus row is a TCR (cdr3a, cdr3b) paired with a peptide and its epitope id,
labeled 1 (binds) or 0. A Dataset stores six columns: ids, cdr3a, cdr3b,
peptide and epitope_id as tuples of str, and labels as an int8 array.
Sequences are uppercased on ingest and validated against the 20-letter
amino-acid alphabet. Validation runs once, in bulk over whole columns; only
when a check fails is a single row examined, to name the first bad row.
Dataset(ids, cdr3a, cdr3b, peptide, epitope_id, labels) and ingest_tsv run
the same checks. SequenceExample is the plain row tuple that iteration yields.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

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

_EXPORT_ORDER = ("id", "cdr3a", "cdr3b", "peptide", "epitope", "label")


class TsvSchemaError(ValueError):
    """Header does not provide a required column."""


class TsvRowError(ValueError):
    """A data row is malformed; carries the 1-based file line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


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


def _all_residues(seqs: Sequence[str]) -> bool:
    """Whether every string is non-empty and made of amino-acid letters only."""
    joined = "".join(seqs)
    return (
        all(seqs)
        and joined.isascii()
        and not joined.encode("ascii").translate(None, _RESIDUE_BYTES)
    )


def _uppercased(seqs: Iterable[str]) -> tuple[str, ...]:
    """The strings uppercased, as the same objects when none would change."""
    column = tuple(seqs)
    joined = "".join(column)
    return column if joined == joined.upper() else tuple(map(str.upper, column))


def _first_bad_row(ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> tuple[int, str] | None:
    """(position, message) of the first row that fails a check, or None. The
    checks run in bulk over whole columns, and on single rows only after one
    fails. Sequences must already be uppercased; labels are text."""
    residues_ok = all(map(_all_residues, (cdr3a, cdr3b, peptide)))
    names = "".join(ids) + "".join(set(epitope_id))
    names_ok = all(ids) and all(epitope_id) and not _has_break(names)
    if set(labels) <= {"0", "1"} and names_ok and residues_ok:
        return None
    for pos, row in enumerate(zip(ids, cdr3a, cdr3b, peptide, epitope_id, labels)):
        error = _row_error(*row)
        if error is not None:
            return pos, error
    raise AssertionError("bulk and per-row checks disagree")


def _check_unique(
    ids: Sequence[str], epitope_id: Sequence[str], peptide: Sequence[str]
) -> None:
    """Raise ValueError on a duplicate id or on an epitope carrying two
    peptides, naming the first row at which either happens."""
    pairs = set(zip(epitope_id, peptide))
    if len(set(ids)) == len(ids) and len(pairs) == len({epitope for epitope, _ in pairs}):
        return
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

    ids, cdr3a, cdr3b, peptide and epitope_id are tuples of str; labels is a
    read-only int8 array. Examples sharing an epitope_id carry the same
    peptide. Dataset(*zip(*rows)) builds one from rows; iteration yields
    SequenceExample rows.
    """

    __slots__ = ("ids", "cdr3a", "cdr3b", "peptide", "epitope_id", "labels")

    def __init__(self, ids, cdr3a, cdr3b, peptide, epitope_id, labels) -> None:
        """Six columns of any iterables, checked as ingest_tsv checks a file,
        with each label read as its text; sequences are uppercased. Unequal
        lengths, the first bad row ("row <position>: ..."), a duplicate id or
        an epitope with two peptides raise ValueError."""
        columns = (
            tuple(ids),
            *map(_uppercased, (cdr3a, cdr3b, peptide)),
            tuple(epitope_id),
            tuple(map(str, labels)),
        )
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns have unequal lengths {list(map(len, columns))}")
        bad = _first_bad_row(*columns)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")
        ids, cdr3a, cdr3b, peptide, epitope_id, labels = columns
        _check_unique(ids, epitope_id, peptide)
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

    def _text_columns(self) -> tuple[tuple[str, ...], ...]:
        return (self.ids, self.cdr3a, self.cdr3b, self.peptide, self.epitope_id)

    def _take(self, positions: list[int]) -> "Dataset":
        """The rows at the given positions, in that order."""
        # itemgetter of two or more positions returns a tuple
        get = itemgetter(*positions) if len(positions) > 1 else (
            lambda column: tuple(map(column.__getitem__, positions)))
        return Dataset._from_columns(
            *map(get, self._text_columns()), self.labels[np.asarray(positions, dtype=np.intp)]
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
    the cells need no str.strip when every block is ASCII without spaces."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        first = handle.readline()
        header = first.removesuffix("\n").split("\t")
        if not (any(header) and _csv_plain(first)):
            raise NotPlainText
        positions, picks = _column_positions(header, colmap)
        cells: tuple[list[str], ...] = ([], [], [], [], [], [])
        width, strip = len(header), ()
        for text, block in split_blocks(handle, width):
            if not _csv_plain(text):
                raise NotPlainText
            if not text.isascii() or any(map(text.__contains__, _SPACES)):
                strip = (str.strip,)
            for field, column, pos in zip(colmap, cells, picks):
                # peptides and epitope ids repeat a few values: keep one string of each
                shared = field in ("peptide", "epitope_id")
                column.extend(map(sys.intern, block[pos::width]) if shared else block[pos::width])
    return positions, cells, [], None, strip


def _ingest_rows(path: str | Path, colmap: Mapping[str, str]):
    """(positions, raw cells of the six columns, blank line numbers, the error
    that stopped the read or None, the steps that clean each cell) of any
    corpus, read with csv.reader."""
    cells: tuple[list[str], ...] = ([], [], [], [], [], [])
    blank: list[int] = []
    failure: Exception | None = None
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
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
        except UnicodeDecodeError as err:
            failure = err
    return positions, cells, blank, failure, (str.strip,)


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
    and sequences uppercased. The first malformed row (short, bad label,
    empty field, invalid residue) raises TsvRowError with its file line
    number, a data row's index + 2.

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
    cdr3a = _uppercased(_clean(cells[1], *strip))
    cdr3b = _uppercased(_clean(cells[2], *strip))
    # a corpus has few distinct peptides and epitopes: keep one string of each
    peptide = _clean(cells[3], *strip, str.upper, sys.intern)
    epitope_id = _clean(cells[4], *strip, sys.intern)
    raw_labels = _clean(cells[5], *strip)
    bad = _first_bad_row(ids, cdr3a, cdr3b, peptide, epitope_id, raw_labels)
    if bad is not None:
        raise TsvRowError(data_lines()[bad[0]], bad[1])
    if failure is not None:
        raise failure
    _check_unique(ids, epitope_id, peptide)
    return Dataset._from_columns(
        ids, cdr3a, cdr3b, peptide, epitope_id,
        np.frombuffer("".join(raw_labels).encode(), np.int8) - 48,
    )


def export_tsv(data: Dataset, path: str | Path) -> None:
    """Write the default schema plus the id column; round-trips with ingest_tsv."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(_EXPORT_ORDER) + "\n")
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
    tcr_rows = [tcr_codes.setdefault(key, len(tcr_codes))
                for key in zip(positives.cdr3a, positives.cdr3b)]
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
    cognate = np.unique(np.array(tcr_rows, dtype=np.int64) * n_epi + np.fromiter(
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
    tcrs, epitopes = list(tcr_codes), list(peptides)
    tcr = list(map(tcrs.__getitem__, (pairs // n_epi).tolist()))
    epitope = list(map(epitopes.__getitem__, (pairs % n_epi).tolist()))

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
        positives.cdr3a + tuple(a for a, _ in tcr),
        positives.cdr3b + tuple(b for _, b in tcr),
        positives.peptide + tuple(map(peptides.__getitem__, epitope)),
        positives.epitope_id + tuple(epitope),
        np.concatenate((positives.labels, np.zeros(count, dtype=np.int8))),
    )
    if abs(n_pos - r * len(combined)) > 1.0 + 1e-9:
        raise AssertionError("negative count failed to hit the target rate")
    return combined
