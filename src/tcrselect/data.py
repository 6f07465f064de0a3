"""Paired-sequence data model: a column store, TSV ingestion, dedup, negatives.

A corpus row is a TCR (cdr3a, cdr3b) paired with a peptide and its epitope id,
labeled 1 (binds) or 0. A Dataset stores six columns: ids, cdr3a, cdr3b,
peptide and epitope_id as tuples of str, and labels as an int8 array.
Sequences are uppercased on ingest and validated against the 20-letter
amino-acid alphabet. Validation runs once, in bulk over whole columns; only
when a check fails is a single row examined, to name the first bad row.
SequenceExample is the row type: Dataset(rows) builds columns from rows, and
iteration, indexing and by_id build rows on demand.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .distance import CandidateIndex, identity_at_least

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
# SequenceExample fields behind the five text columns, in column order
_ROW_FIELDS = ("id", "cdr3a", "cdr3b", "peptide", "epitope_id")


class TsvSchemaError(ValueError):
    """Header does not provide a required column."""


class TsvRowError(ValueError):
    """A data row is malformed; carries the 1-based file line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _row_error(
    ex_id: str, cdr3a: str, cdr3b: str, peptide: str, epitope_id: str, label: int
) -> str | None:
    """The message of the first check one row fails, or None if it passes.

    Sequences must already be uppercased.
    """
    if not ex_id:
        return "id is empty"
    if not epitope_id:
        return "epitope_id is empty"
    if label not in (0, 1):
        return f"label must be 0 or 1, got {label!r}"
    for field, seq in (("cdr3a", cdr3a), ("cdr3b", cdr3b), ("peptide", peptide)):
        if not seq:
            return f"{field} is empty"
        bad = set(seq) - AMINO_ACIDS
        if bad:
            return f"{field} contains invalid residue(s) {sorted(bad)!r}"
    return None


def _all_residues(seqs: Sequence[str]) -> bool:
    """Whether every string is non-empty and made of amino-acid letters only."""
    joined = "".join(seqs)
    return (
        all(seqs)
        and joined.isascii()
        and not joined.encode("ascii").translate(None, _RESIDUE_BYTES)
    )


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


@dataclass(frozen=True, slots=True)
class SequenceExample:
    """One TCR/peptide pair with a binary binding label."""

    id: str
    cdr3a: str
    cdr3b: str
    peptide: str
    epitope_id: str
    label: int

    def __post_init__(self) -> None:
        for field in ("cdr3a", "cdr3b", "peptide"):
            object.__setattr__(self, field, getattr(self, field).upper())
        error = _row_error(
            self.id, self.cdr3a, self.cdr3b, self.peptide, self.epitope_id, self.label
        )
        if error is not None:
            raise ValueError(error)

    @property
    def concatenation(self) -> str:
        """cdr3a + cdr3b + peptide, the dedup comparison key."""
        return self.cdr3a + self.cdr3b + self.peptide


class Dataset:
    """Immutable ordered examples as columns, with unique ids.

    ids, cdr3a, cdr3b, peptide and epitope_id are tuples of str; labels is a
    read-only int8 array. Examples sharing an epitope_id carry the same
    peptide. Dataset(rows) checks ids and epitopes; rows come out as
    SequenceExample objects built on demand.
    """

    __slots__ = ("ids", "cdr3a", "cdr3b", "peptide", "epitope_id", "labels")

    def __init__(self, examples: Iterable[SequenceExample]) -> None:
        rows = tuple(examples)
        ids, cdr3a, cdr3b, peptide, epitope_id = (
            tuple(map(attrgetter(name), rows)) for name in _ROW_FIELDS
        )
        _check_unique(ids, epitope_id, peptide)
        labels = np.fromiter(map(attrgetter("label"), rows), np.int8, len(rows))
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

    def _take(self, positions: Sequence[int]) -> "Dataset":
        """The rows at the given positions, in that order."""
        return Dataset._from_columns(
            *(tuple(map(column.__getitem__, positions)) for column in self._text_columns()),
            self.labels[np.asarray(positions, dtype=np.intp)],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[SequenceExample]:
        return map(SequenceExample, *self._text_columns(), self.labels.tolist())

    def __getitem__(self, pos: int) -> SequenceExample:
        return SequenceExample(
            *(column[pos] for column in self._text_columns()), int(self.labels[pos])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._text_columns() == other._text_columns() and np.array_equal(
            self.labels, other.labels
        )

    @property
    def positive_rate(self) -> float:
        if not len(self):
            raise ValueError("positive_rate of an empty dataset")
        return int(self.labels.sum()) / len(self)

    def by_id(self, example_id: str) -> SequenceExample:
        try:
            return self[self.ids.index(example_id)]
        except ValueError:
            raise KeyError(example_id) from None

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
    The id column is optional; absent, ids are the 0-based data-row index,
    counting blank rows. Cells are stripped and sequences uppercased. The
    first malformed row (short, bad label, empty field, invalid residue)
    raises TsvRowError with its file line number, a data row's index + 2.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise TsvSchemaError(f"unknown column key(s): {sorted(unknown)!r}")
        colmap.update(columns)
    cells: tuple[list[str], ...] = ([], [], [], [], [], [])
    blank: list[int] = []
    failure: Exception | None = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise TsvSchemaError("empty file, no header row") from None
        positions: dict[str, int] = {}
        for field, name in colmap.items():
            if name in header:
                positions[field] = header.index(name)
            elif field != "id":
                raise TsvSchemaError(f"missing required column {name!r}")
        needed = max(positions.values())
        # without an id column the label cells stand in, replaced by row indices below
        p_id = positions.get("id", positions["label"])
        p_a, p_b, p_p, p_e, p_l = (
            positions[field] for field in ("cdr3a", "cdr3b", "peptide", "epitope_id", "label")
        )
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
                add_p(row[p_p])
                add_e(row[p_e])
                add_l(row[p_l])
        except csv.Error as err:
            failure = TsvRowError(line + 1, str(err))
        except UnicodeDecodeError as err:
            failure = err

    n = len(cells[0])

    def data_lines() -> list[int]:
        skipped = set(blank)
        return [line for line in range(2, n + len(blank) + 2) if line not in skipped]

    if "id" in positions:
        ids = _clean(cells[0], str.strip)
    else:
        ids = tuple(str(line - 2) for line in data_lines())
        cells[0].clear()
    cdr3a = _clean(cells[1], str.strip, str.upper)
    cdr3b = _clean(cells[2], str.strip, str.upper)
    # a corpus has few distinct peptides and epitopes: keep one string of each
    peptide = _clean(cells[3], str.strip, str.upper, sys.intern)
    epitope_id = _clean(cells[4], str.strip, sys.intern)
    raw_labels = _clean(cells[5], str.strip)
    if not (
        set(raw_labels) <= {"0", "1"}
        and all(ids)
        and all(epitope_id)
        and all(map(_all_residues, (cdr3a, cdr3b, peptide)))
    ):
        rows = zip(data_lines(), ids, cdr3a, cdr3b, peptide, epitope_id, raw_labels)
        for line, ex_id, a, b, pep, epitope, raw_label in rows:
            if raw_label not in ("0", "1"):
                raise TsvRowError(line, f"label must be 0 or 1, got {raw_label!r}")
            error = _row_error(ex_id, a, b, pep, epitope, int(raw_label))
            if error is not None:
                raise TsvRowError(line, error)
    if failure is not None:
        raise failure
    _check_unique(ids, epitope_id, peptide)
    return Dataset._from_columns(
        ids, cdr3a, cdr3b, peptide, epitope_id,
        np.fromiter(map("1".__eq__, raw_labels), np.int8, n),
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
    if not 0.0 < identity_threshold <= 1.0:
        raise ValueError("identity_threshold must be in (0, 1]")
    keys = list(map("".join, zip(data.cdr3a, data.cdr3b, data.peptide)))
    # the index holds the kept keys, so its ids are positions in kept_keys
    index = CandidateIndex(identity_threshold, max(map(len, keys), default=0))
    kept: list[int] = []
    kept_keys: list[str] = []
    for pos, key in enumerate(keys):
        if any(
            identity_at_least(key, kept_keys[i], identity_threshold)
            for i in index.candidates(key)
        ):
            continue
        kept.append(pos)
        kept_keys.append(key)
        index.add(key)
    return data._take(kept)


def generate_negatives(positives: Dataset, target_positive_rate: float, seed: int) -> Dataset:
    """Pad a positives-only dataset with sampled non-binding pairs.

    Draws ceil(n_pos * (1 - r) / r) (TCR, peptide) pairs uniformly without
    replacement from the combinations where the peptide's epitope differs from
    every epitope the TCR is seen binding. Negatives carry label 0 and fresh
    ids; the returned dataset is positives (input order) followed by negatives,
    with positive_rate within one example of the target.
    """
    if not 0.0 < target_positive_rate < 1.0:
        raise ValueError("target_positive_rate must be in (0, 1)")
    if np.any(positives.labels != 1):
        raise ValueError("positives must contain only label=1 examples")
    n_pos = len(positives)
    if n_pos == 0:
        raise ValueError("positives is empty")

    tcrs: list[tuple[str, str]] = []
    tcr_pos: dict[tuple[str, str], int] = {}
    epitopes: list[tuple[str, str]] = []  # (epitope_id, peptide)
    seen_epitopes: set[str] = set()
    binds: list[set[str]] = []
    for cdr3a, cdr3b, epitope_id, peptide in zip(
        positives.cdr3a, positives.cdr3b, positives.epitope_id, positives.peptide
    ):
        key = (cdr3a, cdr3b)
        if key not in tcr_pos:
            tcr_pos[key] = len(tcrs)
            tcrs.append(key)
            binds.append(set())
        binds[tcr_pos[key]].add(epitope_id)
        if epitope_id not in seen_epitopes:
            seen_epitopes.add(epitope_id)
            epitopes.append((epitope_id, peptide))
    if len(epitopes) < 2:
        raise ValueError("need at least 2 distinct epitopes to sample non-binders")

    r = target_positive_rate
    # 1e-9 snap keeps decimal-intended integer counts (50 pos, r=0.05 -> 950)
    # from crossing a ceil boundary through binary float error.
    count = math.ceil(n_pos * (1.0 - r) / r - 1e-9)
    allowed = [
        (ti, ei)
        for ti in range(len(tcrs))
        for ei in range(len(epitopes))
        if epitopes[ei][0] not in binds[ti]
    ]
    if count > len(allowed):
        raise ValueError(
            f"requested {count} negatives but only {len(allowed)} non-cognate pairs exist"
        )
    rng = random.Random(seed)
    chosen = rng.sample(allowed, count)

    existing = set(positives.ids)
    neg_ids = []
    serial = 0
    for _ in chosen:
        while f"neg-{serial}" in existing:
            serial += 1
        neg_ids.append(f"neg-{serial}")
        serial += 1
    tcr = [tcrs[ti] for ti, _ in chosen]
    epitope = [epitopes[ei] for _, ei in chosen]
    # fresh ids and the positives' own TCRs and epitope peptides: nothing to check
    combined = Dataset._from_columns(
        positives.ids + tuple(neg_ids),
        positives.cdr3a + tuple(a for a, _ in tcr),
        positives.cdr3b + tuple(b for _, b in tcr),
        positives.peptide + tuple(p for _, p in epitope),
        positives.epitope_id + tuple(e for e, _ in epitope),
        np.concatenate((positives.labels, np.zeros(count, dtype=np.int8))),
    )
    if abs(n_pos - r * len(combined)) > 1.0 + 1e-9:
        raise AssertionError("negative count failed to hit the target rate")
    return combined
