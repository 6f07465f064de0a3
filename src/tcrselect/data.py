"""Paired-sequence data model: TSV ingestion, dedup, negative generation.

A corpus row is a TCR (cdr3a, cdr3b) paired with a peptide and its epitope id,
labeled 1 (binds) or 0. Sequences are uppercased on ingest and validated against
the 20-letter amino-acid alphabet.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .distance import CandidateIndex, identity_at_least

AMINO_ACIDS = frozenset("ACDEFGHIKLMNPQRSTVWY")

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


def _check_residues(value: str, field: str) -> str:
    seq = value.upper()
    if not seq:
        raise ValueError(f"{field} is empty")
    bad = set(seq) - AMINO_ACIDS
    if bad:
        raise ValueError(f"{field} contains invalid residue(s) {sorted(bad)!r}")
    return seq


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
        if not self.id:
            raise ValueError("id is empty")
        if not self.epitope_id:
            raise ValueError("epitope_id is empty")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        for field in ("cdr3a", "cdr3b", "peptide"):
            object.__setattr__(self, field, _check_residues(getattr(self, field), field))

    @property
    def concatenation(self) -> str:
        """cdr3a + cdr3b + peptide, the dedup comparison key."""
        return self.cdr3a + self.cdr3b + self.peptide


class Dataset:
    """Immutable ordered collection of examples with unique ids.

    Construction enforces that examples sharing an epitope_id carry the same
    peptide string.
    """

    __slots__ = ("_examples", "_index")

    def __init__(self, examples: Iterable[SequenceExample]) -> None:
        items = tuple(examples)
        index: dict[str, int] = {}
        peptide_of: dict[str, str] = {}
        for pos, ex in enumerate(items):
            if ex.id in index:
                raise ValueError(f"duplicate id {ex.id!r}")
            index[ex.id] = pos
            seen = peptide_of.setdefault(ex.epitope_id, ex.peptide)
            if seen != ex.peptide:
                raise ValueError(
                    f"epitope {ex.epitope_id!r} maps to conflicting peptides "
                    f"{seen!r} and {ex.peptide!r}"
                )
        self._examples = items
        self._index = index

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[SequenceExample]:
        return iter(self._examples)

    def __getitem__(self, pos: int) -> SequenceExample:
        return self._examples[pos]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._examples == other._examples

    @property
    def examples(self) -> tuple[SequenceExample, ...]:
        return self._examples

    @property
    def positive_rate(self) -> float:
        if not self._examples:
            raise ValueError("positive_rate of an empty dataset")
        return sum(ex.label for ex in self._examples) / len(self._examples)

    def ids(self) -> tuple[str, ...]:
        return tuple(ex.id for ex in self._examples)

    def by_id(self, example_id: str) -> SequenceExample:
        return self._examples[self._index[example_id]]

    def labels(self) -> dict[str, int]:
        return {ex.id: ex.label for ex in self._examples}

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """Examples with the given ids, in this dataset's order."""
        wanted = set(ids)
        missing = wanted - self._index.keys()
        if missing:
            raise ValueError(f"unknown id(s): {sorted(missing)[:5]!r}")
        return Dataset(ex for ex in self._examples if ex.id in wanted)


def ingest_tsv(path: str | Path, columns: Mapping[str, str] | None = None) -> Dataset:
    """Read a TSV corpus.

    columns maps logical field names (keys of DEFAULT_COLUMNS) to header names.
    The id column is optional; absent, ids are the 0-based data-row index.
    Sequences are uppercased; invalid residues, bad labels, and short rows raise
    TsvRowError with the file line number.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise TsvSchemaError(f"unknown column key(s): {sorted(unknown)!r}")
        colmap.update(columns)
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
        examples = []
        for row_idx, row in enumerate(reader):
            line = row_idx + 2  # header is line 1
            if not row or all(not cell for cell in row):
                continue
            needed = max(positions.values())
            if len(row) <= needed:
                raise TsvRowError(line, f"expected at least {needed + 1} fields, got {len(row)}")
            raw_label = row[positions["label"]].strip()
            if raw_label not in ("0", "1"):
                raise TsvRowError(line, f"label must be 0 or 1, got {raw_label!r}")
            ex_id = row[positions["id"]].strip() if "id" in positions else str(row_idx)
            try:
                example = SequenceExample(
                    id=ex_id,
                    cdr3a=row[positions["cdr3a"]].strip(),
                    cdr3b=row[positions["cdr3b"]].strip(),
                    peptide=row[positions["peptide"]].strip(),
                    epitope_id=row[positions["epitope_id"]].strip(),
                    label=int(raw_label),
                )
            except ValueError as err:
                raise TsvRowError(line, str(err)) from None
            examples.append(example)
    return Dataset(examples)


def export_tsv(data: Dataset, path: str | Path) -> None:
    """Write the default schema plus the id column; round-trips with ingest_tsv."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(_EXPORT_ORDER) + "\n")
        for ex in data:
            handle.write(
                "\t".join((ex.id, ex.cdr3a, ex.cdr3b, ex.peptide, ex.epitope_id, str(ex.label)))
                + "\n"
            )


def deduplicate(data: Dataset, identity_threshold: float) -> Dataset:
    """Greedy first-kept dedup over the cdr3a+cdr3b+peptide concatenation.

    An example is dropped when its concatenation has identity >=
    identity_threshold with any previously retained example. Keeps input order;
    idempotent. threshold 1.0 removes exactly byte-identical concatenations.
    """
    if not 0.0 < identity_threshold <= 1.0:
        raise ValueError("identity_threshold must be in (0, 1]")
    keys = [ex.concatenation for ex in data]
    # the index holds the kept keys, so its ids are positions in kept_keys
    index = CandidateIndex(identity_threshold, max(map(len, keys), default=0))
    kept: list[SequenceExample] = []
    kept_keys: list[str] = []
    for ex, key in zip(data, keys):
        if any(
            identity_at_least(key, kept_keys[i], identity_threshold)
            for i in index.candidates(key)
        ):
            continue
        kept.append(ex)
        kept_keys.append(key)
        index.add(key)
    return Dataset(kept)


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
    if any(ex.label != 1 for ex in positives):
        raise ValueError("positives must contain only label=1 examples")
    n_pos = len(positives)
    if n_pos == 0:
        raise ValueError("positives is empty")

    tcrs: list[tuple[str, str]] = []
    tcr_pos: dict[tuple[str, str], int] = {}
    epitopes: list[tuple[str, str]] = []  # (epitope_id, peptide)
    seen_epitopes: set[str] = set()
    binds: list[set[str]] = []
    for ex in positives:
        key = (ex.cdr3a, ex.cdr3b)
        if key not in tcr_pos:
            tcr_pos[key] = len(tcrs)
            tcrs.append(key)
            binds.append(set())
        binds[tcr_pos[key]].add(ex.epitope_id)
        if ex.epitope_id not in seen_epitopes:
            seen_epitopes.add(ex.epitope_id)
            epitopes.append((ex.epitope_id, ex.peptide))
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

    existing = set(ex.id for ex in positives)
    negatives = []
    serial = 0
    for ti, ei in chosen:
        while f"neg-{serial}" in existing:
            serial += 1
        neg_id = f"neg-{serial}"
        serial += 1
        cdr3a, cdr3b = tcrs[ti]
        epitope_id, peptide = epitopes[ei]
        negatives.append(
            SequenceExample(
                id=neg_id, cdr3a=cdr3a, cdr3b=cdr3b,
                peptide=peptide, epitope_id=epitope_id, label=0,
            )
        )
    combined = Dataset(list(positives) + negatives)
    if abs(n_pos - r * len(combined)) > 1.0 + 1e-9:
        raise AssertionError("negative count failed to hit the target rate")
    return combined
