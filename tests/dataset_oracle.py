"""Row-object datasets, the oracle for the column store in tcrselect.data.

These are the functions the package used before a Dataset became six
columns: a validated SequenceExample per row, the tuple-backed Dataset with
its subset, the row-by-row ingest_tsv, deduplicate (on the Pass-Join filter
of candidate_oracle, not the package's count filter), and the three split
protocols with the stratified allocator they share. The column store must
give the same columns, the same errors (class, message and line) and the
same manifests. The TSV errors, column defaults and the manifest type are
the package's own. The splits keep their old keyword API, with SplitConfig's
default shares written out as literals. generate_negatives is the list
sampler that tcrselect.data's numbered one replaced: it lists every allowed
(TCR, epitope) pair and samples the list, on the package's column Dataset.
"""

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from candidate_oracle import CandidateIndex
from tcrselect import data as columns
from tcrselect.data import AMINO_ACIDS, DEFAULT_COLUMNS, TsvRowError, TsvSchemaError
from tcrselect.distance import cluster_by_identity, identity_at_least
from tcrselect.splits import (
    PROTOCOL_DISTANCE_AWARE,
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
    SplitManifest,
    _largest_remainder,
)


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
        if any(char in self.id for char in "\t\n\r"):
            raise ValueError("id contains a tab or line break")
        if not self.epitope_id:
            raise ValueError("epitope_id is empty")
        if any(char in self.epitope_id for char in "\t\n\r"):
            raise ValueError("epitope_id contains a tab or line break")
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
    The id column is optional under its default name id; absent, ids are the
    0-based data-row index. A renamed id column is required. Sequences are uppercased; invalid residues, bad labels, and short rows raise
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
            elif (field, name) != ("id", "id"):
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


def _stratified_three_way(
    examples: Sequence[SequenceExample],
    fractions: Sequence[float],
    rng: random.Random,
) -> tuple[list[str], list[str], list[str]]:
    """Allocate ids to (train, cal, test) stratified by label.

    Global part sizes come from largest-remainder on the total; the label-1
    stratum is allocated by largest-remainder on its own size and label-0 takes
    the residual, which keeps both the part sizes and each part's positive
    count within one example of the ideal.
    """
    n = len(examples)
    nonzero_parts = sum(1 for f in fractions if f > 0)
    strata: dict[int, list[SequenceExample]] = {}
    for ex in examples:
        strata.setdefault(ex.label, []).append(ex)
    for label, members in sorted(strata.items()):
        if len(members) < nonzero_parts:
            raise ValueError(
                f"stratum label={label} has {len(members)} example(s), "
                f"cannot populate {nonzero_parts} part(s)"
            )
    global_counts = _largest_remainder(n, fractions)
    labels_desc = sorted(strata, reverse=True)
    allocated = [0, 0, 0]
    per_stratum: dict[int, list[int]] = {}
    for pos, label in enumerate(labels_desc):
        members = strata[label]
        if pos < len(labels_desc) - 1:
            counts = _largest_remainder(len(members), fractions)
        else:
            counts = [g - a for g, a in zip(global_counts, allocated)]
            if any(c < 0 or c > len(members) for c in counts):
                raise ValueError("stratified allocation infeasible for these fractions")
        per_stratum[label] = counts
        allocated = [a + c for a, c in zip(allocated, counts)]
    parts: tuple[list[str], list[str], list[str]] = ([], [], [])
    for label in labels_desc:
        members = list(strata[label])
        rng.shuffle(members)
        counts = per_stratum[label]
        start = 0
        for part, count in zip(parts, counts):
            part.extend(ex.id for ex in members[start : start + count])
            start += count
    return parts


def split_random(
    data: Dataset,
    fractions: Sequence[float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitManifest:
    """Label-stratified random split into train/cal/test.

    fractions are (train, cal, test) shares, each >= 0, summing to 1 within
    1e-9. The middle share is the calibration set.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must have exactly 3 entries")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)!r}")
    rng = random.Random(seed)
    train, cal, test = _stratified_three_way(data.examples, fractions, rng)
    return SplitManifest(
        protocol=PROTOCOL_RANDOM,
        seed=seed,
        parameters={"fractions": list(fractions)},
        train_ids=tuple(train),
        cal_ids=tuple(cal),
        test_ids=tuple(test),
    )


def split_epitope_held_out(
    data: Dataset,
    k_test_epitopes: int = 15,
    cal_fraction: float = 0.107,
    seed: int = 0,
    epitope_disjoint_cal: bool = False,
) -> SplitManifest:
    """Hold out k whole epitopes as the test set.

    Test epitopes are sampled without replacement from the sorted distinct
    epitope ids. Remaining examples split into train/cal at the pair level,
    stratified by label. With epitope_disjoint_cal the calibration set is
    instead built from whole held-out epitopes too (three-way epitope split),
    greedily accumulated to about cal_fraction of the non-test examples.
    """
    if not 0.0 < cal_fraction < 1.0:
        raise ValueError("cal_fraction must be in (0, 1)")
    distinct = sorted({ex.epitope_id for ex in data})
    if k_test_epitopes < 0:
        raise ValueError("k_test_epitopes must be >= 0")
    if k_test_epitopes >= len(distinct):
        raise ValueError(
            f"k_test_epitopes={k_test_epitopes} but only {len(distinct)} distinct epitope(s)"
        )
    rng = random.Random(seed)
    held_out = set(rng.sample(distinct, k_test_epitopes))
    test_ids = [ex.id for ex in data if ex.epitope_id in held_out]
    remaining = [ex for ex in data if ex.epitope_id not in held_out]
    if epitope_disjoint_cal:
        rest_epitopes = sorted({ex.epitope_id for ex in remaining})
        rng.shuffle(rest_epitopes)
        budget = cal_fraction * len(remaining) - 1e-9
        cal_epitopes: set[str] = set()
        total = 0
        sizes = {}
        for ex in remaining:
            sizes[ex.epitope_id] = sizes.get(ex.epitope_id, 0) + 1
        for ep in rest_epitopes:
            if total >= budget:
                break
            cal_epitopes.add(ep)
            total += sizes[ep]
        cal_ids = [ex.id for ex in remaining if ex.epitope_id in cal_epitopes]
        train_ids = [ex.id for ex in remaining if ex.epitope_id not in cal_epitopes]
    else:
        train_ids, cal_ids, _ = _stratified_three_way(
            remaining, (1.0 - cal_fraction, cal_fraction, 0.0), rng
        )
    return SplitManifest(
        protocol=PROTOCOL_EPITOPE_HELD_OUT,
        seed=seed,
        parameters={
            "k_test_epitopes": k_test_epitopes,
            "cal_fraction": cal_fraction,
            "epitope_disjoint_cal": epitope_disjoint_cal,
        },
        train_ids=tuple(train_ids),
        cal_ids=tuple(cal_ids),
        test_ids=tuple(test_ids),
    )


def split_distance_aware(
    data: Dataset,
    identity_ceiling: float = 0.7,
    cal_fraction: float = 0.107,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> SplitManifest:
    """Assign whole cdr3b identity clusters to test.

    Single-linkage clusters over distinct cdr3b strings at identity >=
    identity_ceiling guarantee every test cdr3b has identity < ceiling to every
    train/cal cdr3b. Shuffled clusters accumulate into test until its share
    reaches test_fraction (the last cluster may overshoot); the rest splits
    into train/cal at the pair level, stratified by label.
    """
    if not 0.0 < identity_ceiling < 1.0:
        raise ValueError("identity_ceiling must be in (0, 1)")
    if not 0.0 < cal_fraction < 1.0:
        raise ValueError("cal_fraction must be in (0, 1)")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    distinct = sorted({ex.cdr3b for ex in data})
    clusters = cluster_by_identity(distinct, identity_ceiling)
    cluster_of: dict[str, int] = {}
    for cluster_idx, members in enumerate(clusters):
        for string_idx in members:
            cluster_of[distinct[string_idx]] = cluster_idx
    counts = [0] * len(clusters)
    for ex in data:
        counts[cluster_of[ex.cdr3b]] += 1
    n = len(data)
    biggest = max(counts)
    if biggest > 0.8 * n + 1e-9:
        raise ValueError(
            f"largest cdr3b cluster holds {biggest}/{n} examples (> 80%); "
            f"a distance-aware split at ceiling {identity_ceiling} is unsatisfiable"
        )
    rng = random.Random(seed)
    order = list(range(len(clusters)))
    rng.shuffle(order)
    budget = test_fraction * n - 1e-9
    test_clusters: set[int] = set()
    total = 0
    for cluster_idx in order:
        if total >= budget:
            break
        test_clusters.add(cluster_idx)
        total += counts[cluster_idx]
    test_ids = [ex.id for ex in data if cluster_of[ex.cdr3b] in test_clusters]
    remaining = [ex for ex in data if cluster_of[ex.cdr3b] not in test_clusters]
    train_ids, cal_ids, _ = _stratified_three_way(
        remaining, (1.0 - cal_fraction, cal_fraction, 0.0), rng
    )
    return SplitManifest(
        protocol=PROTOCOL_DISTANCE_AWARE,
        seed=seed,
        parameters={
            "identity_ceiling": identity_ceiling,
            "cal_fraction": cal_fraction,
            "test_fraction": test_fraction,
        },
        train_ids=tuple(train_ids),
        cal_ids=tuple(cal_ids),
        test_ids=tuple(test_ids),
    )


def generate_negatives(
    positives: columns.Dataset, target_positive_rate: float, seed: int
) -> columns.Dataset:
    """Positives followed by ceil(n_pos * (1 - r) / r) negatives, sampled from
    the list of every allowed (TCR, epitope) pair, TCR-major in first-seen
    order; the errors are the package's."""
    columns.check_open_unit("target_positive_rate", target_positive_rate)
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
    combined = columns.Dataset._from_columns(
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
