"""Leakage-aware train/cal/test split protocols with serialized manifests.

Three protocols: label-stratified random, epitope-held-out (whole epitopes to
test), and distance-aware (whole cdr3b identity clusters to test). Each
computes one part-of-row column (0 train, 1 cal, 2 test). A manifest is the
dataset's ids and that column, plus the protocol, seed, and parameters that
produced them, serialized as sorted id lists with stable key order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, compress, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, NotUtf8, check_open_unit, json_text
from .distance import cluster_by_identity

PROTOCOL_RANDOM = "random"
PROTOCOL_EPITOPE_HELD_OUT = "epitope_held_out"
PROTOCOL_DISTANCE_AWARE = "distance_aware"
PROTOCOLS = (PROTOCOL_RANDOM, PROTOCOL_EPITOPE_HELD_OUT, PROTOCOL_DISTANCE_AWARE)
PARTS = ("train", "cal", "test")  # a part's code in a part-of-row column is its index


@dataclass(frozen=True)
class SplitConfig:
    """Every split setting, checked once here. protocol chooses the split a
    command makes; each split function reads only its own fields."""

    protocol: str = PROTOCOL_RANDOM
    seed: int = 13
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)  # train, cal, test
    k_test_epitopes: int = 15
    cal_fraction: float = 0.107  # calibration share of the non-test pairs
    identity_ceiling: float = 0.7
    test_fraction: float = 0.2
    epitope_disjoint_cal: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {', '.join(PROTOCOLS)}, got {self.protocol!r}"
            )
        if len(self.fractions) != 3:
            raise ValueError("fractions must have exactly 3 entries")
        if not all(f >= 0 for f in self.fractions):  # NaN fails too
            raise ValueError("fractions must be non-negative")
        if not abs(sum(self.fractions) - 1.0) <= 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(self.fractions)!r}")
        if self.k_test_epitopes < 0:
            raise ValueError("k_test_epitopes must be >= 0")
        for name in ("cal_fraction", "identity_ceiling", "test_fraction"):
            check_open_unit(name, getattr(self, name))


# each key of a manifest file, its type, and how an error names that type
_MANIFEST_TYPES = {
    "protocol": (str, "a str"), "seed": (int, "an int"), "parameters": (dict, "a dict"),
    "train_ids": (list, "a list of strings"), "cal_ids": (list, "a list of strings"),
    "test_ids": (list, "a list of strings"),
}


@dataclass(frozen=True, eq=False)
class SplitManifest:
    """Which example ids land in train, calibration, and test.

    ids are the ids of the rows split, and row_part their part codes (0
    train, 1 cal, 2 test). Each part's ids are derived from them, in ids
    order. Compare manifests by fingerprint: the serialized form lists each
    part's ids sorted, whatever the order of ids.
    """

    protocol: str
    seed: int
    parameters: Mapping[str, object]
    ids: tuple[str, ...]
    row_part: np.ndarray = field(repr=False)

    @classmethod
    def from_parts(
        cls, protocol: str, seed: int, parameters: Mapping[str, object],
        train_ids: Sequence[str], cal_ids: Sequence[str], test_ids: Sequence[str],
        source: str = "manifest",
    ) -> "SplitManifest":
        """The manifest whose parts list these ids. An id listed twice, in one
        part or in two, raises ValueError naming source, the part(s) and the id."""
        parts = {"train": train_ids, "cal": cal_ids, "test": test_ids}
        ids = (*train_ids, *cal_ids, *test_ids)
        if len(set(ids)) < len(ids):
            # only to name an offending id
            sets = {name: set(part) for name, part in parts.items()}
            for name, part in parts.items():
                if len(sets[name]) < len(part):
                    repeated = next(i for i, count in Counter(part).items() if count > 1)
                    raise ValueError(f"{source} {name}_ids lists id {repeated!r} more than once")
            for a, b in combinations(parts, 2):
                if not sets[a].isdisjoint(sets[b]):
                    shared = next(i for i in parts[a] if i in sets[b])
                    raise ValueError(f"{source} {a}_ids and {b}_ids share id {shared!r}")
        sizes = [len(part) for part in parts.values()]
        return cls(protocol, seed, parameters, ids, np.repeat(np.arange(3, dtype=np.int8), sizes))

    train_ids = cached_property(lambda self: tuple(_where(self.ids, self.row_part == 0)))
    cal_ids = cached_property(lambda self: tuple(_where(self.ids, self.row_part == 1)))
    test_ids = cached_property(lambda self: tuple(_where(self.ids, self.row_part == 2)))

    def bind(self, data: Dataset, where: str) -> "SplitManifest":
        """This manifest over data's ids, in one pass over them. Unless the
        parts list exactly data's ids, raise ValueError naming `where`."""
        code = dict(zip(self.ids, self.row_part.tolist()))
        row_part = np.fromiter(map(code.get, data.ids, repeat(-1)), np.int8, len(data))
        if (row_part < 0).any():
            unlisted = _where(data.ids, row_part < 0)
            raise ValueError(
                f"{where}: {len(unlisted)} dataset id(s) in no part, e.g. {unlisted[:5]!r}"
            )
        if len(code) > len(data):  # every id of data is listed once
            unknown = set(code).difference(data.ids)
            raise ValueError(
                f"{where}: {len(unknown)} id(s) not in the dataset, e.g. {sorted(unknown)[:5]!r}"
            )
        return replace(self, ids=data.ids, row_part=row_part)

    def take(self, data: Dataset, *parts: str) -> tuple[Dataset, ...]:
        """The rows of data in each of parts (train, cal, test), in data's
        order, taken by position. data must hold exactly this manifest's ids;
        unless they are its ids tuple, bind matches them first."""
        bound = self if data.ids is self.ids else self.bind(data, "manifest")
        return tuple(
            data._take(np.flatnonzero(bound.row_part == PARTS.index(part)).tolist())
            for part in parts
        )

    def part_sizes(self) -> dict[str, int]:
        """The number of ids in each part, train, cal and test, counted from
        row_part without building an id tuple."""
        return dict(zip(PARTS, np.bincount(self.row_part, minlength=len(PARTS)).tolist()))

    def check_nonempty(self, *parts: str) -> None:
        """Raise ValueError naming the first of parts (train, cal, test) that
        lists no id."""
        sizes = self.part_sizes()
        for part in parts:
            if not sizes[part]:
                raise ValueError(f"the {part} part of the split is empty")

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "parameters": dict(self.parameters),
            "train_ids": sorted(self.train_ids),
            "cal_ids": sorted(self.cal_ids),
            "test_ids": sorted(self.test_ids),
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def fingerprint(self) -> str:
        """The sha256 of to_json(); a caller that writes the text too can hash
        what it writes, since each call serializes the manifest afresh."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        """Read a manifest written by to_json. Bytes that are not UTF-8, malformed JSON,
        a missing key, or a field of the wrong type raise ValueError naming the file."""
        where = f"manifest {path}"
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError:
            raise NotUtf8("manifest", path) from None
        except json.JSONDecodeError as err:
            raise ValueError(f"{where}: {err}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: top level must be an object")
        missing = [key for key in _MANIFEST_TYPES if key not in raw]
        if missing:
            raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
        for key, (kind, name) in _MANIFEST_TYPES.items():
            value = raw[key]
            # bool is an int subclass, and no manifest key takes one
            if not isinstance(value, kind) or isinstance(value, bool) or (
                kind is list and not all(isinstance(i, str) for i in value)
            ):
                raise ValueError(f"{where}: {key} must be {name}")
        return cls.from_parts(
            raw["protocol"], raw["seed"], raw["parameters"],
            raw["train_ids"], raw["cal_ids"], raw["test_ids"], source=f"{where}:",
        )


def _largest_remainder(total: int, fractions: Sequence[float]) -> list[int]:
    shares = [total * f for f in fractions]
    counts = [math.floor(s + 1e-9) for s in shares]
    leftover = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _stratified_three_way(
    labels: np.ndarray,
    fractions: Sequence[float],
    rng: random.Random,
) -> np.ndarray:
    """The part code (0 train, 1 cal, 2 test) of each row, stratified by label.

    Global part sizes come from largest-remainder on the total; the label-1
    stratum is allocated by largest-remainder on its own size and label-0 takes
    the residual, which keeps both the part sizes and each part's positive
    count within one example of the ideal. Each stratum lists its rows in
    dataset order until rng shuffles it.
    """
    n = len(labels)
    nonzero_parts = sum(1 for f in fractions if f > 0)
    strata = {
        label: np.flatnonzero(labels == label).tolist() for label in set(labels.tolist())
    }
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
    row_part = np.empty(n, dtype=np.int8)
    for label in labels_desc:
        # shuffle permutes by list length alone, so shuffling positions moves
        # them exactly as shuffling ids or whole rows would
        members = strata[label]
        rng.shuffle(members)
        shuffled = np.array(members, dtype=np.intp)
        start = 0
        for code, count in enumerate(per_stratum[label]):
            row_part[shuffled[start : start + count]] = code
            start += count
    return row_part


def _held_in(in_test: np.ndarray, labels: np.ndarray, cal_fraction: float,
             rng: random.Random) -> np.ndarray:
    """The part codes of a split whose test rows are in_test; the rest splits
    into train and cal at the pair level, stratified by label."""
    row_part = np.full(len(in_test), 2, dtype=np.int8)
    row_part[~in_test] = _stratified_three_way(
        labels[~in_test], (1.0 - cal_fraction, cal_fraction, 0.0), rng
    )
    return row_part


def _where(column: Sequence[str], mask: np.ndarray) -> list[str]:
    """The entries of column where mask is True, in order."""
    return list(compress(column, mask.tolist()))


def _fill(order: Sequence, sizes: Mapping | Sequence[int], target: float) -> list:
    """The groups of order, taken one at a time until they hold at least
    target rows; the last group taken may overshoot."""
    taken, total = [], 0
    for group in order:
        if total >= target - 1e-9:
            break
        taken.append(group)
        total += sizes[group]
    return taken


def split_random(data: Dataset, config: SplitConfig) -> SplitManifest:
    """Label-stratified random split into train/cal/test.

    config.fractions are the (train, cal, test) shares; the middle one is the
    calibration set.
    """
    rng = random.Random(config.seed)
    row_part = _stratified_three_way(data.labels, config.fractions, rng)
    return SplitManifest(
        PROTOCOL_RANDOM, config.seed, {"fractions": list(config.fractions)}, data.ids, row_part
    )


def split_epitope_held_out(data: Dataset, config: SplitConfig) -> SplitManifest:
    """Hold out config.k_test_epitopes whole epitopes as the test set.

    Test epitopes are sampled without replacement from the sorted distinct
    epitope ids. Remaining examples split into train/cal at the pair level,
    stratified by label. With config.epitope_disjoint_cal the calibration set
    is instead built from whole held-out epitopes too (three-way epitope
    split), shuffled epitopes taken until they hold cal_fraction of the
    non-test examples.
    """
    k_test_epitopes, cal_fraction = config.k_test_epitopes, config.cal_fraction
    distinct = sorted(set(data.epitope_id))
    if k_test_epitopes >= len(distinct):
        raise ValueError(
            f"k_test_epitopes={k_test_epitopes} but only {len(distinct)} distinct epitope(s)"
        )
    rng = random.Random(config.seed)
    held_out = set(rng.sample(distinct, k_test_epitopes))
    in_test = np.fromiter(map(held_out.__contains__, data.epitope_id), bool, len(data))
    if config.epitope_disjoint_cal:
        rest_epitope = _where(data.epitope_id, ~in_test)
        rest_epitopes = sorted(set(rest_epitope))
        rng.shuffle(rest_epitopes)
        cal_epitopes = set(
            _fill(rest_epitopes, Counter(rest_epitope), cal_fraction * len(rest_epitope))
        )
        # no cal epitope is held out, so no test row is in cal
        in_cal = np.fromiter(map(cal_epitopes.__contains__, data.epitope_id), bool, len(data))
        row_part = np.where(in_test, 2, in_cal).astype(np.int8)
    else:
        row_part = _held_in(in_test, data.labels, cal_fraction, rng)
    return SplitManifest(PROTOCOL_EPITOPE_HELD_OUT, config.seed, {
        "k_test_epitopes": k_test_epitopes,
        "cal_fraction": cal_fraction,
        "epitope_disjoint_cal": config.epitope_disjoint_cal,
    }, data.ids, row_part)


def split_distance_aware(data: Dataset, config: SplitConfig) -> SplitManifest:
    """Assign whole cdr3b identity clusters to test.

    Single-linkage clusters over distinct cdr3b strings at identity >=
    config.identity_ceiling guarantee every test cdr3b has identity < ceiling
    to every train/cal cdr3b. Shuffled clusters are taken into test until it
    holds test_fraction of the examples (the last cluster may overshoot); the
    rest splits into train/cal at the pair level, stratified by label.
    """
    identity_ceiling, cal_fraction = config.identity_ceiling, config.cal_fraction
    if len(data) == 0:
        raise ValueError("dataset is empty")
    cdr3b = list(data.cdr3b)  # each row's cdr3b, decoded once from the column's buffer
    distinct = sorted(set(cdr3b))
    clusters = cluster_by_identity(distinct, identity_ceiling)
    cluster_of: dict[str, int] = {}
    for cluster_idx, members in enumerate(clusters):
        for string_idx in members:
            cluster_of[distinct[string_idx]] = cluster_idx
    n = len(data)
    cluster = np.fromiter(map(cluster_of.__getitem__, cdr3b), np.intp, n)
    counts = np.bincount(cluster, minlength=len(clusters)).tolist()
    biggest = max(counts)
    if biggest > 0.8 * n + 1e-9:
        raise ValueError(
            f"largest cdr3b cluster holds {biggest}/{n} examples (> 80%); "
            f"a distance-aware split at ceiling {identity_ceiling} is unsatisfiable"
        )
    rng = random.Random(config.seed)
    order = list(range(len(clusters)))
    rng.shuffle(order)
    in_test_cluster = np.zeros(len(clusters), dtype=bool)
    in_test_cluster[_fill(order, counts, config.test_fraction * n)] = True
    row_part = _held_in(in_test_cluster[cluster], data.labels, cal_fraction, rng)
    return SplitManifest(PROTOCOL_DISTANCE_AWARE, config.seed, {
        "identity_ceiling": identity_ceiling,
        "cal_fraction": cal_fraction,
        "test_fraction": config.test_fraction,
    }, data.ids, row_part)
