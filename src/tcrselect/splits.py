"""Leakage-aware train/cal/test split protocols with serialized manifests.

Three protocols: label-stratified random, epitope-held-out (whole epitopes to
test), and distance-aware (whole cdr3b identity clusters to test). Manifests
are value objects: disjoint id sets plus the protocol, seed, and parameters
that produced them, serialized with stable key order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import combinations, compress
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, check_open_unit, json_text
from .distance import cluster_by_identity

PROTOCOL_RANDOM = "random"
PROTOCOL_EPITOPE_HELD_OUT = "epitope_held_out"
PROTOCOL_DISTANCE_AWARE = "distance_aware"
PROTOCOLS = (PROTOCOL_RANDOM, PROTOCOL_EPITOPE_HELD_OUT, PROTOCOL_DISTANCE_AWARE)


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


@dataclass(frozen=True)
class SplitManifest:
    """Which example ids land in train, calibration, and test."""

    protocol: str
    seed: int
    parameters: Mapping[str, object]
    train_ids: tuple[str, ...]
    cal_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    # how errors name the manifest; load adds its file
    source: InitVar[str] = "manifest"

    def __post_init__(self, source: str) -> None:
        parts = {"train": self.train_ids, "cal": self.cal_ids, "test": self.test_ids}
        sets = {name: set(ids) for name, ids in parts.items()}
        for name, ids in parts.items():
            if len(sets[name]) < len(ids):
                repeated = next(i for i, count in Counter(ids).items() if count > 1)
                raise ValueError(f"{source} {name}_ids lists id {repeated!r} more than once")
        for a, b in combinations(parts, 2):
            if not sets[a].isdisjoint(sets[b]):
                shared = next(i for i in parts[a] if i in sets[b])
                raise ValueError(f"{source} {a}_ids and {b}_ids share id {shared!r}")

    def check_covers(self, ids: Sequence[str], where: str) -> None:
        """Raise ValueError naming `where` unless the parts list exactly ids."""
        listed = {*self.train_ids, *self.cal_ids, *self.test_ids}
        unlisted = [i for i in ids if i not in listed]
        if unlisted:
            raise ValueError(
                f"{where}: {len(unlisted)} dataset id(s) in no part, e.g. {unlisted[:5]!r}"
            )
        unknown = listed - set(ids)
        if unknown:
            raise ValueError(
                f"{where}: {len(unknown)} id(s) not in the dataset, e.g. {sorted(unknown)[:5]!r}"
            )

    def check_nonempty(self, *parts: str) -> None:
        """Raise ValueError naming the first of parts (train, cal, test) that
        lists no id."""
        for part in parts:
            if not getattr(self, f"{part}_ids"):
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
        return self._json

    @cached_property
    def _json(self) -> str:
        # serialized once: a manifest is frozen, and its text is both written
        # out and hashed by fingerprint
        return json_text(self.to_json_dict())

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        """Read a manifest written by to_json. Malformed JSON, a missing key, or
        a field of the wrong type raises ValueError naming the file."""
        where = f"manifest {path}"
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
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
        return cls(
            protocol=raw["protocol"],
            seed=raw["seed"],
            parameters=raw["parameters"],
            train_ids=tuple(raw["train_ids"]),
            cal_ids=tuple(raw["cal_ids"]),
            test_ids=tuple(raw["test_ids"]),
            source=f"{where}:",
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
    ids: Sequence[str],
    labels: np.ndarray,
    fractions: Sequence[float],
    rng: random.Random,
) -> tuple[list[str], list[str], list[str]]:
    """Allocate ids to (train, cal, test) stratified by their labels.

    Global part sizes come from largest-remainder on the total; the label-1
    stratum is allocated by largest-remainder on its own size and label-0 takes
    the residual, which keeps both the part sizes and each part's positive
    count within one example of the ideal. Each stratum keeps dataset order
    until rng shuffles it.
    """
    n = len(ids)
    nonzero_parts = sum(1 for f in fractions if f > 0)
    strata = {
        label: list(compress(ids, (labels == label).tolist()))
        for label in set(labels.tolist())
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
    parts: tuple[list[str], list[str], list[str]] = ([], [], [])
    for label in labels_desc:
        # shuffle permutes by list length alone, so shuffling ids moves them
        # exactly as shuffling whole rows would
        members = strata[label]
        rng.shuffle(members)
        counts = per_stratum[label]
        start = 0
        for part, count in zip(parts, counts):
            part.extend(members[start : start + count])
            start += count
    return parts


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
    train, cal, test = _stratified_three_way(data.ids, data.labels, config.fractions, rng)
    return SplitManifest(
        protocol=PROTOCOL_RANDOM,
        seed=config.seed,
        parameters={"fractions": list(config.fractions)},
        train_ids=tuple(train),
        cal_ids=tuple(cal),
        test_ids=tuple(test),
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
    test_ids = _where(data.ids, in_test)
    rest_ids = _where(data.ids, ~in_test)
    if config.epitope_disjoint_cal:
        rest_epitope = _where(data.epitope_id, ~in_test)
        rest_epitopes = sorted(set(rest_epitope))
        rng.shuffle(rest_epitopes)
        cal_epitopes = set(
            _fill(rest_epitopes, Counter(rest_epitope), cal_fraction * len(rest_ids))
        )
        in_cal = np.fromiter(map(cal_epitopes.__contains__, rest_epitope), bool, len(rest_ids))
        cal_ids = _where(rest_ids, in_cal)
        train_ids = _where(rest_ids, ~in_cal)
    else:
        train_ids, cal_ids, _ = _stratified_three_way(
            rest_ids, data.labels[~in_test], (1.0 - cal_fraction, cal_fraction, 0.0), rng
        )
    return SplitManifest(
        protocol=PROTOCOL_EPITOPE_HELD_OUT,
        seed=config.seed,
        parameters={
            "k_test_epitopes": k_test_epitopes,
            "cal_fraction": cal_fraction,
            "epitope_disjoint_cal": config.epitope_disjoint_cal,
        },
        train_ids=tuple(train_ids),
        cal_ids=tuple(cal_ids),
        test_ids=tuple(test_ids),
    )


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
    distinct = sorted(set(data.cdr3b))
    clusters = cluster_by_identity(distinct, identity_ceiling)
    cluster_of: dict[str, int] = {}
    for cluster_idx, members in enumerate(clusters):
        for string_idx in members:
            cluster_of[distinct[string_idx]] = cluster_idx
    n = len(data)
    cluster = np.fromiter(map(cluster_of.__getitem__, data.cdr3b), np.intp, n)
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
    in_test = in_test_cluster[cluster]
    test_ids = _where(data.ids, in_test)
    train_ids, cal_ids, _ = _stratified_three_way(
        _where(data.ids, ~in_test), data.labels[~in_test],
        (1.0 - cal_fraction, cal_fraction, 0.0), rng,
    )
    return SplitManifest(
        protocol=PROTOCOL_DISTANCE_AWARE,
        seed=config.seed,
        parameters={
            "identity_ceiling": identity_ceiling,
            "cal_fraction": cal_fraction,
            "test_fraction": config.test_fraction,
        },
        train_ids=tuple(train_ids),
        cal_ids=tuple(cal_ids),
        test_ids=tuple(test_ids),
    )
