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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .data import Dataset, SequenceExample
from .distance import cluster_by_identity

PROTOCOL_RANDOM = "random"
PROTOCOL_EPITOPE_HELD_OUT = "epitope_held_out"
PROTOCOL_DISTANCE_AWARE = "distance_aware"

DEFAULT_FRACTIONS = (0.7, 0.1, 0.2)
DEFAULT_CAL_FRACTION = 0.107  # calibration share of the non-test pairs
DEFAULT_K_TEST_EPITOPES = 15
DEFAULT_IDENTITY_CEILING = 0.7
DEFAULT_TEST_FRACTION = 0.2


_MANIFEST_TYPES = {
    "protocol": str, "seed": int, "parameters": dict,
    "train_ids": list, "cal_ids": list, "test_ids": list,
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

    def __post_init__(self) -> None:
        train, cal, test = set(self.train_ids), set(self.cal_ids), set(self.test_ids)
        if (train & cal) or (train & test) or (cal & test):
            raise ValueError("manifest id sets overlap")

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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        """Read a manifest written by save. Malformed JSON, a missing key, or
        a field of the wrong type raises ValueError naming the file."""
        where = f"manifest {path}"
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ValueError(f"{where}: {err}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: top level must be an object")
        missing = [key for key in _MANIFEST_TYPES if key not in raw]
        if missing:
            raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
        for key, kind in _MANIFEST_TYPES.items():
            if not isinstance(raw[key], kind):
                raise ValueError(f"{where}: {key} must be a {kind.__name__}")
        return cls(
            protocol=raw["protocol"],
            seed=raw["seed"],
            parameters=raw["parameters"],
            train_ids=tuple(raw["train_ids"]),
            cal_ids=tuple(raw["cal_ids"]),
            test_ids=tuple(raw["test_ids"]),
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
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
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
    k_test_epitopes: int = DEFAULT_K_TEST_EPITOPES,
    cal_fraction: float = DEFAULT_CAL_FRACTION,
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
    identity_ceiling: float = DEFAULT_IDENTITY_CEILING,
    cal_fraction: float = DEFAULT_CAL_FRACTION,
    test_fraction: float = DEFAULT_TEST_FRACTION,
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
