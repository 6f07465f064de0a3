"""Independent reference for identity dedup, used to check the split's cover.

Greedy first-kept dedup: a key is dropped when it lies within the allowed
edit distance of any earlier kept key, where identity = 1 - lev / max_len and
identity >= threshold means lev <= floor((1 - threshold) * max_len), taken in
exact decimal arithmetic. Written apart from tcrselect so that a faster
program cannot agree with itself by sharing a bug.

Candidates pass two exact filters before the banded edit distance: the length
difference, and the pigeonhole rule. Each edit breaks at most one of 2d + 1
disjoint segments of a, so if lev(a, b) <= d then at least d + 1 of them occur
unchanged in b.
"""

from __future__ import annotations

from fractions import Fraction


def allowed_edits(threshold: float, longest: int) -> int:
    return int((1 - Fraction(repr(threshold))) * longest)


def within(a: str, b: str, limit: int) -> bool:
    """True when the edit distance of a and b is at most limit."""
    if abs(len(a) - len(b)) > limit:
        return False
    if len(b) < len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        current = [i] + [limit + 1] * len(b)
        ca = a[i - 1]
        for j in range(max(1, i - limit), min(len(b), i + limit) + 1):
            current[j] = min(
                previous[j - 1] + (ca != b[j - 1]),
                previous[j] + 1,
                current[j - 1] + 1,
            )
        if min(current) > limit:
            return False
        previous = current
    return previous[-1] <= limit


def _segments(key: str, limit: int) -> list[str]:
    parts = 2 * limit + 1
    bounds = [len(key) * k // parts for k in range(parts + 1)]
    return [key[bounds[k] : bounds[k + 1]] for k in range(parts)]


def greedy_dedup(keys: list[str], threshold: float) -> list[int]:
    """Indices of the keys greedy first-kept dedup retains, in input order."""
    limits = {n: allowed_edits(threshold, n) for n in {len(key) for key in keys}}
    kept: list[int] = []
    for idx, key in enumerate(keys):
        segments = {
            limit: _segments(key, limit) for limit in set(limits.values())
            if len(key) > 2 * limit
        }
        duplicate = False
        for other_idx in kept:
            other = keys[other_idx]
            limit = limits[max(len(key), len(other))]
            if abs(len(key) - len(other)) > limit:
                continue
            if limit in segments and sum(seg in other for seg in segments[limit]) <= limit:
                continue
            if within(key, other, limit):
                duplicate = True
                break
        if not duplicate:
            kept.append(idx)
    return kept
