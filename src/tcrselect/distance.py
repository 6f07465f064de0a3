"""Edit-distance and sequence-identity kernels shared by dedup and splitting."""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    # no distance exceeds the longer length, so that bound never cuts it
    return levenshtein_bounded(a, b, max(len(a), len(b)))


def levenshtein_bounded(a: str, b: str, limit: int) -> int:
    """Edit distance if it is <= limit, else limit + 1. Banded DP, O(len * limit),
    over what is left once the shared prefix and suffix are trimmed."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return limit + 1
    # a shared prefix or suffix leaves the distance unchanged, so trim both
    # before the band; the length difference, and so the check above, is kept
    shared = min(la, lb)
    start = 0
    while start < shared and a[start] == b[start]:
        start += 1
    end = 0
    while end < shared - start and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1
    la, lb = la - start - end, lb - start - end
    # one edit leaves at most one character on each side once the shared
    # affixes are gone, so within one edit the trimmed lengths decide
    if limit <= 1:
        return min(max(la, lb), limit + 1)
    a, b = a[start : start + la], b[start : start + lb]
    if lb > la:
        a, b, la, lb = b, a, lb, la
    if lb == 0:
        return la
    cap = limit + 1
    previous = [j if j <= limit else cap for j in range(lb + 1)]
    for i in range(1, la + 1):
        lo = max(1, i - limit)
        hi = min(lb, i + limit)
        current = [cap] * (lb + 1)
        if i <= limit:
            current[0] = i
        ca = a[i - 1]
        best = current[0]
        for j in range(lo, hi + 1):
            v = previous[j - 1] + (ca != b[j - 1])
            dele = previous[j] + 1
            if dele < v:
                v = dele
            ins = current[j - 1] + 1
            if ins < v:
                v = ins
            if v > cap:
                v = cap
            current[j] = v
            if v < best:
                best = v
        if best >= cap:
            return cap
        previous = current
    return previous[lb] if previous[lb] <= limit else cap


def check_identity_threshold(name: str, value: float) -> None:
    """Raise unless an identity threshold lies in (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1]")


def identity(a: str, b: str) -> float:
    """1 - levenshtein / max length. Two empty strings are identical (1.0)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    # one rounding step, so identity >= t agrees with identity_at_least
    return (longest - levenshtein(a, b)) / longest


def max_edits_for_identity(threshold: float, longest: int) -> int:
    # identity >= t  <=>  distance <= (1-t)*longest; 1e-9 snap so decimal
    # thresholds (0.9 on length 20 -> 2) are not shifted by binary float error.
    return math.floor((1.0 - threshold) * longest + 1e-9)


def identity_at_least(a: str, b: str, threshold: float) -> bool:
    """True when identity(a, b) >= threshold, via the banded kernel."""
    longest = max(len(a), len(b))
    if longest == 0:
        return True
    allowed = max_edits_for_identity(threshold, longest)
    if abs(len(a) - len(b)) > allowed:
        return False
    return levenshtein_bounded(a, b, allowed) <= allowed


# rows per tile of the candidate filter, and the count at which a letter's
# "holds at least k" features stop; a string's letters past it are its excess
_TILE_ROWS = 256
_COUNT_CAP = 4


def _count_rows(
    strings: Sequence[str], threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per string: the float32 row [F, 1, excess - need], excess and need.

    F holds the 0/1 features "holds at least k of letter c" for k up to the
    cap, so F_a . F_b counts the letters a and b share with each count capped,
    and the true count exceeds it by at most min(excess_a, excess_b). need is
    L - max_edits_for_identity(threshold, L). Memory is O(strings x letters).
    """
    n = len(strings)
    joined = "".join(strings)
    # one uint32 code point per letter, so any str works, not only residues
    letters = np.fromiter(map(ord, sorted(set(joined))), np.uint32)
    text = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), np.uint32)
    lengths = np.fromiter(map(len, strings), np.int64, n)
    cells = np.repeat(np.arange(n) * len(letters), lengths) + np.searchsorted(letters, text)
    counts = np.bincount(cells, minlength=n * len(letters)).reshape(n, len(letters))
    holds = (counts[:, :, None] > np.arange(_COUNT_CAP)).reshape(n, len(letters) * _COUNT_CAP)
    holds = holds[:, holds.any(axis=0)]
    excess = np.maximum(counts - _COUNT_CAP, 0).sum(axis=1)
    budgets = [max_edits_for_identity(threshold, length)
               for length in range(lengths.max(initial=0) + 1)]
    need = lengths - np.array(budgets, np.int64)[lengths]
    table = np.empty((n, holds.shape[1] + 2), np.float32)
    table[:, :-2] = holds
    table[:, -2] = 1
    table[:, -1] = excess - need
    return table, excess, need


def candidate_pairs(
    strings: Sequence[str], threshold: float
) -> Iterator[tuple[list[int], list[int]]]:
    """Every pair (j, i), i < j, that identity_at_least may accept, a tile at a time.

    The count filter with q = 1 (Ukkonen, TCS 1992). An edit script keeps at
    most `shared` letters, the two strings' common letters counted with
    multiplicity, so distance >= max(len) - shared, and identity >= threshold
    needs shared >= max(need_a, need_b), as need is non-decreasing in length.
    With shared <= F_a . F_b + min(excess) that gives the exact test
    2 F_a . F_b + slack_a + slack_b >= |excess_a - excess_b| + |need_a - need_b|,
    where slack = excess - need. The left side is one float32 matmul per tile
    of _TILE_ROWS later rows [2F, slack, 1] against the rows [F, 1, slack] of
    every string up to the tile's end; as the right side is >= 0, only its
    nonnegative scores are rechecked. Every value is an integer of size at most
    four times the longest string, exact in float32 while that is below 2**22,
    so the test is exact at any BLAS thread count and summation order.

    Yields (later ids, earlier ids) per tile, ordered by j then i, so a
    consumer meets every earlier string's pairs first.
    """
    table, excess, need = _count_rows(strings, threshold)
    width = table.shape[1] - 2
    for start in range(0, len(strings), _TILE_ROWS):
        stop = min(start + _TILE_ROWS, len(strings))
        tile = table[start:stop]
        scores = np.hstack([2 * tile[:, :width], tile[:, -1:], tile[:, -2:-1]]) @ table[:stop].T
        # flat positions: 2-D nonzero is many times slower on a sparse mask
        later, earlier = np.divmod(np.flatnonzero(scores >= 0), stop)
        below = earlier < later + start
        score = scores[later[below], earlier[below]]
        later, earlier = later[below] + start, earlier[below]
        passed = score >= (np.abs(excess[later] - excess[earlier])
                           + np.abs(need[later] - need[earlier]))
        yield later[passed].tolist(), earlier[passed].tolist()


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def cluster_by_identity(strings: Sequence[str], min_identity: float) -> list[list[int]]:
    """Single-linkage components of the identity >= min_identity graph.

    Returns index clusters ordered by smallest member. Cross-cluster pairs are
    guaranteed identity < min_identity. Each string is checked only against
    the earlier strings candidate_pairs proposes and that are not yet in its
    component, which leaves the components unchanged.
    """
    check_identity_threshold("min_identity", min_identity)
    n = len(strings)
    uf = _UnionFind(n)
    for later, earlier in candidate_pairs(strings, min_identity):
        for j, i in zip(later, earlier):
            if uf.find(i) != uf.find(j) and identity_at_least(
                strings[i], strings[j], min_identity
            ):
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(groups.values(), key=lambda members: members[0])
