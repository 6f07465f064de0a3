"""Edit-distance and sequence-identity kernels shared by dedup and splitting."""

from __future__ import annotations

import math
from typing import Sequence


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        append = current.append
        for j, cb in enumerate(b, start=1):
            cost = previous[j - 1] + (ca != cb)
            dele = previous[j] + 1
            ins = current[j - 1] + 1
            append(cost if cost < dele and cost < ins else (dele if dele < ins else ins))
        previous = current
    return previous[-1]


def levenshtein_bounded(a: str, b: str, limit: int) -> int:
    """Edit distance if it is <= limit, else limit + 1. Banded DP, O(len * limit)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return limit + 1
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


class CandidateIndex:
    """Exact candidate filter for identity_at_least at one threshold.

    The Pass-Join pigeonhole (Li et al., VLDB 2011). A stored string of length
    L is cut into 2*D + 1 contiguous segments, where D is the largest pair
    budget it can have with a partner of at most `longest` characters that
    passes the length check. Each edit breaks at most one segment, so a
    partner within k <= D edits contains at least 2*D + 1 - k of them
    unchanged, each moved by a shift s with |s| + |len difference - s| <= k.
    Strings shorter than 2*D + 1 are always candidates. No true pair is ever
    filtered out, for any query length; `longest` only tunes how selective
    the filter is. identity_at_least still decides every candidate.
    """

    def __init__(self, threshold: float, longest: int) -> None:
        self.threshold = threshold
        self.longest = longest
        self._size = 0
        # length -> (segment (offset, size) spans, a text -> ids table per
        # span, every id of that length)
        self._buckets: dict[
            int, tuple[list[tuple[int, int]], list[dict[str, list[int]]], list[int]]
        ] = {}

    def _segment_budget(self, length: int) -> int:
        # the pair budget grows with the partner's length, so D is the budget
        # of the longest partner that still passes the length check
        partner = length
        while partner < self.longest and partner + 1 - length <= max_edits_for_identity(
            self.threshold, partner + 1
        ):
            partner += 1
        return max_edits_for_identity(self.threshold, partner)

    def add(self, string: str) -> None:
        """Store string under the next id: 0, 1, ... in the order added."""
        ident = self._size
        self._size += 1
        length = len(string)
        bucket = self._buckets.get(length)
        if bucket is None:
            parts = 2 * self._segment_budget(length) + 1
            spans: list[tuple[int, int]] = []
            if length >= parts:
                bounds = [length * k // parts for k in range(parts + 1)]
                spans = [(bounds[k], bounds[k + 1] - bounds[k]) for k in range(parts)]
            bucket = self._buckets[length] = (spans, [{} for _ in spans], [])
        spans, tables, members = bucket
        for (offset, size), table in zip(spans, tables):
            table.setdefault(string[offset : offset + size], []).append(ident)
        members.append(ident)

    def candidates(self, query: str) -> list[int]:
        """Ascending ids of every stored string that may be within the
        identity threshold of query."""
        lq = len(query)
        found: list[int] = []
        for length, (spans, tables, members) in self._buckets.items():
            budget = max_edits_for_identity(self.threshold, max(length, lq))
            delta = lq - length
            if abs(delta) > budget:
                continue
            need = len(spans) - budget
            if need <= 0:
                found.extend(members)
                continue
            # an id that matches `need` segments matches one of the first
            # budget + 1, so later segments only count ids already hit
            opening = budget + 1
            # shifts s with |s| + |delta - s| <= budget
            lo = -((budget - delta) // 2)
            hi = (budget + delta) // 2
            hits: dict[int, int] = {}
            for seg, ((offset, size), table) in enumerate(zip(spans, tables)):
                matched: set[int] = set()
                for pos in range(max(0, offset + lo), min(lq - size, offset + hi) + 1):
                    ids = table.get(query[pos : pos + size])
                    if ids:
                        matched.update(ids)
                if seg < opening:
                    for ident in matched:
                        hits[ident] = hits.get(ident, 0) + 1
                else:
                    for ident in matched:
                        if ident in hits:
                            hits[ident] += 1
            found.extend(ident for ident, count in hits.items() if count >= need)
        found.sort()
        return found


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
    the earlier strings a CandidateIndex proposes and that are not yet in its
    component, which leaves the components unchanged.
    """
    if not 0.0 < min_identity <= 1.0:
        raise ValueError("min_identity must be in (0, 1]")
    n = len(strings)
    uf = _UnionFind(n)
    index = CandidateIndex(min_identity, max(map(len, strings), default=0))
    for j, string in enumerate(strings):
        for i in index.candidates(string):
            if uf.find(i) != uf.find(j) and identity_at_least(strings[i], string, min_identity):
                uf.union(i, j)
        index.add(string)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(groups.values(), key=lambda members: members[0])
