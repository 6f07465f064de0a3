"""Edit-distance and sequence-identity kernels shared by dedup and splitting."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Sequence


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


# one lookup of a probe plan: (segment, table, start, stop)
_Window = tuple[int, dict[str, list[int]], int, int]


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
        # query length -> its probe plan, see _plan
        self._plans: dict[int, list[tuple[int, list[int], list[_Window]]]] = {}

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
            # a plan lists the buckets that existed when it was made
            self._plans.clear()
        spans, tables, members = bucket
        for (offset, size), table in zip(spans, tables):
            table.setdefault(string[offset : offset + size], []).append(ident)
        members.append(ident)

    def _plan(self, lq: int) -> list[tuple[int, list[int], list[_Window]]]:
        # per compatible bucket: how many segments a candidate must match, the
        # bucket's ids, and every (segment, table, start, stop) lookup of
        # query[start:stop], over shifts s with |s| + |delta - s| <= budget
        plan = []
        for length, (spans, tables, members) in self._buckets.items():
            budget = max_edits_for_identity(self.threshold, max(length, lq))
            delta = lq - length
            if abs(delta) > budget:
                continue
            lo = -((budget - delta) // 2)
            hi = (budget + delta) // 2
            windows = [
                (seg, table, pos, pos + size)
                for seg, ((offset, size), table) in enumerate(zip(spans, tables))
                for pos in range(max(0, offset + lo), min(lq - size, offset + hi) + 1)
            ]
            plan.append((len(spans) - budget, members, windows))
        return plan

    def candidates(self, query: str) -> list[int]:
        """Ascending ids of every stored string that may be within the
        identity threshold of query: those matching at least parts - budget
        of their segments inside the shift window."""
        plan = self._plans.get(len(query))
        if plan is None:
            plan = self._plans[len(query)] = self._plan(len(query))
        found: list[int] = []
        for need, members, windows in plan:
            if need <= 0:
                found.extend(members)
                continue
            # segment -> the distinct id lists it hit; an id sits in one list
            # per table, so distinct lists of one segment are disjoint
            hits: dict[int, list[list[int]]] = {}
            for seg, table, start, stop in windows:
                ids = table.get(query[start:stop])
                if ids:
                    lists = hits.setdefault(seg, [])
                    if ids not in lists:
                        lists.append(ids)
            if len(hits) < need:
                continue
            # an id matching `need` of the hit segments matches one of any
            # len(hits) - need + 1 of them, so count ids from the rarest ones;
            # the rest only add to ids already counted
            ranked = sorted(hits.values(), key=lambda lists: sum(map(len, lists)))
            opening = len(ranked) - need + 1
            counts = Counter(chain.from_iterable(chain.from_iterable(ranked[:opening])))
            rest = chain.from_iterable(chain.from_iterable(ranked[opening:]))
            counts.update(filter(counts.__contains__, rest))
            found.extend(ident for ident, count in counts.items() if count >= need)
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
    check_identity_threshold("min_identity", min_identity)
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
