"""The Pass-Join candidate filter with a fixed opening, the oracle for
tcrselect.distance.CandidateIndex.

Every query scans each compatible length bucket segment by segment and counts
ids from the first budget + 1 segments; later segments only count ids already
hit. The package index plans its lookups per query length and counts from the
rarest segments first, and must return the identical ascending id list.
"""

from __future__ import annotations

from tcrselect.distance import max_edits_for_identity


class CandidateIndex:
    """The Pass-Join candidate filter as first written.

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
