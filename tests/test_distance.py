"""Edit distance, identity, and clustering against a recursive reference."""

import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pair_oracle import oracle_clusters, related_strings, thresholds
from tcrselect import data as data_module
from tcrselect import distance as distance_module
from tcrselect.data import deduplicate
from tcrselect.distance import (
    candidate_pairs,
    cluster_by_identity,
    identity,
    identity_at_least,
    levenshtein,
    levenshtein_bounded,
    max_edits_for_identity,
)
from tcrselect.toycorpus import motif_corpus

ALPHABET = "ACDFGW"


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook recursion, memoized. Usable for strings of a few dozen characters."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


short_strings = st.text(alphabet=ALPHABET, max_size=12)


def test_known_pairs():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "") == 0
    assert levenshtein("", "ACD") == 3
    assert levenshtein("ACD", "ACD") == 0
    assert levenshtein("AC", "CA") == 2


@given(short_strings, short_strings)
def test_matches_recursive_reference(a, b):
    assert levenshtein(a, b) == reference_levenshtein(a, b)


@given(short_strings, short_strings)
def test_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(short_strings, short_strings, short_strings)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(short_strings, short_strings, st.integers(min_value=0, max_value=12))
def test_bounded_kernel_agrees_within_limit(a, b, limit):
    exact = reference_levenshtein(a, b)
    bounded = levenshtein_bounded(a, b, limit)
    if exact <= limit:
        assert bounded == exact
    else:
        assert bounded > limit


@given(short_strings, short_strings, short_strings, short_strings,
       st.integers(min_value=0, max_value=12))
@example("CASS", "", "", "F", 0)  # empty middles
@example("CASS", "LG", "", "", 1)  # one string a prefix of the other
@example("", "CA", "", "QYF", 3)  # one string a suffix of the other
@example("CA", "SLGQ", "SRGE", "YF", 0)
@settings(max_examples=300)
def test_bounded_kernel_with_shared_affixes(prefix, x, y, suffix, drawn):
    # the kernel trims the shared prefix and suffix; that must not move the
    # distance, at limits below, at and above it
    a, b = prefix + x + suffix, prefix + y + suffix
    exact = reference_levenshtein(a, b)
    for limit in {0, max(exact - 1, 0), exact, exact + 1, drawn}:
        assert levenshtein_bounded(a, b, limit) == (exact if exact <= limit else limit + 1)
        assert levenshtein_bounded(b, a, limit) == (exact if exact <= limit else limit + 1)


def test_identity_values():
    assert identity("", "") == 1.0
    assert identity("ACDG", "ACDG") == 1.0
    assert identity("ACDG", "") == 0.0
    # one edit on a 20-char pair
    a = "ACDEFGHIKLMNPQRSTVWY"
    b = "ACDEFGHIKLMNPQRSTVWW"
    assert identity(a, b) == pytest.approx(0.95)
    assert identity_at_least(a, b, 0.90)
    assert not identity_at_least(a, b, 0.99)


def test_max_edits_boundaries():
    # 0.3 * 10 is not exact in binary; the snap keeps the intended integer
    assert max_edits_for_identity(0.7, 10) == 3
    assert max_edits_for_identity(0.9, 20) == 2
    assert max_edits_for_identity(1.0, 50) == 0
    assert max_edits_for_identity(0.0, 7) == 7


@given(short_strings, short_strings, st.floats(min_value=0.0, max_value=1.0))
def test_identity_at_least_matches_exact_distance_budget(a, b, threshold):
    # the budget comparison is the contract; the bounded kernel must agree
    # with the exact distance under it for arbitrary float thresholds
    budget = max_edits_for_identity(threshold, max(len(a), len(b)))
    expected = levenshtein(a, b) <= budget if max(len(a), len(b)) else True
    assert identity_at_least(a, b, threshold) == expected


@given(short_strings, short_strings, st.integers(min_value=0, max_value=100))
def test_identity_at_least_matches_identity_on_grid(a, b, percent):
    # clean hundredth thresholds stay clear of float boundary artifacts
    threshold = percent / 100
    assert identity_at_least(a, b, threshold) == (identity(a, b) >= threshold)


def test_cluster_singletons_when_all_far():
    strings = ["AAAAAAAAAA", "CCCCCCCCCC", "DDDDDDDDDD"]
    assert cluster_by_identity(strings, 0.7) == [[0], [1], [2]]


def test_cluster_transitive_chaining():
    # a~b and b~c at 0.8 but a~c below it: single linkage joins all three
    a = "AAAAAAAAAA"
    b = "AAAAAAAACC"
    c = "AAAAAACCCC"
    assert identity(a, b) >= 0.8
    assert identity(b, c) >= 0.8
    assert identity(a, c) < 0.8
    assert cluster_by_identity([a, b, c], 0.8) == [[0, 1, 2]]


@given(related_strings(), thresholds)
@settings(max_examples=150, deadline=None)
def test_cluster_matches_pair_oracle(strings, threshold):
    assert cluster_by_identity(strings, threshold) == oracle_clusters(strings, threshold)


def accepted_pairs(strings, threshold):
    return {(j, i) for j in range(len(strings)) for i in range(j)
            if identity_at_least(strings[i], strings[j], threshold)}


def proposed_pairs(strings, threshold):
    pairs = [pair for later, earlier in candidate_pairs(strings, threshold)
             for pair in zip(later, earlier)]
    # ordered by the later string, then the earlier one, and never twice
    assert pairs == sorted(set(pairs))
    assert all(i < j for j, i in pairs)
    return set(pairs)


# letters beyond the residues, non-ASCII and astral ones among them, since
# cluster_by_identity takes any str; "A" repeats past the count cap
WIDE_ALPHABET = "AACa1\u00e9\u4e00\U0001f600"


@given(st.one_of(related_strings(), related_strings(alphabet=WIDE_ALPHABET)), thresholds)
@example(["", "", "A", "AC", "CA", ""], 0.05)  # empty strings at the weakest filter
@example(["ACDA", "ADCA", "AACD", "ACDA"], 1.0)  # same letters, one exact copy
@example(["\ud800A", "A\ud800", "\ud800"], 0.5)  # a lone surrogate is still a str
@settings(max_examples=300, deadline=None)
def test_candidate_pairs_propose_every_accepted_pair(strings, threshold):
    assert accepted_pairs(strings, threshold) <= proposed_pairs(strings, threshold)


@given(st.lists(st.text(alphabet="ACDW", min_size=19, max_size=21), max_size=8),
       related_strings(alphabet="ACDW", min_size=19, max_size=21, max_count=8))
@settings(max_examples=150, deadline=None)
def test_candidate_pairs_at_the_budget_steps_of_identity_09(drawn, mutants):
    # at 0.9 lengths 19, 20 and 21 allow 1, 2 and 2 edits, so a pair's need
    # is set by its longer string
    strings = drawn + mutants
    assert accepted_pairs(strings, 0.9) <= proposed_pairs(strings, 0.9)


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_tile_size_changes_no_result(monkeypatch, tile):
    data = motif_corpus(300, 1)
    tested = []

    def recorded(a, b, threshold):
        tested.append((a, b))
        return identity_at_least(a, b, threshold)

    for module in (data_module, distance_module):
        monkeypatch.setattr(module, "identity_at_least", recorded)

    def run():
        tested.clear()
        kept = deduplicate(data, 0.7).ids
        clusters = cluster_by_identity(list(data.cdr3b), 0.8)
        return kept, clusters, list(tested)

    default = run()
    monkeypatch.setattr(distance_module, "_TILE_ROWS", tile)
    assert run() == default
    kept, clusters, order = default
    assert len(kept) == 264 and len(clusters) == 90 and order


def test_clustering_one_component_holds_one_tile_of_scores():
    # a component that takes nearly every string (4.9 MiB traced with tiles
    # of 256 rows): scoring the whole matrix at once (16.1 MiB), or keeping
    # every scored pair's position, fails here
    strings = sorted(set(motif_corpus(2000, 1).cdr3b))
    tracemalloc.start()
    try:
        clusters = cluster_by_identity(strings, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(members) for members in clusters] == [1501, 2]
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_identity_tests_on_motif_corpus_are_pinned(monkeypatch):
    # the candidate pairs decide which pairs reach identity_at_least: these
    # are the benchmark's cluster_distance counts at seed 1 (the Pass-Join
    # index tested 141 and 1179)
    tested = Counter()
    for module, name in ((data_module, "dedup"), (distance_module, "cluster")):
        def counted(a, b, threshold, name=name):
            tested[name] += 1
            return identity_at_least(a, b, threshold)

        monkeypatch.setattr(module, "identity_at_least", counted)
    kept = deduplicate(motif_corpus(800, 1), 0.9)
    cluster_by_identity(sorted(set(kept.cdr3b)), 0.9)
    assert tested == {"dedup": 14, "cluster": 539}


def test_cluster_motif_corpus_matches_pair_oracle():
    distinct = sorted({ex.cdr3b for ex in motif_corpus(800, 1)})
    clusters = cluster_by_identity(distinct, 0.9)
    assert clusters == oracle_clusters(distinct, 0.9)
    assert any(len(members) > 1 for members in clusters)


@given(
    st.lists(
        st.text(alphabet=ALPHABET, min_size=1, max_size=8), unique=True,
        min_size=1, max_size=20,
    ),
    st.sampled_from([0.5, 0.7, 0.9]),
)
@settings(max_examples=50)
def test_clusters_partition_input(strings, threshold):
    clusters = cluster_by_identity(strings, threshold)
    flat = sorted(i for cluster in clusters for i in cluster)
    assert flat == list(range(len(strings)))
    # no edge may cross two clusters
    for a, left in enumerate(clusters):
        for right in clusters[a + 1:]:
            for i in left:
                for j in right:
                    assert not identity_at_least(strings[i], strings[j], threshold)
