"""Edit distance, identity, and clustering against a recursive reference."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pair_oracle import oracle_clusters, related_strings, thresholds
from tcrselect.distance import (
    CandidateIndex,
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
    """Textbook recursion, memoized. Only usable for short strings."""

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


@given(related_strings(max_count=12), related_strings(max_count=4), thresholds,
       st.integers(min_value=0, max_value=30))
@settings(max_examples=150, deadline=None)
def test_candidates_include_every_true_pair(stored, queries, threshold, longest):
    # `longest` may undercut the queries: it only tunes selectivity
    index = CandidateIndex(threshold, longest)
    for string in stored:
        index.add(string)
    for query in queries:
        truth = [i for i, s in enumerate(stored) if identity_at_least(s, query, threshold)]
        assert set(truth) <= set(index.candidates(query))


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
