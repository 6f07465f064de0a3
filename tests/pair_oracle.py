"""Brute-force pair scans, the oracle for the filtered dedup and clustering.

Every pair is decided by identity_at_least and nothing is filtered, so the
candidate filter must reproduce these results exactly.
"""

from hypothesis import strategies as st

from tcrselect.distance import identity_at_least


def oracle_clusters(strings, threshold):
    """Single-linkage components by testing every pair i < j."""
    label = list(range(len(strings)))
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if label[i] != label[j] and identity_at_least(strings[i], strings[j], threshold):
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    groups = {}
    for i, root in enumerate(label):
        groups.setdefault(root, []).append(i)
    return sorted(groups.values(), key=lambda members: members[0])


def oracle_dedup(keys, threshold):
    """Positions greedy first-kept dedup retains, testing every kept key."""
    kept = []
    for pos, key in enumerate(keys):
        if not any(identity_at_least(key, keys[other], threshold) for other in kept):
            kept.append(pos)
    return kept


# thresholds from the filter's weakest regime to exact matching
thresholds = st.one_of(
    st.sampled_from([0.05, 0.7, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def related_strings(draw, alphabet="ACD", min_size=0, max_size=24, max_count=30):
    """Mutants of a few base strings: mixed lengths, some near-identical,
    some shorter than any segmentation."""
    bases = draw(
        st.lists(st.text(alphabet=alphabet, min_size=min_size, max_size=max_size),
                 min_size=1, max_size=4)
    )
    strings = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_count))):
        chars = list(draw(st.sampled_from(bases)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            pos = draw(st.integers(min_value=0, max_value=len(chars)))
            op = draw(st.sampled_from("isd"))
            if op == "i":
                chars.insert(pos, draw(st.sampled_from(alphabet)))
            elif chars and pos < len(chars):
                if op == "s":
                    chars[pos] = draw(st.sampled_from(alphabet))
                elif len(chars) > min_size:
                    del chars[pos]
        strings.append("".join(chars))
    return strings
