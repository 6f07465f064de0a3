"""Split protocols and manifest guarantees."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataset_rows import dataset_of
from tcrselect.data import Dataset, SequenceExample
from tcrselect.distance import identity
from tcrselect.splits import (
    PARTS,
    SplitConfig,
    SplitManifest,
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)

RESIDUES = "ACDEFGHIKLMNPQRSTVY"


def peptide_for(ep: int) -> str:
    return RESIDUES[ep % 19] + RESIDUES[(ep // 19) % 19] + "GILGFVF"


def corpus(n: int, n_pos: int, n_epitopes: int = 4, cdr3b=None) -> Dataset:
    examples = []
    for i in range(n):
        ep = i % n_epitopes
        tag = RESIDUES[i % 19] + RESIDUES[(i // 19) % 19] + RESIDUES[(i // 361) % 19]
        examples.append(
            SequenceExample(
                id=f"x{i:04d}",
                cdr3a="CAV" + tag + "F",
                cdr3b=cdr3b(i) if cdr3b else "CASS" + tag + "F",
                peptide=peptide_for(ep),
                epitope_id=f"EP{ep:02d}",
                label=1 if i < n_pos else 0,
            )
        )
    return dataset_of(examples)


def by_id(data: Dataset) -> dict[str, SequenceExample]:
    return {ex.id: ex for ex in data}


def labels_of(data: Dataset, ids) -> list[int]:
    labels = data.labels_by_id()
    return [labels[i] for i in ids]


class TestManifest:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SplitManifest.from_parts(
                protocol="random", seed=0, parameters={},
                train_ids=("a", "b"), cal_ids=("b",), test_ids=(),
            )

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((("a", "b", "c"), ("d", "c", "b"), ()), "train_ids and cal_ids share id 'b'"),
            ((("a", "b"), ("c",), ("d", "b")), "train_ids and test_ids share id 'b'"),
            ((("a",), ("b", "c"), ("c",)), "cal_ids and test_ids share id 'c'"),
        ],
    )
    def test_overlap_error_names_both_parts_and_an_id(self, parts, message):
        train, cal, test = parts
        with pytest.raises(ValueError) as err:
            SplitManifest.from_parts("random", 0, {}, train, cal, test)
        assert str(err.value) == f"manifest {message}"

    @pytest.mark.parametrize("part", ["train", "cal", "test"])
    def test_rejects_duplicate_id_in_a_part(self, part):
        parts = {"train_ids": ("a", "b"), "cal_ids": ("c",), "test_ids": ("d",)}
        parts[f"{part}_ids"] += ("e", "e", "e")
        with pytest.raises(ValueError) as err:
            SplitManifest.from_parts(protocol="random", seed=0, parameters={}, **parts)
        assert str(err.value) == f"manifest {part}_ids lists id 'e' more than once"

    def test_json_round_trip(self, tmp_path):
        manifest = split_random(corpus(40, 8), SplitConfig(seed=3))
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        loaded = SplitManifest.load(path)
        assert loaded.protocol == manifest.protocol
        assert loaded.seed == manifest.seed
        assert sorted(loaded.train_ids) == sorted(manifest.train_ids)
        assert loaded.fingerprint() == manifest.fingerprint()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        manifest = split_random(corpus(40, 8), SplitConfig(seed=3))
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json(), encoding="utf-8-sig")
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert SplitManifest.load(path).fingerprint() == manifest.fingerprint()

    def test_parts_are_in_dataset_order(self):
        data = corpus(40, 8)
        manifest = split_random(data, SplitConfig(seed=3))
        for ids in (manifest.train_ids, manifest.cal_ids, manifest.test_ids):
            assert list(ids) == [i for i in data.ids if i in set(ids)]

    def test_bind_matches_the_split_column(self, tmp_path):
        data = corpus(40, 8)
        manifest = split_random(data, SplitConfig(seed=3))
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        bound = SplitManifest.load(path).bind(data, "here")
        assert bound.row_part.tolist() == manifest.row_part.tolist()
        assert bound.ids is data.ids
        for a, b in zip(bound.take(data, *PARTS), manifest.take(data, *PARTS)):
            assert a == b

    @pytest.mark.parametrize(
        "change, message",
        [
            ("drop", "here: 2 dataset id(s) in no part, e.g. ['x0038', 'x0039']"),
            ("add", "here: 2 id(s) not in the dataset, e.g. ['extra-a', 'extra-b']"),
        ],
    )
    def test_bind_requires_exactly_the_dataset_ids(self, change, message):
        data = corpus(40, 8)
        ids = sorted(data.ids)
        test = ids[30:38] if change == "drop" else ids[30:] + ["extra-b", "extra-a"]
        manifest = SplitManifest.from_parts("random", 0, {}, ids[:20], ids[20:30], test)
        with pytest.raises(ValueError) as err:
            manifest.bind(data, "here")
        assert str(err.value) == message

    def test_hand_built_manifest_is_taken_by_id(self):
        # take binds by id a manifest that lists data's ids in another order,
        # and refuses one that lists only some of them
        data = corpus(40, 8)
        few = SplitManifest.from_parts("random", 0, {}, ("x0003", "x0001"), ("x0002",), ())
        with pytest.raises(ValueError) as err:
            few.take(data, *PARTS)
        assert str(err.value) == (
            "manifest: 37 dataset id(s) in no part, "
            "e.g. ['x0000', 'x0004', 'x0005', 'x0006', 'x0007']"
        )
        rest = tuple(reversed(data.ids[4:]))
        manifest = SplitManifest.from_parts(
            "random", 0, {}, ("x0003", "x0001"), ("x0002",), (*rest, "x0000")
        )
        train, cal, test = manifest.take(data, *PARTS)
        assert train.ids == ("x0001", "x0003")
        assert (cal.ids, test.ids) == (("x0002",), ("x0000", *data.ids[4:]))

    def test_serialized_ids_sorted(self):
        manifest = split_random(corpus(40, 8), SplitConfig(seed=3))
        payload = json.loads(manifest.to_json())
        assert payload["train_ids"] == sorted(payload["train_ids"])


# a split under each protocol, with settings that every corpus of the take
# test can meet; random-no-test leaves its test part empty
TAKE_SPLITS = {
    "random": (split_random, {}),
    "random-no-test": (split_random, {"fractions": (0.6, 0.4, 0.0)}),
    "epitope_held_out": (split_epitope_held_out, {"k_test_epitopes": 1}),
    "epitope_disjoint_cal": (
        split_epitope_held_out, {"k_test_epitopes": 1, "epitope_disjoint_cal": True},
    ),
    "distance_aware": (split_distance_aware, {"identity_ceiling": 0.9}),
}


@pytest.mark.parametrize("case", sorted(TAKE_SPLITS))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(12, 40), seed=st.integers(0, 999), shuffle=st.randoms(use_true_random=False))
def test_take_binds_then_takes_by_position(tmp_path_factory, case, n, seed, shuffle):
    split, kwargs = TAKE_SPLITS[case]
    data = corpus(n, n // 2)
    manifest = split(data, SplitConfig(seed=seed, **kwargs))
    parts = dict(zip(PARTS, manifest.take(data, *PARTS)))
    order = list(range(n))
    shuffle.shuffle(order)
    permuted = data._take(order)
    for part, taken in zip(PARTS, manifest.take(permuted, *PARTS)):
        ids = getattr(manifest, f"{part}_ids")
        assert taken == permuted.subset(ids) and parts[part] == data.subset(ids)
        assert len(taken) == len(ids)
    if case == "random-no-test":
        assert len(parts["test"]) == 0 and parts["test"].ids == ()
    path = tmp_path_factory.getbasetemp() / "take-manifest.json"
    path.write_text(manifest.to_json(), encoding="utf-8")
    loaded = SplitManifest.load(path)
    assert dict(zip(PARTS, loaded.take(data, *PARTS))) == parts
    with pytest.raises(ValueError) as err:
        manifest.take(permuted._take(list(range(1, n))), "train")
    assert str(err.value) == f"manifest: 1 id(s) not in the dataset, e.g. [{permuted.ids[0]!r}]"
    with pytest.raises(ValueError) as err:
        manifest.take(corpus(n + 1, n // 2), "train")
    assert str(err.value) == f"manifest: 1 dataset id(s) in no part, e.g. ['x{n:04d}']"


class TestSplitRandom:
    def test_worked_sizes_and_strata(self):
        data = corpus(100, 5)
        manifest = split_random(data, SplitConfig(fractions=(0.7, 0.1, 0.2), seed=1))
        assert len(manifest.train_ids) == 70
        assert len(manifest.cal_ids) == 10
        assert len(manifest.test_ids) == 20
        assert sum(labels_of(data, manifest.train_ids)) in (3, 4)
        assert sum(labels_of(data, manifest.cal_ids)) in (0, 1)
        assert sum(labels_of(data, manifest.test_ids)) == 1

    def test_partition_is_complete(self):
        data = corpus(100, 5)
        manifest = split_random(data, SplitConfig(seed=1))
        all_ids = sorted(manifest.train_ids + manifest.cal_ids + manifest.test_ids)
        assert all_ids == sorted(data.ids)

    def test_empty_test_fraction(self):
        data = corpus(40, 8)
        manifest = split_random(data, SplitConfig(fractions=(0.5, 0.5, 0.0), seed=2))
        assert manifest.test_ids == ()
        assert len(manifest.train_ids) == 20
        assert len(manifest.cal_ids) == 20

    def test_determinism_across_equal_datasets(self):
        a = split_random(corpus(60, 12), SplitConfig(seed=9))
        b = split_random(corpus(60, 12), SplitConfig(seed=9))
        assert a.to_json() == b.to_json()

    def test_stratum_too_small(self):
        data = corpus(30, 1)
        with pytest.raises(ValueError, match="label=1"):
            split_random(data, SplitConfig(fractions=(0.4, 0.3, 0.3), seed=0))

    def test_bad_fractions(self):
        data = corpus(30, 6)
        with pytest.raises(ValueError):
            split_random(data, SplitConfig(fractions=(0.7, 0.1, 0.1), seed=0))

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_rates_near_global(self, seed):
        data = corpus(100, 30)
        manifest = split_random(data, SplitConfig(seed=seed))
        for ids in (manifest.train_ids, manifest.cal_ids, manifest.test_ids):
            n_pos = sum(labels_of(data, ids))
            assert abs(n_pos - 0.3 * len(ids)) <= 1.0


class TestSplitEpitopeHeldOut:
    def test_held_out_epitopes_absent_from_train_and_cal(self):
        data = corpus(80, 20, n_epitopes=8)
        manifest = split_epitope_held_out(data, SplitConfig(k_test_epitopes=3, seed=5))
        rows = by_id(data)
        test_eps = {rows[i].epitope_id for i in manifest.test_ids}
        held_in = {
            rows[i].epitope_id
            for i in manifest.train_ids + manifest.cal_ids
        }
        assert len(test_eps) == 3
        assert test_eps & held_in == set()

    def test_every_held_out_example_lands_in_test(self):
        data = corpus(80, 20, n_epitopes=8)
        manifest = split_epitope_held_out(data, SplitConfig(k_test_epitopes=3, seed=5))
        rows = by_id(data)
        test_eps = {rows[i].epitope_id for i in manifest.test_ids}
        expected = [ex.id for ex in data if ex.epitope_id in test_eps]
        assert sorted(expected) == sorted(manifest.test_ids)

    def test_k_zero_gives_empty_test(self):
        data = corpus(40, 10, n_epitopes=4)
        manifest = split_epitope_held_out(data, SplitConfig(k_test_epitopes=0, seed=5))
        assert manifest.test_ids == ()
        assert len(manifest.train_ids) + len(manifest.cal_ids) == 40

    def test_k_equal_to_epitope_count_rejected(self):
        data = corpus(40, 10, n_epitopes=4)
        with pytest.raises(ValueError):
            split_epitope_held_out(data, SplitConfig(k_test_epitopes=4, seed=5))

    def test_cal_fraction_respected(self):
        data = corpus(800, 200, n_epitopes=8)
        manifest = split_epitope_held_out(
            data, SplitConfig(k_test_epitopes=2, cal_fraction=0.25, seed=5)
        )
        held_in = len(manifest.train_ids) + len(manifest.cal_ids)
        assert len(manifest.cal_ids) == pytest.approx(0.25 * held_in, abs=1)

    def test_epitope_disjoint_cal_flag(self):
        data = corpus(200, 40, n_epitopes=10)
        manifest = split_epitope_held_out(
            data,
            SplitConfig(k_test_epitopes=2, cal_fraction=0.3, seed=5, epitope_disjoint_cal=True),
        )
        rows = by_id(data)
        train_eps = {rows[i].epitope_id for i in manifest.train_ids}
        cal_eps = {rows[i].epitope_id for i in manifest.cal_ids}
        test_eps = {rows[i].epitope_id for i in manifest.test_ids}
        assert train_eps & cal_eps == set()
        assert (train_eps | cal_eps) & test_eps == set()


def family_cdr3b(family: int, member: int) -> str:
    # members of a family differ by one trailing residue; families share nothing
    base = ["CASSAAAAAAF", "CSARDDDDDDF", "CAWSVVVVVVF", "CASSLLLLLLF"][family]
    return base[:-2] + RESIDUES[member % 4] + "F"


class TestSplitDistanceAware:
    def test_test_cdr3b_far_from_train_and_cal(self):
        data = corpus(
            60, 20, n_epitopes=4, cdr3b=lambda i: family_cdr3b(i % 4, i // 4)
        )
        manifest = split_distance_aware(data, SplitConfig(seed=11))
        rows = by_id(data)
        test_b = {rows[i].cdr3b for i in manifest.test_ids}
        held_b = {
            rows[i].cdr3b
            for i in manifest.train_ids + manifest.cal_ids
        }
        assert test_b
        for tb in test_b:
            for hb in held_b:
                assert identity(tb, hb) <= 0.7

    def test_all_identical_cdr3b_rejected(self):
        data = corpus(40, 10, cdr3b=lambda i: "CASSAAAAAAF")
        with pytest.raises(ValueError, match="cluster"):
            split_distance_aware(data, SplitConfig(seed=0))

    def test_singleton_clusters_give_near_target_test(self):
        data = corpus(100, 25)
        manifest = split_distance_aware(
            data, SplitConfig(identity_ceiling=0.999, test_fraction=0.2, seed=3)
        )
        # all-distinct cdr3b at ceiling 0.999: clusters are singletons, so the
        # greedy accumulation can hit the budget exactly
        assert len(manifest.test_ids) == 20

    def test_partition_is_complete(self):
        data = corpus(
            60, 20, n_epitopes=4, cdr3b=lambda i: family_cdr3b(i % 4, i // 4)
        )
        manifest = split_distance_aware(data, SplitConfig(seed=11))
        all_ids = sorted(manifest.train_ids + manifest.cal_ids + manifest.test_ids)
        assert all_ids == sorted(data.ids)

    def test_determinism(self):
        data = corpus(60, 20, cdr3b=lambda i: family_cdr3b(i % 4, i // 4))
        a = split_distance_aware(data, SplitConfig(seed=7))
        b = split_distance_aware(data, SplitConfig(seed=7))
        assert a.to_json() == b.to_json()
