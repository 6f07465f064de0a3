"""Corpus ingestion, dedup, and negative generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pair_oracle import oracle_dedup, related_strings, thresholds
from tcrselect.data import (
    Dataset,
    SequenceExample,
    TsvRowError,
    TsvSchemaError,
    deduplicate,
    export_tsv,
    generate_negatives,
    ingest_tsv,
)


def make_example(
    ex_id="e1", cdr3a="CAVSDF", cdr3b="CASSLF", peptide="GILGFVFTL",
    epitope_id="EP01", label=1,
):
    return SequenceExample(
        id=ex_id, cdr3a=cdr3a, cdr3b=cdr3b, peptide=peptide,
        epitope_id=epitope_id, label=label,
    )


def make_dataset(rows):
    return Dataset(
        [
            make_example(
                ex_id=f"e{i}", cdr3a=a, cdr3b=b, peptide=p, epitope_id=ep, label=y
            )
            for i, (a, b, p, ep, y) in enumerate(rows)
        ]
    )


class TestSequenceExample:
    def test_uppercases_on_construction(self):
        ex = make_example(cdr3b="cassLF")
        assert ex.cdr3b == "CASSLF"

    def test_rejects_invalid_residue(self):
        with pytest.raises(ValueError, match="X"):
            make_example(cdr3b="CASSXB")

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError):
            make_example(label=2)

    def test_concatenation(self):
        ex = make_example(cdr3a="CAV", cdr3b="CAS", peptide="GIL")
        assert ex.concatenation == "CAVCASGIL"


class TestDataset:
    def test_rejects_duplicate_ids(self):
        ex = make_example()
        with pytest.raises(ValueError, match="e1"):
            Dataset([ex, ex])

    def test_rejects_epitope_peptide_mismatch(self):
        rows = [
            ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
            ("CAVT", "CAST", "NLVPMVATV", "EP01", 1),
        ]
        with pytest.raises(ValueError, match="EP01"):
            make_dataset(rows)

    def test_positive_rate(self):
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
                ("CAVR", "CASR", "NLVPMVATV", "EP02", 0),
                ("CAVQ", "CASQ", "NLVPMVATV", "EP02", 0),
            ]
        )
        assert data.positive_rate == 0.25

    def test_subset_keeps_dataset_order(self):
        # id order in the argument must not matter: loaded manifests sort ids
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        assert data.subset(["e1", "e0"]).ids() == ("e0", "e1")
        assert data.subset(["e0", "e1"]).ids() == ("e0", "e1")

    def test_subset_unknown_id(self):
        data = make_dataset([("CAVS", "CASS", "GILGFVFTL", "EP01", 1)])
        with pytest.raises(ValueError, match="nope"):
            data.subset(["nope"])


class TestIngest:
    def test_round_trip(self, tmp_path):
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        path = tmp_path / "pairs.tsv"
        export_tsv(data, path)
        first = path.read_bytes()
        again = tmp_path / "again.tsv"
        export_tsv(ingest_tsv(path), again)
        assert again.read_bytes() == first

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("cdr3a\tcdr3b\tpeptide\tepitope\n", encoding="utf-8")
        with pytest.raises(TsvSchemaError, match="label"):
            ingest_tsv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n"
            "CAVT\tCAST\tNLVPMVATV\tEP02\t2\n",
            encoding="utf-8",
        )
        with pytest.raises(TsvRowError) as err:
            ingest_tsv(path)
        assert err.value.line == 3

    def test_bad_residue_names_line_and_character(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASB\tGILGFVFTL\tEP01\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(TsvRowError, match="B") as err:
            ingest_tsv(path)
        assert err.value.line == 2

    def test_lowercase_accepted(self, tmp_path):
        path = tmp_path / "lower.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "cavs\tcass\tgilgfvftl\tEP01\t1\n",
            encoding="utf-8",
        )
        data = ingest_tsv(path)
        assert data.examples[0].cdr3b == "CASS"

    def test_column_mapping(self, tmp_path):
        path = tmp_path / "renamed.tsv"
        path.write_text(
            "alpha\tbeta\tpep\tantigen\tbound\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n",
            encoding="utf-8",
        )
        data = ingest_tsv(
            path,
            columns={
                "cdr3a": "alpha", "cdr3b": "beta", "peptide": "pep",
                "epitope_id": "antigen", "label": "bound",
            },
        )
        assert len(data) == 1
        assert data.examples[0].epitope_id == "EP01"

    def test_auto_ids_are_row_indices(self, tmp_path):
        path = tmp_path / "noid.tsv"
        path.write_text(
            "cdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
            "CAVS\tCASS\tGILGFVFTL\tEP01\t1\n"
            "CAVT\tCAST\tNLVPMVATV\tEP02\t0\n",
            encoding="utf-8",
        )
        assert ingest_tsv(path).ids() == ("0", "1")


class TestDeduplicate:
    # length-20 concatenations one substitution apart: identity 0.95
    NEAR_A = ("CASSLGQET", "QYGILGFVF", "TL", "EP01", 1)
    NEAR_B = ("CASSPGQET", "QYGILGFVF", "TL", "EP01", 1)

    def test_exact_duplicate_dropped_at_threshold_one(self):
        rows = [self.NEAR_A, self.NEAR_A]
        data = make_dataset(rows)
        kept = deduplicate(data, 1.0)
        assert kept.ids() == ("e0",)

    def test_near_duplicate_dropped_at_090(self):
        data = make_dataset([self.NEAR_A, self.NEAR_B])
        assert deduplicate(data, 0.9).ids() == ("e0",)

    def test_near_duplicate_retained_at_099(self):
        data = make_dataset([self.NEAR_A, self.NEAR_B])
        assert deduplicate(data, 0.99).ids() == ("e0", "e1")

    def test_empty_dataset_ok(self):
        assert len(deduplicate(Dataset([]), 0.9)) == 0

    def test_first_kept_order(self):
        rows = [self.NEAR_B, self.NEAR_A]
        data = make_dataset(rows)
        assert deduplicate(data, 0.9).ids() == ("e0",)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        import random

        rng = random.Random(seed)
        rows = []
        for _ in range(12):
            b = "CASS" + "".join(rng.choice("GILV") for _ in range(4)) + "F"
            rows.append(("CAV", b, "GILGFVFTL", "EP01", 1))
        data = make_dataset(rows)
        once = deduplicate(data, 0.8)
        twice = deduplicate(once, 0.8)
        assert once.ids() == twice.ids()

    @given(related_strings(min_size=1), st.sampled_from(["G", "GW", "GILGF"]), thresholds)
    @settings(max_examples=150, deadline=None)
    def test_matches_pair_oracle(self, cdr3bs, peptide, threshold):
        data = make_dataset([("C", b, peptide, "EP01", 1) for b in cdr3bs])
        keys = [ex.concatenation for ex in data]
        expected = tuple(data[pos].id for pos in oracle_dedup(keys, threshold))
        assert deduplicate(data, threshold).ids() == expected


def positives_corpus(n_pos=50, n_epitopes=25):
    """Distinct TCR per positive so the non-cognate pool is large:
    n_pos * (n_epitopes - 1) pairs."""
    residues = "ACDEFGHIKLMNPQRSTVY"
    peptides = [
        residues[e % 19] + residues[(e // 19) % 19]
        + "".join(residues[(3 * k) % 19] for k in range(7))
        for e in range(n_epitopes)
    ]
    examples = []
    for i in range(n_pos):
        ep = i % n_epitopes
        tag = residues[i % 19] + residues[(i // 19) % 19]
        examples.append(
            make_example(
                ex_id=f"p{i}",
                cdr3a="CAV" + tag + "F",
                cdr3b="CASS" + tag + residues[i % 19] + "F",
                peptide=peptides[ep],
                epitope_id=f"EP{ep:02d}",
                label=1,
            )
        )
    return Dataset(examples)


class TestGenerateNegatives:
    def test_count_at_low_rate(self):
        combined = generate_negatives(positives_corpus(50), 0.05, seed=3)
        assert len(combined) == 1000
        assert sum(ex.label for ex in combined) == 50

    def test_count_at_even_rate(self):
        combined = generate_negatives(positives_corpus(50), 0.5, seed=3)
        assert len(combined) == 100

    def test_rate_within_one_example(self):
        combined = generate_negatives(positives_corpus(50), 0.3, seed=3)
        n_pos = sum(ex.label for ex in combined)
        assert abs(n_pos - 0.3 * len(combined)) <= 1.0

    def test_single_epitope_rejected(self):
        rows = [("CAVS", "CASS", "GILGFVFTL", "EP01", 1)] * 3
        data = Dataset(
            [
                make_example(ex_id=f"p{i}", cdr3a=a, cdr3b=b, peptide=p,
                             epitope_id=ep, label=y)
                for i, (a, b, p, ep, y) in enumerate(rows)
            ]
        )
        with pytest.raises(ValueError, match="epitope"):
            generate_negatives(data, 0.5, seed=0)

    def test_rejects_nonpositive_input(self):
        data = make_dataset(
            [
                ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
                ("CAVT", "CAST", "NLVPMVATV", "EP02", 0),
            ]
        )
        with pytest.raises(ValueError):
            generate_negatives(data, 0.5, seed=0)

    def test_no_cognate_pairs_emitted(self):
        positives = positives_corpus(50)
        known = {(ex.cdr3a, ex.cdr3b): set() for ex in positives}
        for ex in positives:
            known[(ex.cdr3a, ex.cdr3b)].add(ex.epitope_id)
        combined = generate_negatives(positives, 0.2, seed=9)
        for ex in combined:
            if ex.label == 0:
                binder_epitopes = known.get((ex.cdr3a, ex.cdr3b), set())
                assert ex.epitope_id not in binder_epitopes

    def test_same_seed_same_output(self, tmp_path):
        a = generate_negatives(positives_corpus(50), 0.1, seed=4)
        b = generate_negatives(positives_corpus(50), 0.1, seed=4)
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_tsv(a, pa)
        export_tsv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = generate_negatives(positives_corpus(50), 0.1, seed=4)
        b = generate_negatives(positives_corpus(50), 0.1, seed=5)
        pairs_a = [(ex.cdr3b, ex.peptide) for ex in a if ex.label == 0]
        pairs_b = [(ex.cdr3b, ex.peptide) for ex in b if ex.label == 0]
        assert pairs_a != pairs_b

    def test_demand_beyond_pool_rejected(self):
        # 2 TCRs x 2 epitopes with all-distinct cognates leaves 2 non-cognate
        # pairs; r=0.2 asks for 8
        rows = [
            ("CAVS", "CASS", "GILGFVFTL", "EP01", 1),
            ("CAVT", "CAST", "NLVPMVATV", "EP02", 1),
        ]
        data = Dataset(
            [
                make_example(ex_id=f"p{i}", cdr3a=a, cdr3b=b, peptide=p,
                             epitope_id=ep, label=y)
                for i, (a, b, p, ep, y) in enumerate(rows)
            ]
        )
        with pytest.raises(ValueError):
            generate_negatives(data, 0.2, seed=0)
