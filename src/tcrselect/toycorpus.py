"""Deterministic toy corpora with a planted binding motif.

The generator plants a short motif in true binders, a partial motif with noisy
labels in an uncertain middle tier, and leaves the rest clean negatives. A
k-mer scorer trained on such a corpus is confident and correct on the motif
tier, uncertain on the partial tier (where the label noise lives), and
confident on the clean tier, which is exactly the shape selective prediction
should exploit: abstention removes the noisy middle first.

Random sequence content never contains the motif letter, so motif occurrence
is fully controlled. cdr3b strings are drawn as point mutations of a small set
of family bases, giving the identity-clustering split something to cluster.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from .data import Dataset

MOTIF = "WFW"
PARTIAL_MOTIF = "WF"
# W is reserved for planted motifs; random content draws from the rest
_BACKGROUND = "ACDEFGHIKLMNPQRSTVY"

TOY_DATASET_NAME = "toy_pairs.tsv"


def _random_seq(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_BACKGROUND) for _ in range(length))


def _mutate(rng: random.Random, base: str, max_edits: int = 2) -> str:
    seq = list(base)
    for _ in range(rng.randint(0, max_edits)):
        pos = rng.randrange(len(seq))
        seq[pos] = rng.choice(_BACKGROUND)
    return "".join(seq)


def _inject(rng: random.Random, seq: str, fragment: str) -> str:
    pos = rng.randrange(1, len(seq) - len(fragment))
    return seq[:pos] + fragment + seq[pos + len(fragment) :]


def motif_corpus(
    n_examples: int,
    seed: int,
    n_epitopes: int = 8,
    n_families: int = 30,
    positive_fraction: float = 0.15,
    partial_fraction: float = 0.35,
    partial_flip: float = 0.5,
) -> Dataset:
    """Three-tier motif corpus: full motif (label 1), partial motif (noisy
    labels), clean background (label 0)."""
    if n_examples < 10:
        raise ValueError("n_examples must be >= 10")
    if n_epitopes < 2:
        raise ValueError("n_epitopes must be >= 2")
    if positive_fraction + partial_fraction >= 1.0:
        raise ValueError("tier fractions must leave room for clean negatives")
    rng = random.Random(seed)
    peptide_of = {f"EP{idx:02d}": _random_seq(rng, 9) for idx in range(n_epitopes)}
    epitope_ids = sorted(peptide_of)
    bases = [
        "CASS" + _random_seq(rng, rng.randint(5, 7)) + "F" for _ in range(n_families)
    ]
    n_full = round(n_examples * positive_fraction)
    n_partial = round(n_examples * partial_fraction)
    tiers = ["full"] * n_full + ["partial"] * n_partial
    tiers += ["clean"] * (n_examples - len(tiers))
    rng.shuffle(tiers)
    rows = []
    for idx, tier in enumerate(tiers):
        cdr3a = "CA" + _random_seq(rng, rng.randint(6, 9)) + "F"
        cdr3b = _mutate(rng, rng.choice(bases))
        if tier == "full":
            cdr3b = _inject(rng, cdr3b, MOTIF)
            label = 1
        elif tier == "partial":
            cdr3b = _inject(rng, cdr3b, PARTIAL_MOTIF)
            label = 1 if rng.random() < partial_flip else 0
        else:
            label = 0
        epitope_id = rng.choice(epitope_ids)
        rows.append((f"ex{idx:05d}", cdr3a, cdr3b, peptide_of[epitope_id], epitope_id, label))
    columns = tuple(zip(*rows))
    del rows  # lowers the peak memory of a large corpus: the tuples go before the checks
    return Dataset(*columns)


def toy_dataset_path() -> Path:
    """Location of the bundled 200-example corpus."""
    return Path(str(resources.files("tcrselect") / "assets" / TOY_DATASET_NAME))
