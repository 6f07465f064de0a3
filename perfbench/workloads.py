"""The four benchmark workloads: inputs made from a seed, the tcrselect argv,
and what the output checks expect.

Every input is generated here, outside the timed region; the program under
test receives only the files. Each workload names the layers it stresses and
the end-to-end metric a change to that layer should move, so a later change
can state its prediction against this table before it is measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
# Not used while the benchmark was tuned; a claimed gain must also hold here.
HELD_OUT_SEED = 7919

CORPUS = "corpus.tsv"
LOGITS = "logits.tsv"
CONFIG = "config.json"

RUN_FILES = (
    "manifest.json", "scorer.json", "temperature.json", "conformal_rule.json",
    "decisions.tsv", "reliability_test.csv", "metrics.json", "run_log.txt",
)
SWEEP_FILES = ("manifest.json", "coverage_risk.csv", "sweep.json", "run_log.txt")
SIMULATE_FILES = ("simulate.csv", "simulate.json", "run_log.txt")


@dataclass
class Prepared:
    """One workload instance: the argv and what a correct run produces."""

    argv: list[str]
    items: int
    input_files: list[str]
    output_files: tuple[str, ...]
    # ids the manifest parts must cover exactly; None when there is no dataset
    expected_ids: list[str] | None = None
    # the number of decisions.tsv rows must equal the test size
    check_decisions: bool = False
    check_coverage: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    item_unit: str
    rationale: str
    # per-layer metric (or metric family) -> the end-to-end metric it moves here
    layers: dict[str, str]
    # per-layer metrics whose sum, over cli.main_s, is the dominant share
    dominant: tuple[str, ...]
    prepare: Callable[[Path, int, dict], Prepared]
    sizes: dict
    # sizes for the self-test, which checks the benchmark, not the program
    tiny_sizes: dict


def _write_corpus(work: Path, seed: int, rows: int) -> list[tuple[str, str, int]]:
    """Write a motif_corpus TSV; return (id, concatenation, label) per row."""
    from tcrselect.data import export_tsv
    from tcrselect.toycorpus import motif_corpus

    data = motif_corpus(rows, seed)
    export_tsv(data, work / CORPUS)
    return [(ex.id, ex.cdr3a + ex.cdr3b + ex.peptide, ex.label) for ex in data]


def _write_config(work: Path, payload: dict) -> None:
    (work / CONFIG).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare_train_random(work: Path, seed: int, sizes: dict) -> Prepared:
    rows = _write_corpus(work, seed, sizes["rows"])
    return Prepared(
        argv=["run", "--dataset", CORPUS, "--protocol", "random",
              "--epsilon", "0.2", "--out", "out"],
        items=len(rows),
        input_files=[CORPUS],
        output_files=RUN_FILES,
        expected_ids=[row_id for row_id, _, _ in rows],
        check_decisions=True,
    )


def _prepare_cluster_distance(work: Path, seed: int, sizes: dict) -> Prepared:
    from dedup_reference import greedy_dedup

    rows = _write_corpus(work, seed, sizes["rows"])
    _write_config(work, {
        "dataset": {"dedup_identity": sizes["identity"]},
        "split": {"identity_ceiling": sizes["identity"]},
    })
    kept = greedy_dedup([key for _, key, _ in rows], sizes["identity"])
    return Prepared(
        argv=["run", "--config", CONFIG, "--dataset", CORPUS,
              "--protocol", "distance_aware", "--epsilon", "0.2", "--out", "out"],
        items=len(rows),
        input_files=[CORPUS, CONFIG],
        output_files=RUN_FILES,
        expected_ids=[rows[i][0] for i in kept],
        check_decisions=True,
    )


def _prepare_ingest_logits_sweep(work: Path, seed: int, sizes: dict) -> Prepared:
    rows = _write_corpus(work, seed, sizes["rows"])
    # An external scorer's output: label-dependent mean plus seeded noise, so
    # the sweep has both confident and uncertain predictions to rank.
    rng = random.Random(seed)
    with open(work / LOGITS, "w", encoding="utf-8", newline="") as handle:
        for row_id, _, label in rows:
            logit = (1.5 if label else -1.5) + rng.gauss(0.0, 1.5)
            handle.write(f"{row_id}\t{logit!r}\n")
    return Prepared(
        argv=["sweep", "--dataset", CORPUS, "--scorer", "logits", "--logits", LOGITS,
              "--protocol", "random", "--out", "out"],
        items=len(rows),
        input_files=[CORPUS, LOGITS],
        output_files=SWEEP_FILES,
        expected_ids=[row_id for row_id, _, _ in rows],
    )


def _prepare_simulate_coverage(work: Path, seed: int, sizes: dict) -> Prepared:
    _write_config(work, {"simulate": dict(sizes, seed=seed)})
    return Prepared(
        argv=["simulate", "--config", CONFIG, "--out", "out"],
        items=sizes["n_trials"],
        input_files=[CONFIG],
        output_files=SIMULATE_FILES,
        check_coverage=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_random",
            item_unit="rows",
            rationale=(
                "The paper's headline path at VDJdb scale: builtin k-mer scorer "
                "on a 100k-row corpus with a random split. The scorer (vocabulary, "
                "design matrix, gradient descent, scoring) is most of the run; "
                "there is no clustering, so it bypasses the distance layer."
            ),
            layers={
                "scorer.*": "norm_cpu_s, norm_items_per_s, peak_rss_mb",
                "data.ingest_tsv_s, data.subset_s": "norm_cpu_s (about 12%)",
                "cli.self_s": "norm_cpu_s",
                "distance.*": "none (not called)",
            },
            dominant=("scorer.train_s", "scorer.score_s"),
            prepare=_prepare_train_random,
            sizes={"rows": 100_000},
            tiny_sizes={"rows": 300},
        ),
        Workload(
            name="cluster_distance",
            item_unit="rows",
            rationale=(
                "Identity dedup at 0.9 and a distance-aware split at ceiling 0.9 "
                "on 800 rows: pairwise identity scans are nearly all of the run, "
                "and the scorer is under 2%. The 0.7 ceiling chains the corpus "
                "into one component and is left out."
            ),
            layers={
                "data.deduplicate_s": "norm_cpu_s",
                "distance.*": "norm_cpu_s",
                "scorer.*": "none (under 2%)",
            },
            dominant=("data.deduplicate_s", "distance.cluster_s"),
            prepare=_prepare_cluster_distance,
            sizes={"rows": 800, "identity": 0.9},
            tiny_sizes={"rows": 120, "identity": 0.9},
        ),
        Workload(
            name="ingest_logits_sweep",
            item_unit="rows",
            rationale=(
                "The external-scorer path: 100k rows plus a logit TSV, then a "
                "coverage-risk sweep. Per-row Python in TSV ingest, logit ingest "
                "and report writing dominates; the only workload that measures "
                "ingest_logits and the sweep."
            ),
            layers={
                "data.ingest_tsv_s, data.subset_s": "norm_cpu_s (about 50%)",
                "scorer.ingest_logits_s": "norm_cpu_s",
                "cli.self_s": "norm_cpu_s (about 14%)",
                "splits.split_s": "norm_cpu_s",
                "conformal.decide_s": "norm_cpu_s",
                "metrics.sweep_s": "norm_cpu_s",
            },
            dominant=("data.ingest_tsv_s", "scorer.ingest_logits_s", "cli.self_s"),
            prepare=_prepare_ingest_logits_sweep,
            sizes={"rows": 100_000},
            tiny_sizes={"rows": 300},
        ),
        Workload(
            name="simulate_coverage",
            item_unit="trials",
            rationale=(
                "The paper's Monte Carlo check of the coverage guarantee at the "
                "shipped defaults (n_cal = n_test = 2000, 200 trials, epsilon "
                "0.2): synthetic draws and many small calibration and conformal "
                "fits, with no file input and no sequence layer."
            ),
            layers={
                "synthetic.*": "norm_cpu_s, norm_items_per_s",
                "calibration.fit_temperature_s": "norm_cpu_s",
                "conformal.*": "norm_cpu_s",
                "scorer.*, distance.*, data.*": "none (not called)",
            },
            dominant=("synthetic.generate_s", "calibration.fit_temperature_s"),
            prepare=_prepare_simulate_coverage,
            # the shipped defaults, written out so a change of default does
            # not silently change the workload
            sizes={"n_cal": 2000, "n_test": 2000, "n_trials": 200, "epsilon": 0.2},
            tiny_sizes={"n_cal": 200, "n_test": 200, "n_trials": 5, "epsilon": 0.2},
        ),
    )
}
