"""Command-line pipeline driver.

Subcommands: split, run, sweep, simulate, score, metrics. One JSON config file
drives everything; flags override file values. Reports are machine-first
(JSON/CSV/TSV) and byte-deterministic for a fixed config: timestamps go to a
sidecar run_log.txt only, and every output names the fingerprints of the
manifest, scorer, and config it derives from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibration import brier, ece, nll
from .config import PROTOCOLS, SCORER_MODES, ConfigError, RunConfig, load_config
from .conformal import (
    DecisionTable,
    PipelineResult,
    decisions_from_tsv,
    decisions_to_tsv,
    quantile_index,
    run_pipeline,
)
from .data import Dataset, deduplicate, generate_negatives, ingest_tsv
from .metrics import auprc, auroc, coverage_risk_sweep, selective_error
from .scorer import export_logits, score, sigmoid, train_linear
from .splits import (
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
    SplitManifest,
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)
from .synthetic import calibration_size_sweep, coverage_experiment


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Runner:
    """Shared plumbing: output dir, sidecar log, deterministic writers."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.out = Path(config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_fingerprint = _sha256(config.semantic_json())

    def log(self, message: str) -> None:
        with open(self.out / "run_log.txt", "a", encoding="utf-8") as handle:
            handle.write(f"{_utc_now()} {message}\n")

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.log(f"wrote {name}")
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        return self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_dataset(config: RunConfig) -> Dataset:
    if config.dataset.path is None:
        raise ConfigError("dataset.path: required for this command")
    data = ingest_tsv(config.dataset.path, columns=config.dataset.columns)
    if config.dataset.dedup_identity is not None:
        data = deduplicate(data, config.dataset.dedup_identity)
    if config.dataset.negatives is not None:
        data = generate_negatives(
            data,
            config.dataset.negatives.target_positive_rate,
            config.dataset.negatives.seed,
        )
    return data


def _make_manifest(config: RunConfig, data: Dataset) -> SplitManifest:
    split = config.split
    if split.protocol == PROTOCOL_RANDOM:
        return split_random(data, fractions=split.fractions, seed=split.seed)
    if split.protocol == PROTOCOL_EPITOPE_HELD_OUT:
        return split_epitope_held_out(
            data,
            k_test_epitopes=split.k_test_epitopes,
            cal_fraction=split.cal_fraction,
            seed=split.seed,
            epitope_disjoint_cal=split.epitope_disjoint_cal,
        )
    return split_distance_aware(
        data,
        identity_ceiling=split.identity_ceiling,
        cal_fraction=split.cal_fraction,
        test_fraction=split.test_fraction,
        seed=split.seed,
    )


def _get_manifest(
    runner: _Runner, data: Dataset, manifest_path: str | None
) -> SplitManifest:
    if manifest_path:
        manifest = SplitManifest.load(manifest_path)
        manifest.check_covers(data.ids, f"manifest {manifest_path}")
        runner.log(f"loaded manifest from {manifest_path}")
        return manifest
    manifest = _make_manifest(runner.config, data)
    runner.write_text("manifest.json", manifest.to_json())
    return manifest


def _quality_row(probs: Sequence[float], labels: Sequence[int]) -> dict:
    """AUROC/AUPRC/ECE/Brier/NLL plus argmax error; rank metrics None when
    the labels are single-class."""
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    single_class = len(np.unique(labels)) < 2
    wrong = int(np.count_nonzero((probs >= 0.5) != labels))
    return {
        "auroc": None if single_class else auroc(probs, labels),
        "auprc": None if single_class else auprc(probs, labels),
        "ece": ece(probs, labels).ece,
        "brier": brier(probs, labels),
        "nll": nll(probs, labels),
        "error_rate": wrong / len(probs),
    }


def _retained_quality(
    decisions: DecisionTable, labels: np.ndarray, risk: float | None
) -> dict:
    """Quality row of the retained decisions against their aligned labels,
    with the selective risk as error_rate; every value None when all of them
    abstained."""
    retained = decisions.predicted >= 0
    if not retained.any():
        return dict.fromkeys(("auroc", "auprc", "ece", "brier", "nll", "error_rate"))
    quality = _quality_row(decisions.probs[retained], labels[retained])
    quality["error_rate"] = risk
    return quality


def _check_monotone(logits: np.ndarray, *probs: np.ndarray) -> None:
    """Raise unless every probability array is non-decreasing in the logit.

    Temperature scaling must keep the order of the logits. Equal AUROC before
    and after scaling is no test of that: float rounding saturates distinct
    logits into equal probabilities at one temperature and not at another,
    and AUROC counts tied probabilities as half.
    """
    order = np.argsort(logits, kind="stable")
    if any(np.any(np.diff(p[order]) < 0.0) for p in probs):
        raise RuntimeError(
            "probabilities are not monotone in the logit; temperature scaling "
            "must keep the ranking"
        )


def _method_rows(result: PipelineResult) -> dict:
    test_labels = result.test.labels
    raw_probs = sigmoid(result.test.logits)
    cal_probs = result.test_probs_calibrated
    _check_monotone(result.test.logits, raw_probs, cal_probs)

    baseline = dict(_quality_row(raw_probs, test_labels), coverage=1.0, abstained=0.0)
    temp_scaled = dict(_quality_row(cal_probs, test_labels), coverage=1.0, abstained=0.0)
    coverage, risk = selective_error(result.decisions, test_labels)
    selective = dict(
        _retained_quality(result.decisions, test_labels, risk),
        coverage=coverage,
        abstained=1.0 - coverage,
    )
    return {
        "baseline": baseline,
        "temp_scaled": temp_scaled,
        "conformal_selective": selective,
    }


def cmd_split(runner: _Runner, args: argparse.Namespace) -> int:
    data = _load_dataset(runner.config)
    manifest = _get_manifest(runner, data, None)
    print(
        f"{manifest.protocol} split of {len(data)} examples: "
        f"train={len(manifest.train_ids)} cal={len(manifest.cal_ids)} "
        f"test={len(manifest.test_ids)}"
    )
    print(f"manifest fingerprint {manifest.fingerprint()}")
    return 0


def _run_shared(
    runner: _Runner, args: argparse.Namespace
) -> tuple[SplitManifest, PipelineResult]:
    config = runner.config
    data = _load_dataset(config)
    manifest = _get_manifest(runner, data, getattr(args, "manifest", None))
    train = data.subset(manifest.train_ids)
    cal = data.subset(manifest.cal_ids)
    test = data.subset(manifest.test_ids)
    builtin = config.scorer.mode == "builtin"
    result = run_pipeline(
        train, cal, test,
        epsilon=config.conformal.epsilon,
        training=config.scorer if builtin else None,
        logits_path=None if builtin else config.scorer.logits_path,
        manifest=manifest,
    )
    return manifest, result


def _provenance(
    runner: _Runner, manifest: SplitManifest, result: PipelineResult
) -> tuple[dict, str | None]:
    """The provenance block, and the builtin scorer's JSON text (None for
    external logits): serialized once, hashed here and written by run."""
    scorer_json = result.scorer_model.to_json() if result.scorer_model else None
    provenance = {
        "config": runner.config_fingerprint,
        "manifest": manifest.fingerprint(),
        "scorer": None if scorer_json is None else _sha256(scorer_json),
        "calibration_ids": result.cal_fingerprint,
    }
    return provenance, scorer_json


def _comment_lines(provenance: dict) -> list[str]:
    scorer_print = provenance["scorer"] or "external-logits"
    return [
        f"manifest={provenance['manifest']}",
        f"scorer={scorer_print}",
        f"config={provenance['config']}",
    ]


def cmd_run(runner: _Runner, args: argparse.Namespace) -> int:
    manifest, result = _run_shared(runner, args)
    provenance, scorer_json = _provenance(runner, manifest, result)

    if scorer_json is not None:
        runner.write_text("scorer.json", scorer_json)
    runner.write_json(
        "temperature.json",
        dict(result.temperature.to_json_dict(), provenance=provenance),
    )
    runner.write_json(
        "conformal_rule.json",
        dict(result.rule.to_json_dict(), provenance=provenance),
    )
    runner.write_text(
        "decisions.tsv",
        decisions_to_tsv(result.decisions, comments=_comment_lines(provenance)),
    )
    table = ece(result.test_probs_calibrated, result.test.labels)
    reliability_lines = "".join(
        f"# {text}\n" for text in _comment_lines(provenance)
    ) + table.to_csv()
    runner.write_text("reliability_test.csv", reliability_lines)

    rows = _method_rows(result)
    report = {
        "config": runner.config.semantic_dict(),
        "provenance": provenance,
        "split_sizes": {
            "train": len(manifest.train_ids),
            "cal": len(manifest.cal_ids),
            "test": len(manifest.test_ids),
        },
        "temperature": result.temperature.to_json_dict(),
        "conformal_rule": result.rule.to_json_dict(),
        "methods": rows,
    }
    runner.write_json("metrics.json", report)

    selective = rows["conformal_selective"]
    print(f"split {manifest.protocol}: test={len(result.test)} examples")
    print(
        f"temperature {result.temperature.temperature:.4f} "
        f"(nll {result.temperature.nll_before:.4f} -> {result.temperature.nll_after:.4f})"
    )
    if result.rule.retain_all:
        print(f"epsilon {result.rule.epsilon}: retain-all (calibration set too small)")
    else:
        # the label-free test score is at most 0.5, so such a rule retains every row
        vacuous = result.rule.threshold >= 0.5
        print(
            f"epsilon {result.rule.epsilon}: threshold {result.rule.threshold:.6f}"
            + (" (rule cannot abstain: threshold >= 0.5)" if vacuous else "")
        )
    for name in ("baseline", "temp_scaled", "conformal_selective"):
        row = rows[name]
        cells = [name]
        for key in ("auroc", "auprc", "ece", "brier", "nll", "error_rate", "coverage"):
            value = row.get(key)
            cells.append(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}=-")
        print("  ".join(cells))
    return 0


def cmd_sweep(runner: _Runner, args: argparse.Namespace) -> int:
    manifest, result = _run_shared(runner, args)
    provenance, _ = _provenance(runner, manifest, result)
    curve = coverage_risk_sweep(
        result.test_probs_calibrated,
        result.test.labels,
        grid=runner.config.sweep.grid,
        source=f"{manifest.protocol} test split",
    )
    runner.write_text(
        "coverage_risk.csv", curve.to_csv(comments=_comment_lines(provenance))
    )
    runner.write_json(
        "sweep.json",
        {
            "config": runner.config.semantic_dict(),
            "provenance": provenance,
            "curve": curve.to_json_dict(),
        },
    )
    for point in curve.points:
        risk = "-" if point.error_rate is None else f"{point.error_rate:.4f}"
        print(f"coverage {point.coverage:.2f}  error_rate {risk}")
    return 0


def cmd_score(runner: _Runner, args: argparse.Namespace) -> int:
    config = runner.config
    data = _load_dataset(config)
    manifest = _get_manifest(runner, data, getattr(args, "manifest", None))
    train = data.subset(manifest.train_ids)
    model = train_linear(train, config.scorer)
    table = score(model, data)
    scorer_json = model.to_json()
    runner.write_text("scorer.json", scorer_json)
    export_logits(table, runner.out / "logits.tsv")
    runner.log("wrote logits.tsv")
    print(f"scored {len(table)} examples with model {_sha256(scorer_json)[:12]}")
    return 0


def cmd_simulate(runner: _Runner, args: argparse.Namespace) -> int:
    sim = runner.config.simulate
    if sim.sizes:
        rows = calibration_size_sweep(sim, sim.sizes, sim.epsilon, n_trials=sim.n_trials)
        header = "n_cal,mean_ece_after,mean_coverage"
        lines = [f"{row.n_cal},{row.mean_ece_after!r},{row.mean_coverage!r}" for row in rows]
        report = {"mode": "calibration_size_sweep", "rows": [asdict(row) for row in rows]}
        summary = [
            f"n_cal {row.n_cal}: ece_after {row.mean_ece_after:.4f} "
            f"coverage {row.mean_coverage:.4f}"
            + (f" ({row.single_class_trials} single-class trials skipped)"
               if row.single_class_trials else "")
            for row in rows
        ]
    else:
        result = coverage_experiment(sim, sim.epsilon, sim.n_trials)
        header = "trial,coverage"
        lines = [f"{trial},{coverage!r}" for trial, coverage in enumerate(result.coverages)]
        report = dict(asdict(result), mode="coverage_experiment")
        del report["coverages"]  # they are the rows of simulate.csv
        # expected coverage is at least k/(n_cal+1) >= 1 - epsilon, k the quantile index
        bound = quantile_index(result.n_cal, result.epsilon) / (result.n_cal + 1)
        standard_error = result.sd_coverage / math.sqrt(result.n_trials)
        summary = [
            f"mean coverage {result.mean_coverage:.4f} (standard error {standard_error:.4f}) "
            f"over {result.n_trials} trials (expected coverage guarantee >= {bound:.4f})"
        ]
    csv_lines = [f"# config={runner.config_fingerprint}", header, *lines]
    runner.write_text("simulate.csv", "\n".join(csv_lines) + "\n")
    runner.write_json("simulate.json", dict(report, config=runner.config.semantic_dict()))
    print("\n".join(summary))
    return 0


def cmd_metrics(runner: _Runner, args: argparse.Namespace) -> int:
    decisions_path = Path(args.decisions)
    text = decisions_path.read_text(encoding="utf-8")
    decisions = decisions_from_tsv(text)
    # an external decision file is not aligned with the dataset: join by id
    labels_by_id = _load_dataset(runner.config).labels_by_id()
    try:
        labels = np.array([labels_by_id[i] for i in decisions.ids], dtype=np.int8)
    except KeyError as err:
        raise ValueError(f"no label for id {err.args[0]!r}") from None
    coverage, risk = selective_error(decisions, labels)
    quality = _retained_quality(decisions, labels, risk)
    report = {
        "config": runner.config.semantic_dict(),
        "decisions_file": str(decisions_path),
        "decisions_fingerprint": _sha256(text),
        "n_decisions": len(decisions),
        "coverage": coverage,
        "retained": dict(quality, coverage=coverage, abstained=1.0 - coverage),
    }
    runner.write_json("metrics_reeval.json", report)
    risk_text = "-" if risk is None else f"{risk:.4f}"
    print(f"coverage {coverage:.4f}  risk {risk_text}  ({len(decisions)} decisions)")
    return 0


_COMMANDS = {
    "split": cmd_split,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "score": cmd_score,
    "metrics": cmd_metrics,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--dataset", help="input TSV corpus (overrides config)")
    parser.add_argument(
        "--columns",
        help="rename input columns, e.g. cdr3b=beta,label=bound",
    )
    parser.add_argument("--out", help="output directory (overrides config)")


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        help="split protocol (overrides config)",
    )
    parser.add_argument("--split-seed", type=int, help="split shuffle seed")
    parser.add_argument(
        "--k-epitopes", type=int, help="held-out test epitope count (epitope_held_out)"
    )
    parser.add_argument(
        "--cal-fraction", type=float,
        help="calibration share of non-test examples (epitope_held_out, distance_aware)",
    )


def _add_scorer_flags(parser: argparse.ArgumentParser, pipeline: bool) -> None:
    """Builtin-scorer flags; with pipeline (run, sweep) also the score source
    and epsilon."""
    if pipeline:
        parser.add_argument("--scorer", choices=SCORER_MODES, help="score source")
        parser.add_argument("--logits", help="external logit TSV (with --scorer logits)")
    parser.add_argument("--kmer-size", type=int, help="k-mer size for the builtin scorer")
    parser.add_argument(
        "--mask-cdr3a",
        action="store_true",
        help="train the builtin scorer without the cdr3a field",
    )
    if pipeline:
        parser.add_argument("--epsilon", type=float, help="target error level")
    parser.add_argument("--manifest", help="reuse an existing manifest JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcrselect",
        description="Calibrated selective prediction for TCR/peptide binding pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="write a train/cal/test manifest")
    _add_common(p_split)
    _add_split_flags(p_split)

    p_run = sub.add_parser("run", help="full pipeline: score, calibrate, decide")
    _add_common(p_run)
    _add_split_flags(p_run)
    _add_scorer_flags(p_run, pipeline=True)

    p_sweep = sub.add_parser("sweep", help="coverage-risk curve over a grid")
    _add_common(p_sweep)
    _add_split_flags(p_sweep)
    _add_scorer_flags(p_sweep, pipeline=True)
    p_sweep.add_argument("--grid", help="comma-separated coverage targets")

    p_sim = sub.add_parser("simulate", help="synthetic coverage experiments")
    _add_common(p_sim)
    p_sim.add_argument("--trials", type=int, help="number of seeded trials")
    p_sim.add_argument("--sizes", help="comma-separated calibration sizes")
    p_sim.add_argument("--epsilon", type=float, help="target error level")

    p_score = sub.add_parser("score", help="train the builtin scorer, export logits")
    _add_common(p_score)
    _add_split_flags(p_score)
    _add_scorer_flags(p_score, pipeline=False)

    p_metrics = sub.add_parser("metrics", help="re-evaluate a saved decision TSV")
    _add_common(p_metrics)
    p_metrics.add_argument("--decisions", required=True, help="decisions.tsv to re-evaluate")

    return parser


def _list_flag(flag: str, text: str, parse: type, expected: str) -> list:
    """The comma-separated items of a flag value, each parsed."""
    items = []
    for item in text.split(","):
        try:
            items.append(parse(item))
        except ValueError:
            raise ConfigError(f"{flag}: expected {expected}, got {item!r}") from None
    return items


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict[str, object] = {}
    mapping = {
        "dataset": "dataset.path",
        "out": "output_dir",
        "protocol": "split.protocol",
        "split_seed": "split.seed",
        "k_epitopes": "split.k_test_epitopes",
        "cal_fraction": "split.cal_fraction",
        "scorer": "scorer.mode",
        "logits": "scorer.logits_path",
        "kmer_size": "scorer.kmer_size",
        "trials": "simulate.n_trials",
    }
    for attr, dotted in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[dotted] = value
    if getattr(args, "mask_cdr3a", False):
        overrides["scorer.include_cdr3a"] = False
    columns = getattr(args, "columns", None)
    if columns:
        pairs = {}
        for item in columns.split(","):
            field, _, name = item.partition("=")
            if not name:
                raise ConfigError(f"--columns: expected field=name, got {item!r}")
            pairs[field.strip()] = name.strip()
        overrides["dataset.columns"] = pairs
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None:
        key = "simulate.epsilon" if args.command == "simulate" else "conformal.epsilon"
        overrides[key] = epsilon
    grid = getattr(args, "grid", None)
    if grid:
        overrides["sweep.grid"] = _list_flag("--grid", grid, float, "a number")
    sizes = getattr(args, "sizes", None)
    if sizes:
        overrides["simulate.sizes"] = _list_flag("--sizes", sizes, int, "an integer")
    return overrides


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, _overrides_from_args(args))
        runner = _Runner(config)
        runner.log(f"command {args.command} started")
        runner.log(f"full config {json.dumps(config.to_dict(), sort_keys=True)}")
        code = _COMMANDS[args.command](runner, args)
        runner.log(f"command {args.command} finished with code {code}")
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
