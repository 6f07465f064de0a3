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
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .calibration import brier, ece, nll
from .config import ConfigError, RunConfig, load_config
from .conformal import (
    DECISION_PREDICT,
    PipelineResult,
    decisions_from_tsv,
    decisions_to_tsv,
    run_pipeline,
)
from .data import Dataset, deduplicate, generate_negatives, ingest_tsv
from .metrics import auprc, auroc, coverage_risk_sweep, selective_error
from .scorer import TrainingConfig, export_logits, score, train_linear
from .splits import (
    PROTOCOL_DISTANCE_AWARE,
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
    SplitManifest,
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)
from .synthetic import SyntheticSpec, calibration_size_sweep, coverage_experiment


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _Runner:
    """Shared plumbing: output dir, sidecar log, deterministic writers."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.out = Path(config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_fingerprint = hashlib.sha256(
            config.semantic_json().encode("utf-8")
        ).hexdigest()

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
    if split.protocol == PROTOCOL_DISTANCE_AWARE:
        return split_distance_aware(
            data,
            identity_ceiling=split.identity_ceiling,
            cal_fraction=split.cal_fraction,
            test_fraction=split.test_fraction,
            seed=split.seed,
        )
    raise ConfigError(f"split.protocol: unknown protocol {split.protocol!r}")


def _get_manifest(
    runner: _Runner, data: Dataset, manifest_path: str | None
) -> SplitManifest:
    if manifest_path:
        manifest = SplitManifest.load(manifest_path)
        runner.log(f"loaded manifest from {manifest_path}")
        return manifest
    manifest = _make_manifest(runner.config, data)
    runner.write_text("manifest.json", manifest.to_json())
    return manifest


def _training_config(config: RunConfig) -> TrainingConfig:
    s = config.scorer
    return TrainingConfig(
        kmer_size=s.kmer_size,
        learning_rate=s.learning_rate,
        epochs=s.epochs,
        l2=s.l2,
        seed=s.seed,
        include_cdr3a=s.include_cdr3a,
    )


def _quality_row(probs: list[float], labels: list[int]) -> dict:
    """AUROC/AUPRC/ECE/Brier/NLL plus argmax error; rank metrics None when
    the labels are single-class."""
    single_class = len(set(labels)) < 2
    wrong = sum(1 for p, y in zip(probs, labels) if (1 if p >= 0.5 else 0) != y)
    return {
        "auroc": None if single_class else auroc(probs, labels),
        "auprc": None if single_class else auprc(probs, labels),
        "ece": ece(probs, labels).ece,
        "brier": brier(probs, labels),
        "nll": nll(probs, labels),
        "error_rate": wrong / len(probs),
    }


def _method_rows(result: PipelineResult, labels: dict[str, int]) -> dict:
    test_labels = [rec.label for rec in result.test_records]
    raw_probs = [rec.prob_raw for rec in result.test_records]
    cal_probs = result.test_probs_calibrated

    baseline = dict(_quality_row(raw_probs, test_labels), coverage=1.0, abstained=0.0)
    temp_scaled = dict(_quality_row(cal_probs, test_labels), coverage=1.0, abstained=0.0)
    if baseline["auroc"] is not None and baseline["auroc"] != temp_scaled["auroc"]:
        raise RuntimeError(
            "temperature scaling changed AUROC; the transform must be monotone"
        )

    coverage, risk = selective_error(result.decisions, labels)
    retained_probs = []
    retained_labels = []
    for decision in result.decisions:
        if decision.decision == DECISION_PREDICT:
            retained_probs.append(decision.prob_calibrated)
            retained_labels.append(labels[decision.example_id])
    if retained_probs:
        selective = dict(
            _quality_row(retained_probs, retained_labels),
            coverage=coverage,
            abstained=1.0 - coverage,
        )
        selective["error_rate"] = risk
    else:
        selective = {
            "auroc": None, "auprc": None, "ece": None, "brier": None, "nll": None,
            "error_rate": None, "coverage": coverage, "abstained": 1.0 - coverage,
        }
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
) -> tuple[Dataset, SplitManifest, PipelineResult]:
    config = runner.config
    data = _load_dataset(config)
    manifest = _get_manifest(runner, data, getattr(args, "manifest", None))
    train = data.subset(manifest.train_ids)
    cal = data.subset(manifest.cal_ids)
    test = data.subset(manifest.test_ids)
    if config.scorer.mode == "builtin":
        result = run_pipeline(
            train, cal, test,
            epsilon=config.conformal.epsilon,
            training=_training_config(config),
            manifest=manifest,
        )
    else:
        result = run_pipeline(
            train, cal, test,
            epsilon=config.conformal.epsilon,
            logits_path=config.scorer.logits_path,
            manifest=manifest,
        )
    return data, manifest, result


def _provenance(runner: _Runner, manifest: SplitManifest, result: PipelineResult) -> dict:
    return {
        "config": runner.config_fingerprint,
        "manifest": manifest.fingerprint(),
        "scorer": result.scorer_model.fingerprint() if result.scorer_model else None,
        "calibration_ids": result.cal_fingerprint,
    }


def _comment_lines(provenance: dict) -> list[str]:
    scorer_print = provenance["scorer"] or "external-logits"
    return [
        f"manifest={provenance['manifest']}",
        f"scorer={scorer_print}",
        f"config={provenance['config']}",
    ]


def cmd_run(runner: _Runner, args: argparse.Namespace) -> int:
    data, manifest, result = _run_shared(runner, args)
    provenance = _provenance(runner, manifest, result)

    if result.scorer_model is not None:
        runner.write_text("scorer.json", result.scorer_model.to_json())
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
    test_labels = [rec.label for rec in result.test_records]
    table = ece(result.test_probs_calibrated, test_labels)
    reliability_lines = "".join(
        f"# {text}\n" for text in _comment_lines(provenance)
    ) + table.to_csv()
    runner.write_text("reliability_test.csv", reliability_lines)

    rows = _method_rows(result, data.labels())
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
    print(f"split {manifest.protocol}: test={len(result.test_records)} examples")
    print(
        f"temperature {result.temperature.temperature:.4f} "
        f"(nll {result.temperature.nll_before:.4f} -> {result.temperature.nll_after:.4f})"
    )
    if result.rule.retain_all:
        print(f"epsilon {result.rule.epsilon}: retain-all (calibration set too small)")
    else:
        print(f"epsilon {result.rule.epsilon}: threshold {result.rule.threshold:.6f}")
    for name in ("baseline", "temp_scaled", "conformal_selective"):
        row = rows[name]
        cells = [name]
        for key in ("auroc", "auprc", "ece", "brier", "nll", "error_rate", "coverage"):
            value = row.get(key)
            cells.append(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}=-")
        print("  ".join(cells))
    return 0


def cmd_sweep(runner: _Runner, args: argparse.Namespace) -> int:
    data, manifest, result = _run_shared(runner, args)
    provenance = _provenance(runner, manifest, result)
    records = [
        (rec.example_id, prob)
        for rec, prob in zip(result.test_records, result.test_probs_calibrated)
    ]
    curve = coverage_risk_sweep(
        records,
        data.labels(),
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
    model = train_linear(train, _training_config(config))
    records = score(model, data)
    runner.write_text("scorer.json", model.to_json())
    export_logits(records, runner.out / "logits.tsv")
    runner.log("wrote logits.tsv")
    print(f"scored {len(records)} examples with model {model.fingerprint()[:12]}")
    return 0


def cmd_simulate(runner: _Runner, args: argparse.Namespace) -> int:
    sim = runner.config.simulate
    spec = SyntheticSpec(
        n_cal=sim.n_cal,
        n_test=sim.n_test,
        miscalibration_temperature=sim.miscalibration_temperature,
        base_positive_rate=sim.base_positive_rate,
        seed=sim.seed,
    )
    comments = [f"config={runner.config_fingerprint}"]
    if sim.sizes:
        rows = calibration_size_sweep(spec, sim.sizes, sim.epsilon, n_trials=sim.n_trials)
        lines = [f"# {text}" for text in comments]
        lines.append("n_cal,mean_ece_after,mean_coverage")
        for row in rows:
            lines.append(f"{row.n_cal},{row.mean_ece_after!r},{row.mean_coverage!r}")
        runner.write_text("simulate.csv", "\n".join(lines) + "\n")
        runner.write_json(
            "simulate.json",
            {
                "config": runner.config.semantic_dict(),
                "mode": "calibration_size_sweep",
                "rows": [
                    {
                        "n_cal": row.n_cal,
                        "mean_ece_after": row.mean_ece_after,
                        "mean_coverage": row.mean_coverage,
                    }
                    for row in rows
                ],
            },
        )
        for row in rows:
            print(
                f"n_cal {row.n_cal}: ece_after {row.mean_ece_after:.4f} "
                f"coverage {row.mean_coverage:.4f}"
            )
        return 0
    summary = coverage_experiment(spec, sim.epsilon, sim.n_trials)
    lines = [f"# {text}" for text in comments]
    lines.append("trial,coverage")
    for trial, coverage in enumerate(summary.coverages):
        lines.append(f"{trial},{coverage!r}")
    runner.write_text("simulate.csv", "\n".join(lines) + "\n")
    runner.write_json(
        "simulate.json",
        {
            "config": runner.config.semantic_dict(),
            "mode": "coverage_experiment",
            "epsilon": summary.epsilon,
            "n_cal": summary.n_cal,
            "n_trials": summary.n_trials,
            "mean_coverage": summary.mean_coverage,
            "sd_coverage": summary.sd_coverage,
            "retain_all_trials": summary.retain_all_trials,
        },
    )
    bound = 1.0 - summary.epsilon - 1.0 / (summary.n_cal + 1)
    print(
        f"mean coverage {summary.mean_coverage:.4f} over {summary.n_trials} trials "
        f"(guarantee >= {bound:.4f})"
    )
    return 0


def cmd_metrics(runner: _Runner, args: argparse.Namespace) -> int:
    decisions_path = Path(args.decisions)
    text = decisions_path.read_text(encoding="utf-8")
    decisions = decisions_from_tsv(text)
    data = _load_dataset(runner.config)
    labels = data.labels()
    coverage, risk = selective_error(decisions, labels)
    retained_probs = [d.prob_calibrated for d in decisions if d.decision == DECISION_PREDICT]
    retained_labels = [
        labels[d.example_id] for d in decisions if d.decision == DECISION_PREDICT
    ]
    if retained_probs:
        quality = _quality_row(retained_probs, retained_labels)
        quality["error_rate"] = risk
    else:
        quality = {
            "auroc": None, "auprc": None, "ece": None,
            "brier": None, "nll": None, "error_rate": None,
        }
    report = {
        "config": runner.config.semantic_dict(),
        "decisions_file": str(decisions_path),
        "decisions_fingerprint": hashlib.sha256(text.encode("utf-8")).hexdigest(),
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
        choices=(PROTOCOL_RANDOM, PROTOCOL_EPITOPE_HELD_OUT, PROTOCOL_DISTANCE_AWARE),
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


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scorer", choices=("builtin", "logits"), help="score source")
    parser.add_argument("--logits", help="external logit TSV (with --scorer logits)")
    parser.add_argument("--kmer-size", type=int, help="k-mer size for the builtin scorer")
    parser.add_argument(
        "--mask-cdr3a",
        action="store_true",
        help="train the builtin scorer without the cdr3a field",
    )
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
    _add_scorer_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="coverage-risk curve over a grid")
    _add_common(p_sweep)
    _add_split_flags(p_sweep)
    _add_scorer_flags(p_sweep)
    p_sweep.add_argument("--grid", help="comma-separated coverage targets")

    p_sim = sub.add_parser("simulate", help="synthetic coverage experiments")
    _add_common(p_sim)
    p_sim.add_argument("--trials", type=int, help="number of seeded trials")
    p_sim.add_argument("--sizes", help="comma-separated calibration sizes")
    p_sim.add_argument("--epsilon", type=float, help="target error level")

    p_score = sub.add_parser("score", help="train the builtin scorer, export logits")
    _add_common(p_score)
    _add_split_flags(p_score)
    p_score.add_argument("--kmer-size", type=int, help="k-mer size for the builtin scorer")
    p_score.add_argument(
        "--mask-cdr3a", action="store_true",
        help="train the builtin scorer without the cdr3a field",
    )
    p_score.add_argument("--manifest", help="reuse an existing manifest JSON")

    p_metrics = sub.add_parser("metrics", help="re-evaluate a saved decision TSV")
    _add_common(p_metrics)
    p_metrics.add_argument("--decisions", required=True, help="decisions.tsv to re-evaluate")

    return parser


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
        overrides["sweep.grid"] = [float(v) for v in grid.split(",")]
    sizes = getattr(args, "sizes", None)
    if sizes:
        overrides["simulate.sizes"] = [int(v) for v in sizes.split(",")]
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
