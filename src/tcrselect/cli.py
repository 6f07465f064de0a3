"""Command-line pipeline driver.

Subcommands: split, run, sweep, simulate, score, metrics. One JSON config file
drives everything; flags override file values. Reports are machine-first
(JSON/CSV/TSV) and byte-deterministic for a fixed config: timestamps go to a
sidecar run_log.txt only, and every output names the fingerprints of the
manifest, scorer, and config it derives from. A report's config is only the
settings its command reads (_COMMANDS), so a setting the command ignores
leaves its bytes alone. sweep ranks the calibrated test probabilities and
reads no conformal section: only run fits a threshold and decides.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calibration import brier, ece, nll
from .config import SCORER_MODES, ConfigError, RunConfig, load_config
from .conformal import (
    DecisionTable,
    PipelineResult,
    decisions_from_tsv,
    decisions_to_tsv,
    quantile_index,
    run_pipeline,
    select,
)
from .data import Dataset, NotUtf8, deduplicate, generate_negatives, ingest_tsv, json_text
from .metrics import auprc, auroc, coverage_risk_sweep, selective_error
from .scorer import TrainingSet, export_logits, ids_fingerprint, score, sigmoid, train_linear
from .splits import (
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
    PROTOCOLS,
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


def _usage() -> str:
    """This process's CPU seconds and peak RSS so far, as ' cpu_s=...
    peak_rss_mb=...', or '' where the resource module is missing."""
    try:
        import resource
    except ImportError:  # Windows has no resource module
        return ""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB, but in bytes on macOS
    kib = usage.ru_maxrss / 1024 if sys.platform == "darwin" else usage.ru_maxrss
    return f" cpu_s={usage.ru_utime + usage.ru_stime:.3f} peak_rss_mb={kib / 1024:.1f}"


class _Runner:
    """Shared plumbing: output dir, sidecar log, deterministic writers.

    settings, every report's config block, are the config sections the
    command reads; external logits read no training setting, so under
    scorer.mode logits the scorer section is only the mode and the logit file.
    The config fingerprint hashes their JSON text.
    """

    def __init__(self, config: RunConfig, sections: Sequence[str]) -> None:
        self.config = config
        self.settings = {name: asdict(getattr(config, name)) for name in sections}
        if "scorer" in sections and config.scorer.mode == "logits":
            self.settings["scorer"] = {"mode": "logits", "logits_path": config.scorer.logits_path}
        self.config_fingerprint = _sha256(json_text(self.settings))
        self.out = Path(config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)

    def log(self, message: str) -> None:
        with open(self.out / "run_log.txt", "a", encoding="utf-8") as handle:
            handle.write(f"{_utc_now()} {message}\n")

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.log(f"wrote {name}")
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        return self.write_text(name, json_text(payload))

    def write_table(self, name: str, table: str, provenance: dict | None = None) -> Path:
        """A table report under its '#' header: the manifest and scorer
        fingerprints of provenance, when given, then the config fingerprint."""
        header = "" if provenance is None else (
            f"# manifest={provenance['manifest']}\n"
            f"# scorer={provenance['scorer'] or 'external-logits'}\n"
        )
        return self.write_text(name, f"{header}# config={self.config_fingerprint}\n{table}")


def _load_dataset(config: RunConfig) -> Dataset:
    data = ingest_tsv(config.dataset.path, columns=config.dataset.columns)
    if len(data) == 0:
        raise ValueError(f"dataset {config.dataset.path}: no data rows")
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
    # the split functions are looked up when called, so a wrapper bound to
    # this module's names sees every split
    split = config.split
    if split.protocol == PROTOCOL_RANDOM:
        return split_random(data, split)
    if split.protocol == PROTOCOL_EPITOPE_HELD_OUT:
        return split_epitope_held_out(data, split)
    return split_distance_aware(data, split)


class _Split(NamedTuple):
    """What the reports read of a split: its protocol, the manifest's
    fingerprint and the size of each part."""

    protocol: str
    fingerprint: str
    sizes: dict[str, int]

    @classmethod
    def of(cls, manifest: SplitManifest, text: str | None) -> _Split:
        """text is the manifest's JSON as written, hashed as it is; None for
        a manifest given by --manifest, which is serialized to be hashed."""
        fingerprint = manifest.fingerprint() if text is None else _sha256(text)
        return cls(manifest.protocol, fingerprint, manifest.part_sizes())


def _get_manifest(
    runner: _Runner, args: argparse.Namespace
) -> tuple[Dataset, SplitManifest, str | None]:
    """The dataset, and the manifest given by --manifest or else split and
    written, with the text written (None for --manifest): the prelude of
    every command that splits."""
    data = _load_dataset(runner.config)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        manifest = SplitManifest.load(manifest_path).bind(data, f"manifest {manifest_path}")
        runner.log(f"loaded manifest from {manifest_path}")
        return data, manifest, None
    manifest = _make_manifest(runner.config, data)
    text = manifest.to_json()
    runner.write_text("manifest.json", text)
    return data, manifest, text


def _quality_row(probs: Sequence[float], labels: Sequence[int]) -> dict:
    """AUROC/AUPRC/ECE/Brier/NLL plus argmax error; rank metrics None when
    the labels are single-class."""
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    # min against max: np.unique would load numpy.ma for its masked-array check
    single_class = not len(labels) or labels.min() == labels.max()
    wrong = int(np.count_nonzero((probs >= 0.5) != labels))
    return {
        "auroc": None if single_class else auroc(probs, labels),
        "auprc": None if single_class else auprc(probs, labels),
        "ece": ece(probs, labels).ece,
        "brier": brier(probs, labels),
        "nll": nll(probs, labels),
        "error_rate": wrong / len(probs),
    }


def _retained_quality(decisions: DecisionTable, labels: np.ndarray) -> dict:
    """Selective row of the decisions against their aligned labels: the
    quality row of the retained ones, every value None when all of them
    abstained, with coverage and abstained from selective_error. A retained
    label is 1[p >= 0.5], so error_rate is selective_error's risk."""
    coverage = selective_error(decisions, labels)[0]
    retained = decisions.predicted >= 0
    if retained.any():
        quality = _quality_row(decisions.probs[retained], labels[retained])
    else:
        quality = dict.fromkeys(("auroc", "auprc", "ece", "brier", "nll", "error_rate"))
    return dict(quality, coverage=coverage, abstained=1.0 - coverage)


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


def _method_rows(result: PipelineResult, decisions: DecisionTable) -> dict:
    test_labels = result.test.labels
    raw_probs = sigmoid(result.test.logits)
    cal_probs = result.test_probs
    _check_monotone(result.test.logits, raw_probs, cal_probs)

    baseline = dict(_quality_row(raw_probs, test_labels), coverage=1.0, abstained=0.0)
    temp_scaled = dict(_quality_row(cal_probs, test_labels), coverage=1.0, abstained=0.0)
    return {
        "baseline": baseline,
        "temp_scaled": temp_scaled,
        "conformal_selective": _retained_quality(decisions, test_labels),
    }


def cmd_split(runner: _Runner, args: argparse.Namespace) -> int:
    data, manifest, text = _get_manifest(runner, args)
    split = _Split.of(manifest, text)
    sizes = " ".join(f"{part}={size}" for part, size in split.sizes.items())
    print(f"{split.protocol} split of {len(data)} examples: {sizes}")
    print(f"manifest fingerprint {split.fingerprint}")
    return 0


def _pipeline_inputs(
    runner: _Runner, args: argparse.Namespace
) -> tuple[_Split, Dataset, Dataset, TrainingSet | str]:
    """What the reports read of the split, and run_pipeline's arguments: the
    cal and test parts, and the train part encoded or the logit TSV.

    This frame holds the only references to the dataset, the manifest, its
    text and the train part, and lets each go once it is read: the first
    three when the parts are taken, before the train part is encoded, and
    the train part on return, before the vocabulary and the training matrix
    are built. None of them is passed to a call that outlasts that point,
    since before Python 3.11 a caller holds what it passes until the call
    returns.
    """
    scorer = runner.config.scorer
    data, manifest, text = _get_manifest(runner, args)
    split = _Split.of(manifest, text)
    if scorer.mode != "builtin":
        manifest.check_nonempty("cal", "test")
        cal, test = manifest.take(data, "cal", "test")
        return split, cal, test, scorer.logits_path
    manifest.check_nonempty("train", "cal", "test")
    cal, test, train = manifest.take(data, "cal", "test", "train")
    del data, manifest, text
    return split, cal, test, TrainingSet(train, scorer)


def _run_shared(
    runner: _Runner, args: argparse.Namespace
) -> tuple[_Split, PipelineResult, dict, str | None]:
    """The pipeline up to calibrated scores; with the split's report facts and
    the result, the provenance block and the builtin scorer's JSON text (None
    for external logits): serialized once, hashed here and written by run."""
    split, cal, test, scorer = _pipeline_inputs(runner, args)
    result = run_pipeline(cal, test, scorer)
    scorer_json = result.scorer_model.to_json() if result.scorer_model else None
    provenance = {
        "config": runner.config_fingerprint,
        "manifest": split.fingerprint,
        "scorer": None if scorer_json is None else _sha256(scorer_json),
        "calibration_ids": ids_fingerprint(result.cal.ids),
    }
    return split, result, provenance, scorer_json


def cmd_run(runner: _Runner, args: argparse.Namespace) -> int:
    split, result, provenance, scorer_json = _run_shared(runner, args)
    rule, decisions = select(result, runner.config.conformal.epsilon)
    if scorer_json is not None:
        runner.write_text("scorer.json", scorer_json)
    runner.write_json(
        "temperature.json",
        dict(result.temperature.to_json_dict(), provenance=provenance),
    )
    runner.write_json(
        "conformal_rule.json",
        dict(rule.to_json_dict(), provenance=provenance),
    )
    runner.write_table("decisions.tsv", decisions_to_tsv(decisions), provenance)
    table = ece(result.test_probs, result.test.labels)
    runner.write_table("reliability_test.csv", table.to_csv(), provenance)

    rows = _method_rows(result, decisions)
    report = {
        "config": runner.settings,
        "provenance": provenance,
        "split_sizes": split.sizes,
        "temperature": result.temperature.to_json_dict(),
        "conformal_rule": rule.to_json_dict(),
        "methods": rows,
    }
    runner.write_json("metrics.json", report)

    selective = rows["conformal_selective"]
    print(f"split {split.protocol}: test={len(result.test)} examples")
    print(
        f"temperature {result.temperature.temperature:.4f} "
        f"(nll {result.temperature.nll_before:.4f} -> {result.temperature.nll_after:.4f})"
    )
    if rule.retain_all:
        print(f"epsilon {rule.epsilon}: retain-all (calibration set too small)")
    else:
        print(
            f"epsilon {rule.epsilon}: threshold {rule.threshold:.6f}"
            + (" (rule cannot abstain: threshold >= 0.5)" if rule.vacuous else "")
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
    split, result, provenance, _ = _run_shared(runner, args)
    curve = coverage_risk_sweep(
        result.test_probs,
        result.test.labels,
        grid=runner.config.sweep.grid,
        source=f"{split.protocol} test split",
    )
    runner.write_table("coverage_risk.csv", curve.to_csv(), provenance)
    runner.write_json(
        "sweep.json",
        {
            "config": runner.settings,
            "provenance": provenance,
            "curve": curve.to_json_dict(),
        },
    )
    for point in curve.points:
        risk = "-" if point.error_rate is None else f"{point.error_rate:.4f}"
        print(f"coverage {point.coverage:.2f}  error_rate {risk}")
    return 0


def cmd_score(runner: _Runner, args: argparse.Namespace) -> int:
    data, manifest, _ = _get_manifest(runner, args)
    manifest.check_nonempty("train")
    (train,) = manifest.take(data, "train")
    model = train_linear(train, runner.config.scorer)
    table = score(model, data)
    scorer_json = model.to_json()
    runner.write_text("scorer.json", scorer_json)
    export_logits(table, runner.out / "logits.tsv")
    runner.log("wrote logits.tsv")
    print(f"scored {len(table)} examples with model {_sha256(scorer_json)[:12]}")
    return 0


def _coverage_gap(mean: float, bound: float, standard_error: float) -> str:
    """Where a mean coverage lies against the guarantee. That bounds expected
    coverage, so the mean may miss it by Monte Carlo noise; CI and the
    benchmark allow 4 standard errors."""
    if mean >= bound:
        return "at or above the bound"
    if standard_error == 0:
        return "below the bound; with a standard error of 0 the gap cannot be judged as noise"
    gap = (bound - mean) / standard_error
    return (f"{gap:.1f} standard errors below the bound, {'within' if gap <= 4 else 'beyond'} "
            "the Monte Carlo noise limit of 4")


def cmd_simulate(runner: _Runner, args: argparse.Namespace) -> int:
    sim = runner.config.simulate
    if sim.sizes:
        rows = calibration_size_sweep(sim)
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
        result = coverage_experiment(sim)
        header = "trial,coverage"
        lines = [f"{trial},{coverage!r}" for trial, coverage in enumerate(result.coverages)]
        report = dict(asdict(result), mode="coverage_experiment")
        del report["coverages"]  # they are the rows of simulate.csv
        # expected coverage is at least k/(n_cal+1) >= 1 - epsilon, k the quantile index
        bound = quantile_index(result.n_cal, result.epsilon) / (result.n_cal + 1)
        standard_error = result.sd_coverage / math.sqrt(result.n_trials)
        summary = [
            f"mean coverage {result.mean_coverage:.4f} (standard error {standard_error:.4f}) "
            f"over {result.n_trials} trials (expected coverage guarantee >= {bound:.4f}); "
            + _coverage_gap(result.mean_coverage, bound, standard_error)
        ]
    runner.write_table("simulate.csv", "\n".join([header, *lines]) + "\n")
    runner.write_json("simulate.json", dict(report, config=runner.settings))
    print("\n".join(summary))
    return 0


def cmd_metrics(runner: _Runner, args: argparse.Namespace) -> int:
    decisions_path = Path(args.decisions)
    try:
        text = decisions_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        error = NotUtf8("decisions", decisions_path)
        decisions_from_tsv(error.head, head=True)  # a bad row above it is named first
        raise error from None
    decisions = decisions_from_tsv(text)
    # an external decision file is not aligned with the dataset: join by id
    labels_by_id = _load_dataset(runner.config).labels_by_id()
    try:
        labels = np.array([labels_by_id[i] for i in decisions.ids], dtype=np.int8)
    except KeyError as err:
        raise ValueError(f"no label for id {err.args[0]!r}") from None
    retained = _retained_quality(decisions, labels)
    coverage, risk = retained["coverage"], retained["error_rate"]
    report = {
        "config": runner.settings,
        "decisions_file": str(decisions_path),
        "decisions_fingerprint": _sha256(text),
        "n_decisions": len(decisions),
        "coverage": coverage,
        "retained": retained,
    }
    runner.write_json("metrics_reeval.json", report)
    risk_text = "-" if risk is None else f"{risk:.4f}"
    print(f"coverage {coverage:.4f}  risk {risk_text}  ({len(decisions)} decisions)")
    return 0


# each command's handler, help summary, and the config sections it reads: its
# reports' config block, its setting flags, and whether dataset.path is required
_COMMANDS = {
    "split": (cmd_split, "write a train/cal/test manifest", ("dataset", "split")),
    "run": (cmd_run, "full pipeline: score, calibrate, decide",
            ("dataset", "split", "scorer", "conformal")),
    "sweep": (cmd_sweep, "coverage-risk curve over a grid",
              ("dataset", "split", "scorer", "sweep")),
    "simulate": (cmd_simulate, "synthetic coverage experiments", ("simulate",)),
    "score": (cmd_score, "train the builtin scorer, export logits", ("dataset", "split", "scorer")),
    "metrics": (cmd_metrics, "re-evaluate a saved decision TSV", ("dataset",)),
}

# each config section's setting flags: (flag, the dotted field it overrides,
# argparse keywords)
_FLAGS = {
    "dataset": (
        ("--dataset", "dataset.path", dict(help="input TSV corpus")),
        ("--columns", "dataset.columns",
         dict(help="rename input columns, e.g. cdr3b=beta,label=bound")),
    ),
    "split": (
        ("--protocol", "split.protocol", dict(choices=PROTOCOLS, help="split protocol")),
        ("--split-seed", "split.seed", dict(type=int, help="split shuffle seed")),
        ("--k-epitopes", "split.k_test_epitopes",
         dict(type=int, help="held-out test epitope count (epitope_held_out)")),
        ("--cal-fraction", "split.cal_fraction", dict(type=float, help=(
            "calibration share of non-test examples (epitope_held_out, distance_aware)"))),
    ),
    "scorer": (
        ("--scorer", "scorer.mode", dict(choices=SCORER_MODES, help="score source")),
        ("--logits", "scorer.logits_path", dict(help="external logit TSV (with --scorer logits)")),
        ("--kmer-size", "scorer.kmer_size",
         dict(type=int, help="k-mer size for the builtin scorer")),
        ("--mask-cdr3a", "scorer.include_cdr3a", dict(action="store_false", help=(
            "train the builtin scorer without the cdr3a field (scorer.include_cdr3a false)"))),
    ),
    "conformal": (("--epsilon", "conformal.epsilon", dict(type=float, help="target error level")),),
    "sweep": (("--grid", "sweep.grid", dict(help="comma-separated coverage targets")),),
    "simulate": (
        ("--trials", "simulate.n_trials", dict(type=int, help="number of seeded trials")),
        ("--sizes", "simulate.sizes", dict(help="comma-separated calibration sizes")),
        ("--epsilon", "simulate.epsilon", dict(type=float, help="target error level")),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a command takes the flags of each section it
    reads, and --manifest with scorer. A setting flag's dest is the dotted config
    field it overrides; absent, it sets nothing."""
    parser = argparse.ArgumentParser(
        prog="tcrselect",
        description="Calibrated selective prediction for TCR/peptide binding pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, sections) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        command.add_argument("--config", help="JSON config file")
        command.add_argument("--out", dest="output_dir", help="output directory")
        for section in sections:
            for flag, dest, keywords in _FLAGS[section]:
                command.add_argument(flag, dest=dest, **keywords)
        if "scorer" in sections:
            command.add_argument("--manifest", help="reuse an existing manifest JSON")
    sub.choices["metrics"].add_argument(
        "--decisions", required=True, help="decisions.tsv to re-evaluate"
    )
    return parser


def _list_flag(flag: str, text: str, parse: Callable[[str], object], expected: str) -> list:
    """The comma-separated items of a flag value, each parsed."""
    items = []
    for item in text.split(","):
        try:
            items.append(parse(item))
        except ValueError:
            raise ConfigError(f"{flag}: expected {expected}, got {item!r}") from None
    return items


def _column_pair(item: str) -> tuple[str, str]:
    field, _, name = item.partition("=")
    if not name:
        raise ValueError(item)
    return field.strip(), name.strip()


# the text flags, by config field: parsed after argparse, so that a bad item
# is a config error naming the flag and the item
_TEXT_FLAGS = {
    "dataset.columns": lambda text: dict(_list_flag("--columns", text, _column_pair, "field=name")),
    "sweep.grid": lambda text: _list_flag("--grid", text, float, "a number"),
    "simulate.sizes": lambda text: _list_flag("--sizes", text, int, "an integer"),
}
# the parsed arguments that name no config field
_NOT_SETTINGS = ("command", "config", "manifest", "decisions")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {dest: value for dest, value in vars(args).items() if dest not in _NOT_SETTINGS}
    for dest, parse in _TEXT_FLAGS.items():
        if dest in overrides:
            overrides[dest] = parse(overrides[dest])
    # --scorer builtin picks the builtin scorer over a config file's logit file
    if overrides.get("scorer.mode") == "builtin":
        overrides.setdefault("scorer.logits_path", None)
    return overrides


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one stderr line, without its source file and code line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner: _Runner | None = None
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            config = load_config(getattr(args, "config", None), _overrides_from_args(args))
            handler, _, sections = _COMMANDS[args.command]
            # checked before the output directory is made
            if "dataset" in sections and config.dataset.path is None:
                raise ConfigError("dataset.path: required for this command")
            if args.command == "score" and config.scorer.mode != "builtin":
                raise ConfigError(
                    f"scorer.mode: score trains the builtin scorer, got {config.scorer.mode!r}"
                )
            runner = _Runner(config, sections)
            runner.log(f"command {args.command} started")
            runner.log(f"full config {json.dumps(config.to_dict(), sort_keys=True)}")
            code = handler(runner, args)
            runner.log(f"command {args.command} finished with code {code}{_usage()}")
            return code
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        except (ValueError, OSError, RuntimeError) as err:
            print(f"error: {err}", file=sys.stderr)
            if runner is not None:
                # the stderr line is the report; a log that cannot take the
                # failure line is left as it is
                with contextlib.suppress(OSError):
                    runner.log(f"command {args.command} failed with code 1: {err}")
            return 1


if __name__ == "__main__":
    sys.exit(main())
