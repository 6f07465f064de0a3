"""Output checks behind failed_frac, and the fingerprints of deterministic outputs."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Prepared

# The reports the CLI promises are byte-identical for a fixed input and config.
FINGERPRINTED = ("manifest.json", "decisions.tsv", "metrics.json", "sweep.json",
                 "simulate.json")

# Mean coverage over independent trials may miss 1 - epsilon by this many
# standard errors before the run counts as failed.
COVERAGE_Z = 4.0


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fingerprints(out: Path) -> dict[str, str]:
    return {name: sha256_file(out / name) for name in FINGERPRINTED
            if (out / name).is_file()}


def _check_manifest(out: Path, expected_ids: list[str]) -> tuple[list[str], int]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    parts = [set(manifest[key]) for key in ("train_ids", "cal_ids", "test_ids")]
    problems = []
    if sum(len(part) for part in parts) != len(parts[0] | parts[1] | parts[2]):
        problems.append("manifest parts overlap")
    union = parts[0] | parts[1] | parts[2]
    expected = set(expected_ids)
    if union != expected:
        problems.append(
            f"manifest covers {len(union)} ids, expected {len(expected)} "
            f"({len(union - expected)} extra, {len(expected - union)} missing)"
        )
    return problems, len(parts[2])


def _decision_rows(path: Path) -> int:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return len(lines) - 1  # header


def _check_coverage(out: Path) -> list[str]:
    """Mean coverage within a Monte Carlo tolerance of 1 - epsilon.

    Per trial, the expected coverage lies in [1 - eps, 1 - eps + 1/(n_cal+1)];
    the tolerance adds COVERAGE_Z standard errors from the run's own sd.
    """
    report = json.loads((out / "simulate.json").read_text(encoding="utf-8"))
    target = 1.0 - report["epsilon"]
    stderr = report["sd_coverage"] / math.sqrt(report["n_trials"])
    low = target - COVERAGE_Z * stderr
    high = target + 1.0 / (report["n_cal"] + 1) + COVERAGE_Z * stderr
    mean = report["mean_coverage"]
    if not low <= mean <= high:
        return [f"mean coverage {mean!r} outside [{low:.6f}, {high:.6f}]"]
    return []


def check_outputs(prepared: Prepared, out: Path, exit_code: int) -> list[str]:
    """Problems with one command's outputs; empty when the command is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in prepared.output_files if not (out / name).is_file()]
    if missing:
        return [f"missing output(s) {missing}"]
    problems: list[str] = []
    try:
        if prepared.expected_ids is not None:
            manifest_problems, test_size = _check_manifest(out, prepared.expected_ids)
            problems += manifest_problems
            if prepared.check_decisions:
                rows = _decision_rows(out / "decisions.tsv")
                if rows != test_size:
                    problems.append(f"decisions.tsv has {rows} rows, test size {test_size}")
        if prepared.check_coverage:
            problems += _check_coverage(out)
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"malformed output: {type(err).__name__}: {err}")
    return problems
