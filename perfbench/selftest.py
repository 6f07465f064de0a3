"""Fast self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced: each metric BENCHMARK.json names is
emitted with its unit, every command passes its output checks, and traced,
counting and untraced runs leave identical output fingerprints. The traced
run is made twice and its counts must repeat exactly. Last, the benchmark
copied without the program must exit nonzero and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as bench
from workloads import DEFAULT_SEED, WORKLOADS


def _check_result(name: str, trace: bool, outcome: dict, declared: list[dict]) -> list[str]:
    result = outcome["result"]
    problems = []
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if emitted != wanted:
        problems.append(f"{name} trace={trace}: metrics/units {emitted} != {wanted}")
    if not result["correct"] or result["failed"]:
        failures = [c["problems"] for c in outcome["record"]["commands"] if c["problems"]]
        problems.append(f"{name} trace={trace}: not correct: {failures}"
                        f" {outcome['record']['problems']}")
    prints = {json.dumps(c["output_sha256"], sort_keys=True)
              for c in outcome["record"]["commands"]}
    if len(prints) != 1:
        problems.append(f"{name} trace={trace}: output fingerprints differ across runs")
    return problems


def _counts(outcome: dict, units: dict[str, str]) -> dict:
    """The per-layer metrics that are not timings, which must repeat exactly."""
    return {name: value for name, value in outcome["record"]["all_metrics"].items()
            if units[name] != "s" and not name.startswith("trace.")}


def _bare_directory_fails() -> list[str]:
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.PERFBENCH, bare / bench.PERFBENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bare / bench.PERFBENCH.name / "run.py"),
         "--workload", "simulate_coverage", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["without src/ the benchmark still printed a result or exited 0"]
    return []


def main() -> int:
    benchmark = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    problems = []
    for name in WORKLOADS:
        untraced = bench.run(name, DEFAULT_SEED, 0.0, trace=False, tiny=True)
        problems += _check_result(name, False, untraced, benchmark["end_to_end"])
        first = bench.run(name, DEFAULT_SEED, 0.0, trace=True, tiny=True)
        second = bench.run(name, DEFAULT_SEED, 0.0, trace=True, tiny=True)
        for outcome in (first, second):
            problems += _check_result(name, True, outcome, benchmark["per_layer"])
        if _counts(first, units) != _counts(second, units):
            problems.append(f"{name}: counts differ between traced runs: "
                            f"{_counts(first, units)} != {_counts(second, units)}")
        print(f"{name}: checked", flush=True)
    problems += _bare_directory_fails()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
