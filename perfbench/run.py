"""tcrselect benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
src/ directory, never from an installed copy. Inputs are generated from the
seed before anything is timed. Each command then runs in a fresh child
process, one at a time (a closed loop with one client), with the worker
count left at its default of 1.

--trace 0 times the real `python3 -m tcrselect.cli` command until --seconds
is spent (at least twice, so repeated runs can be compared byte for byte)
and reports the end-to-end metrics of BENCHMARK.json. The runner and its
children share one core, and times are the children's CPU seconds rescaled
by a reference clock sampled on that core while each child runs
(refclock.py), so they follow the program rather than the shared host's
speed; wall-clock figures are printed and recorded beside them. --trace 1
alternates untraced and traced commands, then makes one counting pass, and
reports the per-layer metrics. Every command's outputs are checked; a command that exits
nonzero or fails a check counts as failed. failed_frac is failed/attempted.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A record of the machine, the child environment, input and output
sha256 and every sample goes to .perfbench_run/<workload>/record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refclock
from checks import check_outputs, fingerprints, sha256_file
from layers import layer_metrics
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
PERFBENCH = Path(__file__).resolve().parent

THREADS_ENV_VAR = "TCRSELECT_THREADS"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 9
MIN_COMMANDS = 2
CHILD_TIMEOUT_S = 150.0

# sha256 of the generated inputs at the default and held-out seeds
INPUT_PINS = PERFBENCH / "input_sha256.json"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_program():
    """Import tcrselect from this checkout's src/, or fail."""
    if not (SRC / "tcrselect" / "cli.py").is_file():
        raise BenchmarkError(f"no tcrselect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tcrselect.cli  # noqa: F401  (fails loudly if the package is broken)

    if Path(tcrselect.cli.__file__).resolve().parent != (SRC / "tcrselect").resolve():
        raise BenchmarkError(f"tcrselect imported from {tcrselect.cli.__file__}")


# cores this process may use, counted before it pins itself to one of them
NPROC = len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The environment every child runs with: src/ on the path, bytecode
    caching on, the worker count at its default and BLAS on one thread.

    The program is serial; a BLAS worker thread would spin on the core where
    the reference clock ticks and skew both (refclock.py)."""
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    # An installed package runs from cached bytecode; without this the import
    # would recompile every module on every run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _recorded_env(env: dict[str, str]) -> dict[str, str]:
    keys = {THREADS_ENV_VAR, *BLAS_THREAD_VARS}
    recorded = {k: v for k, v in env.items()
                if k in keys or k.startswith(("PYTHON", "LC_")) or k == "LANG"}
    recorded.setdefault(THREADS_ENV_VAR, "<unset>")
    return dict(sorted(recorded.items()))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


@dataclass
class Spawned:
    """One finished child: exit code, wall seconds, CPU seconds, CPU seconds
    at the reference clock's nominal speed (refclock.py), peak RSS in MB."""

    exit_code: int
    wall: float
    cpu: float
    norm: float
    rss_mb: float


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> Spawned:
    """Run one child to completion, sampling the reference clock meanwhile.

    The child inherits this process's single core (see pin_to_one_core), so
    the clock's ticks time the core the child runs on. CPU time and peak RSS
    come from os.wait4 on this child alone. A child still running after
    CHILD_TIMEOUT_S is killed and reported with its signal's exit code.
    """
    ticks: list[float] = []
    reaped = False
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            while True:
                ticks.append(refclock.tick())
                time.sleep(refclock.SAMPLE_INTERVAL_S)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    reaped = True
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    reaped = True
                    break
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Spawned(proc.returncode, wall, cpu, refclock.at_nominal_speed(cpu, ticks),
                   usage.ru_maxrss / 1024.0)


def pin_to_one_core() -> int:
    """Confine this process, and so every child it starts, to one core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def measure_setup(work: Path, env: dict) -> list[Spawned]:
    """Fresh interpreter plus `import tcrselect.cli`, SETUP_SAMPLES times after
    one warm-up run that also confirms which copy of the package loads."""
    log = work / "setup.log"
    code = "import tcrselect.cli; print(tcrselect.cli.__file__)"
    if spawn([sys.executable, "-c", code], work, env, log).exit_code != 0:
        raise BenchmarkError(f"import tcrselect.cli failed, see {log}")
    loaded = Path(log.read_text(encoding="utf-8").strip()).resolve()
    if loaded.parent != (SRC / "tcrselect").resolve():
        raise BenchmarkError(f"child imported tcrselect from {loaded}")
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = spawn([sys.executable, "-c", "import tcrselect.cli"], work, env, log)
        if child.exit_code != 0:
            raise BenchmarkError("import tcrselect.cli failed")
        samples.append(child)
    return samples


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pinned_input_problems(workload: str, seed: int, inputs: dict[str, str]) -> list[str]:
    pins = json.loads(INPUT_PINS.read_text(encoding="utf-8"))
    expected = pins.get(workload, {}).get(str(seed))
    if expected is None or expected == inputs:
        return []
    return [f"inputs for seed {seed} differ from {INPUT_PINS.name}: the workload "
            f"changed, so its figures are not comparable with earlier runs"]


class Command:
    """One run of the tcrselect CLI (untraced, traced or counting) and its checks."""

    def __init__(self, kind: str, index: int, prepared, work: Path, env: dict) -> None:
        self.kind = kind
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans_path = work / f"spans_{kind}_{index}.json"
        if kind == "untraced":
            argv = [sys.executable, "-m", "tcrselect.cli", *prepared.argv]
        else:
            mode = "time" if kind == "traced" else "count"
            argv = [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path),
                    mode, "--", *prepared.argv]
        child = spawn(argv, work, env, work / f"{kind}_{index}.log")
        self.exit_code, self.wall, self.cpu, self.norm, self.rss_mb = (
            child.exit_code, child.wall, child.cpu, child.norm, child.rss_mb)
        self.problems = check_outputs(prepared, out, self.exit_code)
        self.fingerprints = fingerprints(out)
        self.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        self.trace = None
        if kind != "untraced":
            if spans_path.is_file():
                self.trace = json.loads(spans_path.read_text(encoding="utf-8"))
            else:
                self.problems.append("traced run wrote no spans")

    def compare(self, reference: "Command") -> None:
        names = sorted(set(self.fingerprints) | set(reference.fingerprints))
        differing = [name for name in names
                     if self.fingerprints.get(name) != reference.fingerprints.get(name)]
        if differing:
            self.problems.append(
                f"{self.kind} outputs differ from the first untraced run: {differing}")

    def summary(self) -> dict:
        return {"kind": self.kind, "exit_code": self.exit_code, "wall_s": self.wall,
                "cpu_s": self.cpu, "norm_cpu_s": self.norm, "peak_rss_mb": self.rss_mb,
                "problems": self.problems, "output_sha256": self.fingerprints}


def _keep_going(steps: list[float], deadline: float, minimum: int) -> bool:
    """Start another step while fewer than minimum ran or a typical step
    still ends before the deadline."""
    if len(steps) < minimum:
        return True
    return time.perf_counter() + statistics.median(steps) <= deadline


def run_untraced(prepared, work: Path, env: dict, seconds: float) -> tuple[list, dict]:
    setup = measure_setup(work, env)
    commands: list[Command] = []
    deadline = time.perf_counter() + seconds
    while _keep_going([c.wall for c in commands], deadline, MIN_COMMANDS):
        command = Command("untraced", len(commands), prepared, work, env)
        if commands:
            command.compare(commands[0])
        commands.append(command)
    ok = [c for c in commands if not c.problems] or commands
    norm = statistics.median(c.norm for c in ok)
    wall = statistics.median(c.wall for c in ok)
    metrics = {
        "norm_cpu_s": norm,
        "norm_items_per_s": prepared.items / norm,
        "setup_s": statistics.median(s.norm for s in setup),
        "peak_rss_mb": statistics.median(c.rss_mb for c in ok),
        # wall-clock figures, printed and recorded but not gated: they move
        # with the host's speed (see refclock.py)
        "wall_s": wall,
        "items_per_s": prepared.items / wall,
    }
    return commands, {"metrics": metrics, "setup_samples": [
        {"wall_s": s.wall, "cpu_s": s.cpu, "norm_cpu_s": s.norm} for s in setup]}


def run_traced(prepared, workload, work: Path, env: dict, seconds: float) -> tuple[list, dict]:
    commands: list[Command] = []
    untraced: list[Command] = []
    traced: list[Command] = []
    deadline = time.perf_counter() + seconds
    while _keep_going([p.wall + t.wall for p, t in zip(untraced, traced)], deadline, 1):
        plain = Command("untraced", len(untraced), prepared, work, env)
        if untraced:
            plain.compare(untraced[0])
        untraced.append(plain)
        spanned = Command("traced", len(traced), prepared, work, env)
        spanned.compare(untraced[0])
        traced.append(spanned)
        commands += [plain, spanned]
    counting = Command("counting", 0, prepared, work, env)
    counting.compare(untraced[0])
    commands.append(counting)

    samples = []
    for spanned in traced:
        if spanned.trace is not None and counting.trace is not None:
            samples.append(layer_metrics(spanned.trace, counting.trace,
                                         spanned.bytes_written))
    if not samples:
        raise BenchmarkError("no traced run produced spans; see the logs in " + str(work))
    metrics = {}
    for name in samples[0]:
        values = [sample[name] for sample in samples]
        exact = all(isinstance(value, int) for value in values)
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    plain = statistics.median(c.norm for c in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(c.norm for c in traced) - plain) / plain
    metrics["trace.dominant_share"] = (
        sum(metrics[name] for name in workload.dominant) / metrics["cli.main_s"]
        if metrics["cli.main_s"] else 0.0)
    missing = sorted({m for c in traced + [counting] if c.trace
                      for m in c.trace["missing_targets"]})
    count_errors = sorted({f"{s['name']}: {s['count_error']}"
                           for c in traced + [counting] if c.trace
                           for s in c.trace["spans"] if "count_error" in s})
    return commands, {"metrics": metrics, "missing_targets": missing,
                      "count_errors": count_errors, "counters": counting.trace["counters"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Prepare inputs, measure, check; return the result and write the record."""
    _load_program()
    workload = WORKLOADS[workload_name]
    benchmark = _load_benchmark()
    work = WORK / (workload_name + ("-tiny" if tiny else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    prepared = workload.prepare(work, seed, workload.tiny_sizes if tiny else workload.sizes)
    inputs = {name: sha256_file(work / name) for name in prepared.input_files}
    problems = [] if tiny else _pinned_input_problems(workload_name, seed, inputs)
    env = child_env()
    core = pin_to_one_core()

    if trace:
        commands, details = run_traced(prepared, workload, work, env, seconds)
        declared = benchmark["per_layer"]
    else:
        commands, details = run_untraced(prepared, work, env, seconds)
        declared = benchmark["end_to_end"]
    values = details.pop("metrics")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed = sum(1 for c in commands if c.problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "rationale": workload.rationale, "layers": workload.layers,
        "item_unit": workload.item_unit, "items": prepared.items,
        "machine": machine(), "pinned_core": core, "child_env": _recorded_env(env),
        "argv": prepared.argv, "input_sha256": inputs, "problems": problems,
        "commands": [c.summary() for c in commands], **details,
        "all_metrics": values, "result": result,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"result": result, "record": record, "work": work}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    result, record = outcome["result"], outcome["record"]
    for command in record["commands"]:
        for problem in command["problems"]:
            print(f"FAILED {command['kind']}: {problem}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if not record["trace"]:
        for name, unit in (("wall_s", "s"), ("items_per_s", "items/s")):
            print(f"{name} {record['all_metrics'][name]!r} {unit} (wall clock, not gated)")
    print(f"failed_frac {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    for key in ("missing_targets", "count_errors"):
        if record.get(key):
            print(f"trace {key}: {record[key]}")
    print(f"record {outcome['work'] / 'record.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
