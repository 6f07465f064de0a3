"""Output byte pins: the pinned commands, their hashes, and an update mode.

output_pins.json holds the sha256 of the manifest that each `split` case
writes, and of stdout and every file but run_log.txt for each command whose
outputs hold floats. tests/test_cli.py checks both. After a change that moves
output bytes on purpose, rewrite the file with

    PYTHONPATH=src python tests/output_pins.py --update

so that the diff of output_pins.json shows every output that moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from tcrselect.cli import main
from tcrselect.toycorpus import toy_dataset_path

PINS_PATH = Path(__file__).parent / "output_pins.json"

# the split flags of each pinned case; epitope_disjoint_cal also loads a config
SPLIT_CASES = {
    "random": ["--protocol", "random"],
    "epitope_held_out": ["--protocol", "epitope_held_out", "--k-epitopes", "2"],
    "epitope_disjoint_cal": ["--protocol", "epitope_held_out", "--k-epitopes", "2"],
    "distance_aware": ["--protocol", "distance_aware"],
}
SPLIT_SEEDS = ("0", "1", "13")

# commands whose outputs hold floats, run in this order from one working
# directory: the config fingerprint hashes the settings each command reads,
# which hold dataset.path for all but simulate and scorer.logits_path for run
# and sweep, so every path is relative. sweep-logits reads the logits that
# score wrote, and run-manifest and metrics read what run-random wrote.
FLOAT_CASES = {
    "simulate": ["simulate", "--trials", "20"],
    "simulate-sizes": ["simulate", "--sizes", "50,200", "--trials", "15"],
    "run-random": ["run", "--dataset", "toy.tsv", "--protocol", "random"],
    "run-epitope": ["run", "--dataset", "toy.tsv", "--protocol", "epitope_held_out",
                    "--k-epitopes", "2"],
    "run-distance": ["run", "--dataset", "toy.tsv", "--protocol", "distance_aware"],
    "run-manifest": ["run", "--dataset", "toy.tsv", "--protocol", "random",
                     "--manifest", "run-random/manifest.json"],
    "score": ["score", "--dataset", "toy.tsv", "--protocol", "random"],
    "score-mask": ["score", "--dataset", "toy.tsv", "--protocol", "random", "--mask-cdr3a"],
    "sweep": ["sweep", "--dataset", "toy.tsv", "--protocol", "random"],
    "sweep-logits": ["sweep", "--dataset", "toy.tsv", "--protocol", "random",
                     "--scorer", "logits", "--logits", "score/logits.tsv"],
    "metrics": ["metrics", "--dataset", "toy.tsv", "--decisions", "run-random/decisions.tsv"],
}
# the cases that read an input file, and so also run on the inputs that the
# readers' per-row fallback reads: toy.tsv with CRLF line ends, and the
# logits of score with a blank line added
FILE_CASES = tuple(case for case in FLOAT_CASES if not case.startswith("simulate"))


def float_platform() -> dict:
    """What the float pins depend on: library versions, the SIMD targets
    numpy dispatches to on this CPU, and the C library."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "libc": list(platform.libc_ver()),
    }


def split_manifest_hash(workdir: Path, key: str) -> tuple[str, str]:
    """(sha256 of the manifest written, stdout) of one `split` case "<case>/<seed>"."""
    case, seed = key.split("/")
    out = workdir / key.replace("/", "-")
    argv = ["split", "--dataset", str(toy_dataset_path()), "--out", str(out),
            *SPLIT_CASES[case], "--split-seed", seed]
    if case == "epitope_disjoint_cal":
        config = workdir / "config.json"
        config.write_text(json.dumps({"split": {"epitope_disjoint_cal": True,
                                                "cal_fraction": 0.3}}))
        argv += ["--config", str(config)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0, key
    return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest(), stdout.getvalue()


def float_output_hashes(workdir: Path, fallback: bool = False) -> dict:
    """sha256 of stdout and of every file but run_log.txt, per FLOAT_CASES
    entry, with every command run from workdir. With fallback, only the
    FILE_CASES run, on a CRLF copy of toy.tsv and on score's logits with a
    blank line added, under the same relative names."""
    toy = toy_dataset_path().read_bytes()
    (workdir / "toy.tsv").write_bytes(toy.replace(b"\n", b"\r\n") if fallback else toy)
    hashes, cwd = {}, os.getcwd()
    os.chdir(workdir)
    try:
        for case in FILE_CASES if fallback else FLOAT_CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main([*FLOAT_CASES[case], "--out", case]) == 0, case
            hashes[case] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(case).iterdir()) if path.name != "run_log.txt"
            }
            hashes[case]["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            if fallback and case == "score":
                first, rest = Path("score/logits.tsv").read_text(encoding="utf-8").split("\n", 1)
                Path("score/logits.tsv").write_text(f"{first}\n\n{rest}", encoding="utf-8")
    finally:
        os.chdir(cwd)
    return hashes


def update() -> None:
    """Rewrite output_pins.json from the outputs of the working tree."""
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        split = {
            f"{case}/{seed}": split_manifest_hash(workdir, f"{case}/{seed}")[0]
            for case in SPLIT_CASES for seed in SPLIT_SEEDS
        }
        (workdir / "float").mkdir()
        pins = {
            "float": float_output_hashes(workdir / "float"),
            "float_platform": float_platform(),
            "split": split,
        }
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite output_pins.json from the current outputs")
    parser.parse_args()
    update()
