"""Command-line interface, exercised in-process through main(argv)."""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcrselect
from output_pins import (
    FILE_CASES,
    FLOAT_CASES,
    PINS_PATH,
    float_output_hashes,
    float_platform,
    split_manifest_hash,
)
from tcrselect.calibration import TemperatureModel, apply_temperature
from tcrselect.cli import _COMMANDS, _check_monotone, _method_rows, _Runner, build_parser, main
from tcrselect.config import ConfigError, RunConfig, load_config
from tcrselect.conformal import ConformalRule, PipelineResult, decide
from tcrselect.data import Dataset, export_tsv, ingest_tsv
from tcrselect.scorer import ScoreTable, sigmoid
from tcrselect.splits import SplitManifest
from tcrselect.toycorpus import motif_corpus, toy_dataset_path

RUN_OUTPUTS = (
    "manifest.json",
    "scorer.json",
    "temperature.json",
    "conformal_rule.json",
    "decisions.tsv",
    "reliability_test.csv",
    "metrics.json",
    "run_log.txt",
)


def run_args(out, extra=()):
    return [
        "run",
        "--dataset", str(toy_dataset_path()),
        "--out", str(out),
        "--protocol", "random",
        "--epsilon", "0.2",
        *extra,
    ]


class TestExitCodes:
    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_nonexistent_dataset_file(self, tmp_path, capsys):
        code = main(
            ["run", "--dataset", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_columns_flag(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--dataset", str(toy_dataset_path()),
                "--out", str(tmp_path / "o"),
                "--columns", "no-equals-sign",
            ]
        )
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"conformal": {"epsilonn": 0.1}}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_infeasible_protocol_is_runtime_error(self, tmp_path, capsys):
        # bundled corpus has 8 epitopes, so holding out 15 cannot work
        code = main(
            [
                "run",
                "--dataset", str(toy_dataset_path()),
                "--out", str(tmp_path / "o"),
                "--protocol", "epitope_held_out",
                "--k-epitopes", "15",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            json.dumps({"protocol": "random", "seed": 0, "parameters": {}}),
            json.dumps({
                "protocol": "random", "seed": 0, "parameters": {},
                "train_ids": 5, "cal_ids": [], "test_ids": [],
            }),
        ],
        ids=["not-json", "not-object", "missing-keys", "ids-not-list"],
    )
    def test_malformed_manifest_is_one_line_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        code = main(run_args(tmp_path / "o", ("--manifest", str(manifest))))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "score"])
    @pytest.mark.parametrize("drop", ["dataset-id", "manifest-id"])
    def test_manifest_must_cover_dataset(self, tmp_path, capsys, command, drop):
        ids = [ex.id for ex in ingest_tsv(toy_dataset_path())]
        parts = {"train_ids": ids[:120], "cal_ids": ids[120:160], "test_ids": ids[160:]}
        if drop == "dataset-id":
            parts["test_ids"] = ids[160:-3]
        else:
            parts["test_ids"] = ids[160:] + ["not-in-dataset"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"protocol": "random", "seed": 0, "parameters": {}, **parts}
        ))
        code = main([
            command,
            "--dataset", str(toy_dataset_path()),
            "--out", str(tmp_path / "o"),
            "--manifest", str(manifest),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_empty_test_part_fails_before_training(self, tmp_path, capsys, command):
        # no held-out epitope leaves the test part empty
        out = tmp_path / "o"
        argv = [command, "--dataset", str(toy_dataset_path()), "--out", str(out),
                "--protocol", "epitope_held_out", "--k-epitopes", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: the test part of the split is empty\n"
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "run_log.txt"]

    def test_split_writes_an_empty_test_part(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["split", "--dataset", str(toy_dataset_path()), "--out", str(out),
                "--protocol", "epitope_held_out", "--k-epitopes", "0"]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["test_ids"] == []

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        code = main(run_args(tmp_path / "o", ("--config", str(cfg))))
        assert code == 2
        assert capsys.readouterr().err == "config error: threads: unknown key\n"


TOY_HEADER = "id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
DECISIONS_HEADER = "example_id\tprob_calibrated\tnonconformity\tdecision\tpredicted_label\n"
TOY_IDS = ingest_tsv(toy_dataset_path()).ids
NAN, INF = float("nan"), float("inf")
# (input, file name, contents, expected exit code); each file replaces one
# good input of an otherwise working command
MALFORMED = {
    "corpus-bad-residue": ("corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASB\tGIL\tEP1\t1\n", 1),
    # str.upper would read these as CAS and CAFF: only a-z is uppercased
    "corpus-nonascii-residue": ("corpus", "c.tsv", TOY_HEADER + "a\tCAſ\tcaﬀ\tGIL\tEP1\t1\n", 1),
    "corpus-short-row": ("corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASS\n", 1),
    "corpus-no-label-column": ("corpus", "c.tsv", "id\tcdr3a\tcdr3b\tpeptide\tepitope\n", 1),
    "corpus-duplicate-id": (
        "corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASS\tGIL\tEP1\t1\n" * 2, 1,
    ),
    "corpus-huge-field": (
        "corpus", "c.tsv", TOY_HEADER + "a\t" + "A" * 200_000 + "\tCASS\tGIL\tEP1\t1\n", 1,
    ),
    "corpus-not-utf8": ("corpus", "c.tsv", TOY_HEADER.encode() + b"\xff\n", 1),
    # a bad row is named before a later line that does not decode
    "corpus-bad-row-then-not-utf8": (
        "corpus", "c.tsv", (TOY_HEADER + "a\tCAV\tCASB\tGIL\tEP1\t1\n").encode() + b"b\xff\n", 1,
    ),
    "corpus-id-with-tab": ("corpus", "c.tsv", TOY_HEADER + '"a\tb"\tCAV\tCASS\tGIL\tEP1\t1\n', 1),
    "corpus-epitope-with-newline": (
        "corpus", "c.tsv", TOY_HEADER + 'a\tCAV\tCASS\tGIL\t"EP\n1"\t1\n', 1,
    ),
    # "<kind>:<command> <flags>" runs that command with those flags in place of sweep
    "corpus-header-only-split-random": ("corpus:split --protocol random", "c.tsv", TOY_HEADER, 1),
    "corpus-header-only-split-epitope": (
        "corpus:split --protocol epitope_held_out", "c.tsv", TOY_HEADER, 1,
    ),
    "corpus-header-only-split-distance": (
        "corpus:split --protocol distance_aware", "c.tsv", TOY_HEADER, 1,
    ),
    "corpus-header-only-run": ("corpus:run", "c.tsv", TOY_HEADER, 1),
    # only the default id column may be missing, not one that --columns names
    "corpus-renamed-id-missing": (
        "corpus:split --columns id=sample", "c.tsv", TOY_HEADER + "a\tCAV\tCASS\tGIL\tEP1\t1\n", 1,
    ),
    "logits-three-fields": ("logits", "l.tsv", "ex00000\t0.5\t1\n", 1),
    "logits-unparseable": ("logits", "l.tsv", "ex00000\tabc\n", 1),
    "logits-missing-ids": ("logits", "l.tsv", "ex00000\t0.5\n", 1),
    "logits-not-utf8": ("logits", "l.tsv", b"\xef\xbb\xbfex00000\t0.5\r\nex00001\t0.\xff\r\n", 1),
    # a malformed line is named before a later line that does not decode
    "logits-bad-row-then-not-utf8": ("logits", "l.tsv", b"ex00000\t0.5\t3\n\xff\n", 1),
    "manifest-not-json": ("manifest", "m.json", "{not json", 1),
    "manifest-not-utf8": ("manifest", "m.json", b"\xff", 1),
    "manifest-duplicate-id": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": 0, "parameters": {},
        "train_ids": [*TOY_IDS[:120], TOY_IDS[0]], "cal_ids": TOY_IDS[120:160],
        "test_ids": TOY_IDS[160:],
    }), 1),
    "manifest-overlap": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": 0, "parameters": {},
        "train_ids": TOY_IDS[:120], "cal_ids": [*TOY_IDS[120:160], TOY_IDS[7]],
        "test_ids": TOY_IDS[160:],
    }), 1),
    "manifest-id-not-string": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": 0, "parameters": {},
        "train_ids": TOY_IDS[:120], "cal_ids": TOY_IDS[120:160], "test_ids": [1],
    }), 1),
    "manifest-id-null": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": 0, "parameters": {},
        "train_ids": TOY_IDS[:120], "cal_ids": TOY_IDS[120:160], "test_ids": [None, 3],
    }), 1),
    "manifest-seed-string": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": "0", "parameters": {},
        "train_ids": TOY_IDS[:120], "cal_ids": TOY_IDS[120:160], "test_ids": TOY_IDS[160:],
    }), 1),
    "manifest-seed-bool": ("manifest", "m.json", json.dumps({
        "protocol": "random", "seed": True, "parameters": {},
        "train_ids": TOY_IDS[:120], "cal_ids": TOY_IDS[120:160], "test_ids": TOY_IDS[160:],
    }), 1),
    "config-not-json": ("config", "cfg.json", "{not json", 2),
    "config-not-utf8": ("config", "cfg.json", b"{\"a\": \"\xff\"}", 2),
    "config-not-object": ("config", "cfg.json", json.dumps({"conformal": 3}), 2),
    "config-bad-protocol": ("config", "cfg.json", json.dumps({"split": {"protocol": "x"}}), 2),
    "config-epsilon-string": ("config", "cfg.json", json.dumps({"conformal": {"epsilon": "x"}}), 2),
    "config-grid-null": ("config", "cfg.json", json.dumps({"sweep": {"grid": [None]}}), 2),
    "config-epochs-float": ("config", "cfg.json", json.dumps({"scorer": {"epochs": 1.5}}), 2),
    "config-epochs-bool": ("config", "cfg.json", json.dumps({"scorer": {"epochs": True}}), 2),
    "config-l2-string": ("config", "cfg.json", json.dumps({"scorer": {"l2": "x"}}), 2),
    "config-rate-string": (
        "config", "cfg.json",
        json.dumps({"dataset": {"negatives": {"target_positive_rate": "x"}}}), 2,
    ),
    "config-learning-rate-removed": (
        "config", "cfg.json", json.dumps({"scorer": {"learning_rate": 0.1}}), 2,
    ),
    "config-kmer-string": ("config", "cfg.json", json.dumps({"scorer": {"kmer_size": "3"}}), 2),
    "config-two-fractions": (
        "config", "cfg.json", json.dumps({"split": {"fractions": [0.5, 0.5]}}), 2,
    ),
    # range checks of the stage types run at load, before any file is read
    "config-kmer-zero": ("config", "cfg.json", json.dumps({"scorer": {"kmer_size": 0}}), 2),
    "config-ncal-zero": ("config", "cfg.json", json.dumps({"simulate": {"n_cal": 0}}), 2),
    # numpy's seeding rejects it only after the output directory exists
    "config-simulate-negative-seed": (
        "config:simulate", "cfg.json", json.dumps({"simulate": {"seed": -1}}), 2,
    ),
    "config-fractions-sum": (
        "config", "cfg.json", json.dumps({"split": {"fractions": [0.5, 0.5, 0.5]}}), 2,
    ),
    "config-fractions-negative": (
        "config", "cfg.json", json.dumps({"split": {"fractions": [1.2, -0.2, 0.0]}}), 2,
    ),
    "config-k-epitopes-negative": (
        "config", "cfg.json", json.dumps({"split": {"k_test_epitopes": -1}}), 2,
    ),
    "config-ceiling-one": ("config", "cfg.json", json.dumps({"split": {"identity_ceiling": 1}}), 2),
    "config-test-fraction-zero": (
        "config", "cfg.json", json.dumps({"split": {"test_fraction": 0}}), 2,
    ),
    "config-dedup-identity-high": (
        "config", "cfg.json", json.dumps({"dataset": {"dedup_identity": 1.5}}), 2,
    ),
    "config-dedup-identity-zero": (
        "config", "cfg.json", json.dumps({"dataset": {"dedup_identity": 0.0}}), 2,
    ),
    "config-negatives-rate": (
        "config", "cfg.json",
        json.dumps({"dataset": {"negatives": {"target_positive_rate": 1.5}}}), 2,
    ),
    "config-columns-unknown-key": (
        "config", "cfg.json", json.dumps({"dataset": {"columns": {"epitope": "x"}}}), 2,
    ),
    "config-grid-empty": ("config", "cfg.json", json.dumps({"sweep": {"grid": []}}), 2),
    "config-bad-scorer-mode": ("config", "cfg.json", json.dumps({"scorer": {"mode": "x"}}), 2),
    # a flag that sets a field must not replace a section given as a non-object
    "config-dataset-not-object": ("config", "cfg.json", json.dumps({"dataset": 7}), 2),
    "config-section-not-object-with-flag": (
        "config:sweep --split-seed 3", "cfg.json", json.dumps({"split": "x"}), 2,
    ),
    # the draw-shape checks run before the experiment checks
    "config-simulate-two-errors": (
        "config:simulate", "cfg.json",
        json.dumps({"simulate": {"miscalibration_temperature": 0, "n_trials": 0}}), 2,
    ),
    # a valid config whose split leaves nothing to train the built-in scorer on
    "config-empty-train-part-run": (
        "config:run", "cfg.json", json.dumps({"split": {"fractions": [0.0, 0.5, 0.5]}}), 1,
    ),
    "config-empty-train-part-score": (
        "config:score", "cfg.json", json.dumps({"split": {"fractions": [0.0, 0.5, 0.5]}}), 1,
    ),
    # json reads NaN and Infinity; a comparison that NaN fails must reject them
    "config-l2-nan": ("config", "cfg.json", json.dumps({"scorer": {"l2": NAN}}), 2),
    "config-rate-nan": (
        "config", "cfg.json",
        json.dumps({"dataset": {"negatives": {"target_positive_rate": NAN}}}), 2,
    ),
    "config-l2-infinity": ("config", "cfg.json", json.dumps({"scorer": {"l2": INF}}), 2),
    "config-fractions-nan": (
        "config", "cfg.json", json.dumps({"split": {"fractions": [0.7, NAN, 0.3]}}), 2,
    ),
    "config-temperature-nan": (
        "config", "cfg.json", json.dumps({"simulate": {"miscalibration_temperature": NAN}}), 2,
    ),
    "config-temperature-infinity": (
        "config", "cfg.json", json.dumps({"simulate": {"miscalibration_temperature": INF}}), 2,
    ),
    "decisions-bad-header": ("decisions", "d.tsv", "x\ty\n", 1),
    "decisions-not-utf8": (
        "decisions", "d.tsv",
        (DECISIONS_HEADER + "a\t0.75\t0.25\tpredict\t1\n").encode() + b"\xc3\n", 1,
    ),
    "decisions-bad-row-then-not-utf8": (
        "decisions", "d.tsv",
        (DECISIONS_HEADER + "a\t2\t0.1\tpredict\t1\n").encode() + b"\xc3\n", 1,
    ),
    # lines without a row above the bad line are no "no decision rows" error
    "decisions-comment-then-not-utf8": ("decisions", "d.tsv", b"# origin=test\n\xc3\n", 1),
    "decisions-bad-prob": ("decisions", "d.tsv", DECISIONS_HEADER + "a\tabc\t0.1\tpredict\t1\n", 1),
    "decisions-nan-prob": ("decisions", "d.tsv", DECISIONS_HEADER + "a\tnan\t0.1\tpredict\t1\n", 1),
    "decisions-bad-nonconformity": (
        "decisions", "d.tsv", DECISIONS_HEADER + "a\t0.9\tx\tpredict\t1\n", 1,
    ),
    # decisions_to_tsv writes a nonconformity in [0, 0.5] only
    "decisions-nan-nonconformity": (
        "decisions", "d.tsv", DECISIONS_HEADER + "a\t0.9\tnan\tpredict\t1\n", 1,
    ),
    "decisions-repeated-id": (
        "decisions", "d.tsv",
        DECISIONS_HEADER + "# note\n" + "a\t0.75\t0.25\tpredict\t1\n" * 2, 1,
    ),
    # decide derives the label and the nonconformity from the probability; a
    # dataset id, so that metrics would score the row if the parser let it by
    "decisions-label-contradicts-prob": (
        "decisions", "d.tsv",
        DECISIONS_HEADER + f"{TOY_IDS[0]}\t0.9\t0.09999999999999998\tpredict\t0\n", 1,
    ),
    "decisions-nonconformity-contradicts-prob": (
        "decisions", "d.tsv", DECISIONS_HEADER + f"{TOY_IDS[0]}\t0.9\t0.05\tpredict\t1\n", 1,
    ),
    "decisions-bad-decision": ("decisions", "d.tsv", DECISIONS_HEADER + "a\t0.9\t0.1\tmaybe\t1\n", 1),
    "decisions-predict-minus-one": (
        "decisions", "d.tsv", DECISIONS_HEADER + "a\t0.9\t0.1\tpredict\t-1\n", 1,
    ),
    "decisions-predict-seven": (
        "decisions", "d.tsv", DECISIONS_HEADER + "a\t0.9\t0.1\tpredict\t7\n", 1,
    ),
    "decisions-abstain-with-label": (
        "decisions", "d.tsv", DECISIONS_HEADER + "a\t0.6\t0.4\tabstain\t1\n", 1,
    ),
    # a flag value instead of a file, which is not written: (command, flag, value)
    "flag-grid-not-number": ("flag", "-", ("sweep", "--grid", "a,b"), 2),
    "flag-grid-out-of-range": ("flag", "-", ("sweep", "--grid", "1.5,0.5"), 2),
    "flag-grid-empty": ("flag", "-", ("sweep", "--grid", ""), 2),
    "flag-sizes-empty": ("flag", "-", ("simulate", "--sizes", ""), 2),
    "flag-columns-empty": ("flag", "-", ("sweep", "--columns", ""), 2),
    "flag-sizes-not-integer": ("flag", "-", ("simulate", "--sizes", "1.5"), 2),
    "flag-epsilon-out-of-range": ("flag", "-", ("run", "--epsilon", "1.5"), 2),
    "flag-simulate-epsilon-zero": ("flag", "-", ("simulate", "--epsilon", "0"), 2),
    "flag-trials-zero": ("flag", "-", ("simulate", "--trials", "0"), 2),
    "flag-sizes-zero": ("flag", "-", ("simulate", "--sizes", "0,100"), 2),
    "flag-cal-fraction-out-of-range": ("flag", "-", ("split", "--cal-fraction", "1.5"), 2),
    "flag-logits-without-path": ("flag", "-", ("sweep", "--scorer", "logits"), 2),
    # a score source that the command would leave unread: score trains the
    # builtin scorer, and the builtin scorer reads no logit file
    "flag-logits-under-builtin": ("flag", "-", ("run", "--logits", "l.tsv"), 2),
    "flag-score-logits-under-builtin": ("flag", "-", ("score", "--logits", "l.tsv"), 2),
    # score --scorer logits --logits l.tsv, whose logit file stays unread
    "logits-score": ("logits:score", "l.tsv", "ex00000\t0.5\n", 2),
    "config-logits-path-under-builtin": (
        "config", "cfg.json", json.dumps({"scorer": {"logits_path": "l.tsv"}}), 2,
    ),
    # --logits beside --scorer builtin is unread too, though --scorer builtin
    # clears a config file's logit file
    "flag-logits-with-builtin-flag": (
        "config:run --scorer builtin --logits l.tsv", "cfg.json",
        json.dumps({"scorer": {"mode": "logits", "logits_path": "l.tsv"}}), 2,
    ),
    "config-score-logits-mode": (
        "config:score", "cfg.json",
        json.dumps({"scorer": {"mode": "logits", "logits_path": "l.tsv"}}), 2,
    ),
    # a command that reads a dataset, run without --dataset; metrics gets a
    # decisions file that it never reads
    "no-dataset-split": ("no-dataset:split", "-", None, 2),
    "no-dataset-run": ("no-dataset:run", "-", None, 2),
    "no-dataset-sweep": ("no-dataset:sweep", "-", None, 2),
    "no-dataset-score": ("no-dataset:score", "-", None, 2),
    "no-dataset-metrics": (
        "no-dataset:metrics", "d.tsv", DECISIONS_HEADER + "a\t0.9\t0.1\tpredict\t1\n", 2,
    ),
}
# the exact stderr of the cases whose message is part of the interface, with
# {path} standing for the malformed file
MALFORMED_MESSAGES = {
    "decisions-predict-seven": "error: decisions line 2: expected predict with "
    "predicted_label 0 or 1, or abstain with none, got 'predict' with '7'\n",
    "flag-grid-not-number": "config error: --grid: expected a number, got 'a'\n",
    "flag-grid-out-of-range": "config error: sweep: coverage targets must be in (0, 1], got 1.5\n",
    "config-grid-empty": "config error: sweep: grid is empty\n",
    "flag-sizes-not-integer": "config error: --sizes: expected an integer, got '1.5'\n",
    "flag-grid-empty": "config error: --grid: expected a number, got ''\n",
    "flag-sizes-empty": "config error: --sizes: expected an integer, got ''\n",
    "flag-columns-empty": "config error: --columns: expected field=name, got ''\n",
    "config-kmer-zero": "config error: scorer: kmer_size must be >= 1\n",
    "config-ncal-zero": "config error: simulate: n_cal and n_test must be >= 1\n",
    "config-simulate-negative-seed": "config error: simulate: seed must be >= 0\n",
    "flag-epsilon-out-of-range": "config error: conformal: epsilon must be in (0, 1)\n",
    "flag-simulate-epsilon-zero": "config error: simulate: epsilon must be in (0, 1)\n",
    "flag-trials-zero": "config error: simulate: n_trials must be >= 1\n",
    "flag-sizes-zero": "config error: simulate: sizes must all be >= 1, got 0\n",
    "flag-cal-fraction-out-of-range": "config error: split: cal_fraction must be in (0, 1)\n",
    "config-fractions-sum": "config error: split: fractions must sum to 1, got 1.5\n",
    "config-dedup-identity-high": "config error: dataset: dedup_identity must be in (0, 1]\n",
    "config-dedup-identity-zero": "config error: dataset: dedup_identity must be in (0, 1]\n",
    "config-negatives-rate":
        "config error: dataset.negatives: target_positive_rate must be in (0, 1)\n",
    "config-columns-unknown-key":
        "config error: dataset: unknown column key(s): ['epitope']\n",
    "manifest-duplicate-id":
        f"error: manifest {{path}}: train_ids lists id {TOY_IDS[0]!r} more than once\n",
    "manifest-overlap":
        f"error: manifest {{path}}: train_ids and cal_ids share id {TOY_IDS[7]!r}\n",
    "decisions-repeated-id": "error: decisions line 4: example_id 'a' repeats line 3\n",
    "decisions-bad-prob":
        "error: decisions line 2: prob_calibrated must be a number, got 'abc'\n",
    "decisions-nan-prob":
        "error: decisions line 2: prob_calibrated must be in [0, 1], got 'nan'\n",
    "decisions-bad-nonconformity":
        "error: decisions line 2: nonconformity must be a number, got 'x'\n",
    "decisions-nan-nonconformity":
        "error: decisions line 2: nonconformity must be in [0, 0.5], got 'nan'\n",
    "decisions-label-contradicts-prob":
        "error: decisions line 2: predicted_label must be 1 for prob_calibrated 0.9, got 0\n",
    "decisions-nonconformity-contradicts-prob": "error: decisions line 2: nonconformity must be "
    "0.09999999999999998 for prob_calibrated 0.9, got 0.05\n",
    "config-dataset-not-object": "config error: dataset: expected an object\n",
    "config-section-not-object-with-flag": "config error: split: expected an object\n",
    "config-l2-string": "config error: scorer.l2: expected a number, got 'x'\n",
    "config-learning-rate-removed": "config error: scorer.learning_rate: unknown key\n",
    "config-l2-nan": "config error: scorer: l2 must be finite, got nan\n",
    "config-rate-string":
        "config error: dataset.negatives.target_positive_rate: expected a number, got 'x'\n",
    "config-rate-nan": "config error: dataset.negatives: target_positive_rate must be in (0, 1)\n",
    "config-l2-infinity": "config error: scorer: l2 must be finite, got inf\n",
    "config-fractions-nan": "config error: split: fractions must be non-negative\n",
    "config-temperature-nan":
        "config error: simulate: miscalibration_temperature must be finite, got nan\n",
    "config-temperature-infinity":
        "config error: simulate: miscalibration_temperature must be finite, got inf\n",
    "manifest-id-not-string": "error: manifest {path}: test_ids must be a list of strings\n",
    "manifest-id-null": "error: manifest {path}: test_ids must be a list of strings\n",
    "manifest-seed-string": "error: manifest {path}: seed must be an int\n",
    "manifest-seed-bool": "error: manifest {path}: seed must be an int\n",
    "config-bad-protocol": "config error: split: protocol must be one of random, "
    "epitope_held_out, distance_aware, got 'x'\n",
    "config-empty-train-part-run": "error: the train part of the split is empty\n",
    "config-empty-train-part-score": "error: the train part of the split is empty\n",
    "corpus-header-only-split-random": "error: dataset {path}: no data rows\n",
    "corpus-header-only-split-epitope": "error: dataset {path}: no data rows\n",
    "corpus-header-only-split-distance": "error: dataset {path}: no data rows\n",
    "corpus-header-only-run": "error: dataset {path}: no data rows\n",
    "corpus-id-with-tab": "error: line 2: id contains a tab or line break\n",
    "corpus-epitope-with-newline": "error: line 2: epitope_id contains a tab or line break\n",
    "config-bad-scorer-mode": "config error: scorer: mode must be one of builtin, logits, got 'x'\n",
    "flag-logits-without-path":
        "config error: scorer: logits_path is required when mode is 'logits'\n",
    "config-simulate-two-errors":
        "config error: simulate: miscalibration_temperature must be > 0\n",
    **dict.fromkeys(
        ("flag-logits-under-builtin", "config-logits-path-under-builtin",
         "flag-logits-with-builtin-flag", "flag-score-logits-under-builtin"),
        "config error: scorer: logits_path is set but mode is 'builtin', "
        "which trains its own scores\n",
    ),
    **dict.fromkeys(
        ("config-score-logits-mode", "logits-score"),
        "config error: scorer.mode: score trains the builtin scorer, got 'logits'\n",
    ),
    "corpus-renamed-id-missing": "error: missing required column 'sample'\n",
    "corpus-not-utf8": "error: dataset {path}: line 2: not valid UTF-8\n",
    "corpus-bad-row-then-not-utf8": "error: line 2: cdr3b contains invalid residue(s) ['B']\n",
    "corpus-nonascii-residue": "error: line 2: cdr3a contains invalid residue(s) ['ſ']\n",
    "logits-not-utf8": "error: logits {path}: line 2: not valid UTF-8\n",
    "logits-bad-row-then-not-utf8":
        "error: line 1: expected 'id<TAB>logit', got 'ex00000\\t0.5\\t3'\n",
    "manifest-not-utf8": "error: manifest {path}: line 1: not valid UTF-8\n",
    "config-not-utf8": "config error: config file {path}: line 1: not valid UTF-8\n",
    "decisions-not-utf8": "error: decisions {path}: line 3: not valid UTF-8\n",
    "decisions-bad-row-then-not-utf8":
        "error: decisions line 2: prob_calibrated must be in [0, 1], got '2'\n",
    "decisions-comment-then-not-utf8": "error: decisions {path}: line 2: not valid UTF-8\n",
    **{
        f"no-dataset-{command}": "config error: dataset.path: required for this command\n"
        for command in ("split", "run", "sweep", "score", "metrics")
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_error(tmp_path, capsys, case):
    kind, name, contents, expected = MALFORMED[case]
    kind, _, command = kind.partition(":")
    command, *extra = shlex.split(command) or ["sweep"]
    path = tmp_path / name
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents, encoding="utf-8")
    dataset = str(path if kind == "corpus" else toy_dataset_path())
    out = str(tmp_path / "o")
    if kind == "flag":
        command, flag, value = contents
    # simulate reads no dataset, so it takes no --dataset
    dataset_flag = [] if command == "simulate" else ["--dataset", dataset]
    if kind == "flag":
        argv = [command, *dataset_flag, "--out", out, flag, value]
    elif kind == "decisions":
        argv = ["metrics", "--dataset", dataset, "--decisions", str(path), "--out", out]
    elif kind == "no-dataset":
        argv = [command, "--out", out]
        if command == "metrics":
            argv += ["--decisions", str(path)]
    else:
        argv = [command, *dataset_flag, "--out", out, *extra]
        argv += {
            "logits": ["--scorer", "logits", "--logits", str(path)],
            "manifest": ["--manifest", str(path)],
            "config": ["--config", str(path)],
        }.get(kind, [])
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("config error: " if expected == 2 else "error: ")
    assert "Traceback" not in err
    if expected == 2:
        # a configuration error stops the command before it writes anything
        assert not os.path.exists(out)
    if kind == "corpus":
        # a corpus error stops the command before it splits
        assert not os.path.exists(os.path.join(out, "manifest.json"))
    if expected == 1:
        # a failed command says so as its log's last line, with stderr's message
        last = Path(out, "run_log.txt").read_text(encoding="utf-8").splitlines()[-1]
        message = err.removeprefix("error: ").removesuffix("\n")
        assert last.split(" ", 1)[1] == f"command {argv[0]} failed with code 1: {message}"
    if case in MALFORMED_MESSAGES:
        assert err == MALFORMED_MESSAGES[case].replace("{path}", str(path))


def test_failure_line_that_cannot_be_logged_is_dropped(tmp_path, capsys, monkeypatch):
    # the stderr line stays the only output when the log refuses the failure line
    log = _Runner.log

    def refuse_failure(self, message):
        if " failed with code " in message:
            raise OSError("log is read-only")
        log(self, message)

    monkeypatch.setattr(_Runner, "log", refuse_failure)
    path = tmp_path / "c.tsv"
    path.write_text(TOY_HEADER, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["split", "--dataset", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset {path}: no data rows\n"
    assert "failed" not in (out / "run_log.txt").read_text(encoding="utf-8")


# the commands of the generated malformed-input test: the kind of input each
# mutates, the flags that pass a good input of that kind ({value} is the
# --columns value itself, {path} a file), the outputs of a successful run,
# and the flags the command cannot do without
SPLIT_OUTPUTS = ("manifest.json", "run_log.txt")
FUZZ_COMMANDS = {
    "corpus-run": (
        "corpus", ["run", "--dataset", "{path}", "--protocol", "random"], RUN_OUTPUTS,
        ("--dataset",),
    ),
    "corpus-split": (
        "corpus", ["split", "--dataset", "{path}", "--protocol", "epitope_held_out"],
        SPLIT_OUTPUTS, ("--dataset",),
    ),
    "columns-split": (
        "columns", ["split", "--dataset", "{toy}", "--columns", "{value}"], SPLIT_OUTPUTS,
        ("--dataset", "--columns"),
    ),
    "logits-sweep": (
        "logits", ["sweep", "--dataset", "{toy}", "--scorer", "logits", "--logits", "{path}"],
        ("manifest.json", "coverage_risk.csv", "sweep.json", "run_log.txt"),
        ("--dataset", "--logits"),
    ),
    # a run given a manifest writes none
    "manifest-run": (
        "manifest", ["run", "--dataset", "{toy}", "--manifest", "{path}"],
        tuple(name for name in RUN_OUTPUTS if name != "manifest.json"), ("--dataset",),
    ),
    "manifest-score": (
        "manifest", ["score", "--dataset", "{toy}", "--manifest", "{path}"],
        ("scorer.json", "logits.tsv", "run_log.txt"), ("--dataset",),
    ),
    "config-run": (
        "config", ["run", "--dataset", "{toy}", "--config", "{path}"], RUN_OUTPUTS,
        ("--dataset",),
    ),
    "decisions-metrics": (
        "decisions", ["metrics", "--dataset", "{toy}", "--decisions", "{path}"],
        ("metrics_reeval.json", "run_log.txt"), ("--dataset", "--decisions"),
    ),
}
MUTATIONS = ("truncate", "repeat-line", "swap-cells", "flip-byte", "odd-cell", "empty",
             "line-ends", "drop-flag")
# a cell is a tab-separated field of a TSV line, a scalar token of a JSON
# one, or a comma-separated item of a --columns value
JSON_SCALAR = re.compile(rb'"(?:[^"\\]|\\.)*"|-?[0-9][0-9.eE+-]*|true|false|null')
JSON_KINDS = ("manifest", "config")
ODD_CELLS = {"tsv": [b"nan", b"inf", b"1e400", b""], "json": [b"NaN", b"Infinity", b"1e400", b'""']}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Good bytes of each kind of input: the toy corpus, a --columns value
    that renames every column to its own name, score's logit file, and run's
    manifest, config block and decisions file."""
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["score", "--dataset", str(toy_dataset_path()), "--out", str(work / "s")]) == 0
        assert main(run_args(work / "r")) == 0
    config = json.loads((work / "r" / "metrics.json").read_text())["config"]
    return {
        "corpus": toy_dataset_path().read_bytes(),
        "columns": b"id=id,cdr3a=cdr3a,cdr3b=cdr3b,peptide=peptide,epitope_id=epitope,label=label",
        "logits": (work / "s" / "logits.tsv").read_bytes(),
        "manifest": (work / "r" / "manifest.json").read_bytes(),
        "config": json.dumps(config, indent=2).encode(),
        "decisions": (work / "r" / "decisions.tsv").read_bytes(),
    }


def _cells(line: bytes, kind: str) -> list[tuple[int, int]]:
    """(start, end) of every cell of a line without its line end."""
    if kind in JSON_KINDS:
        return [match.span() for match in JSON_SCALAR.finditer(line)]
    separator = ord("," if kind == "columns" else "\t")
    ends = [i for i, byte in enumerate(line) if byte == separator] + [len(line)]
    return list(zip([0] + [end + 1 for end in ends[:-1]], ends))


def _mutate(good: bytes, mutation: str, kind: str, draw) -> bytes:
    """good truncated, with a line repeated, two cells of a line swapped, one
    bit flipped, a cell made nan, inf, 1e400 or empty, emptied, or with its
    line ends made CR LF or CR."""
    lines = good.splitlines(keepends=True)
    if mutation == "truncate":
        return good[: draw(st.integers(0, len(good) - 1))]
    if mutation == "repeat-line":
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[: i + 1] + lines[i:])
    if mutation == "flip-byte":
        i, bit = draw(st.integers(0, len(good) - 1)), draw(st.integers(0, 7))
        return good[:i] + bytes([good[i] ^ 1 << bit]) + good[i + 1 :]
    if mutation == "empty":
        return b""
    if mutation == "line-ends":
        return good.replace(b"\n", draw(st.sampled_from([b"\r\n", b"\r"])))
    # a cell mutation, on a line with enough cells
    wanted = 2 if mutation == "swap-cells" else 1
    i = draw(st.sampled_from([i for i, line in enumerate(lines)
                              if len(_cells(line.rstrip(b"\r\n"), kind)) >= wanted]))
    line = lines[i].rstrip(b"\r\n")
    end, cells = lines[i][len(line) :], _cells(line, kind)
    if mutation == "swap-cells":
        a = draw(st.integers(0, len(cells) - 2))
        (a0, a1), (b0, b1) = cells[a], cells[draw(st.integers(a + 1, len(cells) - 1))]
        line = line[:a0] + line[b0:b1] + line[a1:b0] + line[a0:a1] + line[b1:]
    else:
        c0, c1 = cells[draw(st.integers(0, len(cells) - 1))]
        odd = ODD_CELLS["json" if kind in JSON_KINDS else "tsv"]
        line = line[:c0] + draw(st.sampled_from(odd)) + line[c1:]
    return b"".join(lines[:i] + [line + end] + lines[i + 1 :])


def _check_clean_exit(argv: list[str], out: Path, outputs: tuple[str, ...]) -> None:
    """main(argv) exits 0 having written outputs, or 1 or 2 with one stderr
    line; exit 2 leaves no output directory. An exception escaping main fails
    the test with its traceback. argparse's own usage errors keep its usage
    lines above the one error line."""
    stderr = io.StringIO()
    usage = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as stop:
            code, usage = stop.code, True
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert set(outputs) <= {path.name for path in out.iterdir()}
        return
    lines = err.splitlines()
    if usage:
        assert code == 2 and lines[0].startswith("usage: tcrselect ")
        assert lines[-1].startswith(f"tcrselect {argv[0]}: error: ")
    else:
        assert code in (1, 2) and len(lines) == 1 and err.endswith("\n"), err
        assert err.startswith("config error: " if code == 2 else "error: ")
    if code == 2:
        assert not out.exists()


@settings(max_examples=650, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(FUZZ_COMMANDS)), mutation=st.sampled_from(MUTATIONS),
       data=st.data())
def test_generated_malformed_input_exits_cleanly(
    fuzz_inputs, tmp_path_factory, name, mutation, data
):
    work = tmp_path_factory.mktemp("case")
    kind, command, outputs, required = FUZZ_COMMANDS[name]
    path, out = work / f"input-{kind}", work / "o"
    good = fuzz_inputs[kind]
    # one flag the command needs dropped with its value, from a good input
    bad = good if mutation == "drop-flag" else _mutate(good, mutation, kind, data.draw)
    path.write_bytes(bad)
    argv = [arg.format(path=path, toy=toy_dataset_path(), value=os.fsdecode(bad))
            for arg in command] + ["--out", str(out)]
    if mutation == "drop-flag":
        i = argv.index(data.draw(st.sampled_from(required), label="dropped"))
        argv = argv[:i] + argv[i + 2 :]
    _check_clean_exit(argv, out, outputs)


def test_benchmark_tracer_sees_every_target(tmp_path):
    # perfbench/traced_cli.py rebinds package names from outside; a renamed
    # target, a changed result type or a split function captured before the
    # rebinding would silently drop its spans or counts
    repo = Path(__file__).resolve().parents[1]
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    for protocol in ("random", "epitope_held_out", "distance_aware"):
        spans_path, out = tmp_path / f"{protocol}.json", tmp_path / protocol
        subprocess.run(
            [sys.executable, str(repo / "perfbench" / "traced_cli.py"), str(spans_path), "count",
             "--", "run", "--dataset", str(toy_dataset_path()), "--epsilon", "0.5",
             "--protocol", protocol, "--k-epitopes", "2", "--out", str(out)],
            capture_output=True, text=True, check=True, cwd=repo,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        trace = json.loads(spans_path.read_text())
        assert trace["missing_targets"] == []
        assert [s["name"] for s in trace["spans"] if "count_error" in s] == []
        (split_span,) = [s for s in trace["spans"] if s["name"] == "splits.split"]
        test_ids = json.loads((out / "manifest.json").read_text())["test_ids"]
        assert split_span["counts"] == {"test": len(test_ids), "rows": 200}, protocol
        (decide_span,) = [s for s in trace["spans"] if s["name"] == "conformal.decide"]
        rows = [
            line.split("\t") for line in (out / "decisions.tsv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        abstained = sum(row[3] == "abstain" for row in rows)
        assert decide_span["counts"] == {"decisions": len(rows), "abstained": abstained}
        assert 0 < abstained < len(rows), protocol


def test_score_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a float64 dot product of 50,000 or more elements across
    # its threads, and the split changes the rounding; training computes
    # weights @ weights, so a vocabulary that large must still give the same
    # scorer.json and logits.tsv at one and at two threads
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    corpus, config = tmp_path / "corpus.tsv", tmp_path / "config.json"
    export_tsv(motif_corpus(9000, 1), corpus)
    config.write_text(json.dumps({"scorer": {"epochs": 5}}))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "tcrselect.cli", "score", "--dataset", str(corpus),
             "--kmer-size", "5", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(package_root), OPENBLAS_NUM_THREADS=threads),
        )
        outputs[threads] = [(out / name).read_bytes() for name in ("scorer.json", "logits.tsv")]
    assert len(json.loads(outputs["1"][0])["vocabulary"]) > 50_000
    assert outputs["1"] == outputs["2"]


def _holding_arguments(fn):
    """fn behind a wrapper that holds its arguments until it returns, as a
    caller on Python 3.10 does and as perfbench's tracer does on any Python."""
    def held(*args, **kwargs):
        return fn(*args, **kwargs)
    return held


@pytest.mark.parametrize("callers_hold_arguments", [False, True])
@pytest.mark.parametrize("command", ["run", "replay", "sweep"])
def test_training_matrix_is_built_after_the_dataset_and_manifest_are_freed(
    tmp_path, monkeypatch, command, callers_hold_arguments
):
    # run and sweep let the ingested dataset and the manifest go once the
    # parts are taken, before the train part is encoded, and the train part
    # once it is encoded: when the training matrix allocates, only the cal
    # and test parts are live besides the training inputs. The garbage
    # collector stays off, so each must be freed by its last reference going,
    # not by a collection. That must not hang on whether a call hands its
    # arguments over to the callee, which Python 3.11 does and 3.10 does not,
    # so the calls between modules also run with callers that hold them.
    export_tsv(motif_corpus(2000, 1), tmp_path / "corpus.tsv")
    argv = ["--dataset", str(tmp_path / "corpus.tsv"), "--scorer", "builtin"]
    if command == "replay":
        assert main(["run", *argv, "--out", str(tmp_path / "first")]) == 0
        argv += ["--manifest", str(tmp_path / "first" / "manifest.json")]
    if callers_hold_arguments:
        for module, name in [(tcrselect.cli, "TrainingSet"), (tcrselect.cli, "run_pipeline"),
                             (tcrselect.conformal, "train_linear")]:
            monkeypatch.setattr(module, name, _holding_arguments(getattr(module, name)))
    gc.collect()
    before = {id(o): o for o in gc.get_objects() if isinstance(o, (Dataset, SplitManifest))}
    live = []

    def probing(name, fn):
        def probe(*args):
            objects = [o for o in gc.get_objects() if id(o) not in before]
            live.append((
                name,
                sorted(len(o) for o in objects if isinstance(o, Dataset)),
                sum(isinstance(o, SplitManifest) for o in objects),
            ))
            return fn(*args)
        return probe

    for name in ("encode_kmers", "_training_matrix"):
        monkeypatch.setattr(tcrselect.scorer, name, probing(name, getattr(tcrselect.scorer, name)))
    gc.disable()
    try:
        name = "sweep" if command == "sweep" else "run"
        assert main([name, *argv, "--out", str(tmp_path / "out")]) == 0
    finally:
        gc.enable()
    # the cal, test and train parts of a 2,000-row corpus as the train part
    # is encoded, then the cal and test parts, and never a manifest
    assert live == [
        ("encode_kmers", [200, 400, 1400], 0),
        ("_training_matrix", [200, 400], 0),
        ("encode_kmers", [200, 400], 0),
        ("encode_kmers", [200, 400], 0),
    ]


def test_cli_import_leaves_scipy_sparse_unloaded():
    # sweep --scorer logits and simulate build no matrix, so they need not pay
    # for scipy.sparse
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, tcrselect.cli; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert done.stdout == "False\n"


def test_builtin_fits_leave_scipy_unloaded(tmp_path):
    # the scorer loads scipy's compiled sparse kernels alone, so run, score
    # and sweep import neither scipy nor scipy.sparse, on the toy corpus and on
    # a score fit of 231,686 windows at 50 epochs
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    export_tsv(motif_corpus(12000, 1), tmp_path / "large.tsv")
    script = (
        "import sys\n"
        "from tcrselect.cli import main\n"
        "from tcrselect.toycorpus import toy_dataset_path\n"
        "for command in ('run', 'score', 'sweep'):\n"
        "    argv = [command, '--dataset', str(toy_dataset_path()), '--out', command]\n"
        "    assert main(argv) == 0, command\n"
        "assert main(['score', '--dataset', 'large.tsv', '--out', 'large']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "print('tcrselect._sparsetools' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert done.stdout.splitlines()[-2:] == ["[]", "True"]
    assert all((tmp_path / name).is_dir() for name in ("run", "score", "sweep", "large"))


def test_run_and_metrics_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 14 ms of CPU to import, and np.unique(labels) loads
    # it for its masked-array check; no report needs it
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from tcrselect.cli import main\n"
        "from tcrselect.toycorpus import toy_dataset_path\n"
        "toy = str(toy_dataset_path())\n"
        "assert main(['run', '--dataset', toy, '--out', 'run']) == 0\n"
        "argv = ['metrics', '--dataset', toy, '--decisions', 'run/decisions.tsv', '--out', 'm']\n"
        "assert main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "m" / "metrics_reeval.json").is_file()


def _is_config_field(dotted):
    """Whether a dotted path such as "split.seed" names a field of RunConfig."""
    *sections, name = dotted.split(".")
    node = RunConfig()
    for section in sections:
        node = getattr(node, section, None)
    return dataclasses.is_dataclass(node) and name in {f.name for f in dataclasses.fields(node)}


# every flag of each command, with its dest, pinned by hand against the tables
# build_parser reads: a setting flag's dest is the dotted config field it
# overrides, in a section that the command reads
DATASET_FLAGS = {"--dataset": "dataset.path", "--columns": "dataset.columns"}
SPLIT_FLAGS = {
    "--protocol": "split.protocol",
    "--split-seed": "split.seed",
    "--k-epitopes": "split.k_test_epitopes",
    "--cal-fraction": "split.cal_fraction",
}
SOURCE_FLAGS = {"--scorer": "scorer.mode", "--logits": "scorer.logits_path"}
SCORER_FLAGS = {
    "--kmer-size": "scorer.kmer_size",
    "--mask-cdr3a": "scorer.include_cdr3a",
    "--manifest": "manifest",
}
COMMON_FLAGS = {"-h": "help", "--config": "config", "--out": "output_dir"}
COMMAND_FLAGS = {
    "split": {**COMMON_FLAGS, **DATASET_FLAGS, **SPLIT_FLAGS},
    "run": {
        **COMMON_FLAGS, **DATASET_FLAGS, **SPLIT_FLAGS, **SCORER_FLAGS, **SOURCE_FLAGS,
        "--epsilon": "conformal.epsilon",
    },
    "sweep": {
        **COMMON_FLAGS, **DATASET_FLAGS, **SPLIT_FLAGS, **SCORER_FLAGS, **SOURCE_FLAGS,
        "--grid": "sweep.grid",
    },
    "simulate": {
        **COMMON_FLAGS,
        "--trials": "simulate.n_trials",
        "--sizes": "simulate.sizes",
        "--epsilon": "simulate.epsilon",
    },
    "score": {**COMMON_FLAGS, **DATASET_FLAGS, **SPLIT_FLAGS, **SCORER_FLAGS, **SOURCE_FLAGS},
    "metrics": {**COMMON_FLAGS, **DATASET_FLAGS, "--decisions": "decisions"},
}


def test_every_setting_flag_names_its_config_field():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(commands.choices) == sorted(COMMAND_FLAGS)
    for name, parser in commands.choices.items():
        assert parser.argument_default == argparse.SUPPRESS, name
        flags = {action.option_strings[0]: action.dest for action in parser._actions}
        assert flags == COMMAND_FLAGS[name], name
        sections = _COMMANDS[name][-1]
        for dest in flags.values():
            if dest not in ("help", "config", "output_dir", "manifest", "decisions"):
                assert _is_config_field(dest) and dest.split(".")[0] in sections, (name, dest)


def _float_settings(cls=RunConfig, prefix=""):
    """(dotted path, item count or None for a scalar) of every float field,
    through the nested config sections."""
    for f in dataclasses.fields(cls):
        kind = typing.get_type_hints(cls)[f.name]
        if isinstance(kind, types.UnionType):  # X | None
            (kind,) = [t for t in typing.get_args(kind) if t is not type(None)]
        if dataclasses.is_dataclass(kind):
            yield from _float_settings(kind, f"{prefix}{f.name}.")
        elif kind is float:
            yield f"{prefix}{f.name}", None
        elif typing.get_origin(kind) is tuple and typing.get_args(kind)[0] is float:
            yield f"{prefix}{f.name}", len(typing.get_args(kind))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_every_float_setting_rejects_non_finite_values(value):
    settings = dict(_float_settings())
    expected = {"scorer.l2": None, "split.fractions": 3, "sweep.grid": 2}
    assert expected.items() <= settings.items()
    for dotted, count in settings.items():
        with pytest.raises(ConfigError):
            load_config(None, {dotted: value if count is None else [value] * count})


def test_default_config_fingerprint_is_pinned(tmp_path):
    # every provenance block of a command names its hash; a field, default or
    # section read that changes one has to change its line on purpose
    pins = {
        "split": "f648deab43a4c6dda60d11015826daf6a6a620111b3bf8b693d0d92b299501bc",
        "run": "2fca363a163b0e638072c4b034a779e5c47626e4d3342fca307cb357f02d1c79",
        "sweep": "0cb3b234ac4a6f4d7204895e170b9ceed097246a22c06907b389cb54bebbb2d7",
        "simulate": "8085837d8e8dc851b5c5066b53381e0160918bb4e91f1030ec293c29c9550dc3",
        "score": "f580560de7f7658e819ed70372190cb0077b8a77a1e15dbcc42fe54c5192b45a",
        "metrics": "11c333c3eec79479aa43082d9aafd06b964bc2a82c2b426e98f2c887573754c2",
    }
    assert sorted(pins) == sorted(_COMMANDS)
    for command, digest in pins.items():
        _, _, sections = _COMMANDS[command]
        settings = _Runner(RunConfig(output_dir=str(tmp_path)), sections).settings
        assert list(settings) == list(sections), command
        text = json.dumps(settings, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, command


def test_simulate_takes_no_dataset_flag(tmp_path, capsys):
    # only the commands that read a dataset take --dataset and --columns
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as stop:
        main(["simulate", "--dataset", "x", "--out", str(out)])
    assert stop.value.code == 2
    assert "unrecognized arguments: --dataset x" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_takes_no_epsilon_flag(tmp_path, capsys):
    # sweep ranks calibrated scores and fits no threshold, so it reads no conformal
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--dataset", str(toy_dataset_path()), "--epsilon", "0.2", "--out", str(out)])
    assert stop.value.code == 2
    assert "unrecognized arguments: --epsilon 0.2" in capsys.readouterr().err
    assert not out.exists()


# one setting per config section, each drawn from values that differ from its
# default and that every guarded command accepts, but for scorer.logits_path:
# under the builtin scorer (run, simulate) that is a config error
SETTING_CHANGES = {
    "dataset.path": st.just("toy-copy.tsv"),
    "dataset.dedup_identity": st.sampled_from([0.9, 0.95]),
    "split.seed": st.integers(14, 10_000),
    "split.protocol": st.just("distance_aware"),
    "scorer.kmer_size": st.sampled_from([2, 4]),
    "scorer.epochs": st.integers(1, 49),
    "scorer.include_cdr3a": st.just(False),
    "scorer.logits_path": st.just("logits-copy.tsv"),
    "conformal.epsilon": st.sampled_from([0.1, 0.3, 0.4]),
    "sweep.grid": st.lists(st.sampled_from([1.0, 0.75, 0.5]), min_size=1, max_size=3),
    "simulate.seed": st.integers(30, 10_000),
    # simulate's coverage mode refuses a single-class calibration draw (exit
    # 1), which its 3 guarded trials at the default seed make at some n_cal
    # from 50 to 92
    "simulate.n_cal": st.integers(100, 500),
    "simulate.epsilon": st.sampled_from([0.1, 0.3]),
}
# (argv, config, the settings the command records, its table report): toy run
# with the builtin scorer, toy sweep on external logits, and a small simulate
GUARDED = {
    "run": (["run"], {"dataset": {"path": "toy.tsv"}},
            ("dataset.", "split.", "scorer.", "conformal."), "decisions.tsv"),
    "sweep-logits": (
        ["sweep"],
        {"dataset": {"path": "toy.tsv"}, "scorer": {"mode": "logits", "logits_path": "logits.tsv"}},
        ("dataset.", "split.", "scorer.mode", "scorer.logits_path", "sweep."),
        "coverage_risk.csv",
    ),
    "simulate": (["simulate", "--trials", "3"], {}, ("simulate.",), "simulate.csv"),
}


@pytest.fixture(scope="module")
def guard_dir(tmp_path_factory):
    """A working directory with the toy corpus, seeded logits for it, a copy
    of each, and a cache of each guarded command's unchanged outputs."""
    work = tmp_path_factory.mktemp("guard")
    toy = toy_dataset_path().read_bytes()
    rng = np.random.default_rng(0)
    logits = "".join(f"{i}\t{float(z)!r}\n" for i, z in zip(TOY_IDS, rng.normal(size=200)))
    for name, data in (("toy", toy), ("logits", logits.encode())):
        (work / f"{name}.tsv").write_bytes(data)
        (work / f"{name}-copy.tsv").write_bytes(data)
    return work, {}


def _guarded_outputs(work, name, changes):
    """(exit code, stdout, stderr, sha256 of every file but run_log.txt, the
    config fingerprint line of the table report) of one guarded command run
    from work with its config plus the dotted changes; the last two are None
    when it makes no output directory."""
    argv, config, _, table = GUARDED[name]
    config = json.loads(json.dumps(config))
    for dotted, value in changes.items():
        section, field = dotted.split(".")
        config.setdefault(section, {})[field] = value
    out = f"out-{len(list(work.glob('out-*.json')))}"
    cwd = os.getcwd()
    os.chdir(work)
    try:
        Path(f"{out}.json").write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", f"{out}.json", "--out", out])
        hashes = config_line = None
        if Path(out).exists():
            hashes = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(out).iterdir()) if path.name != "run_log.txt"
            }
            lines = Path(out, table).read_text(encoding="utf-8").splitlines()
            config_line = next(line for line in lines if line.startswith("# config="))
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue(), hashes, config_line


def _check_setting_change(guard_dir, name, dotted, value):
    """A setting the command does not read leaves stdout, stderr and every
    output byte alone; one that it reads moves the config fingerprint of its
    reports."""
    work, base = guard_dir
    if name not in base:
        base[name] = _guarded_outputs(work, name, {})
        assert base[name][0] == 0, base[name][2]
    code, stdout, stderr, hashes, config_line = _guarded_outputs(work, name, {dotted: value})
    if dotted == "scorer.logits_path" and "scorer" not in GUARDED[name][1]:
        # the builtin scorer would leave the logit file unread: a config
        # error, one stderr line, and no output directory
        assert (code, stderr, hashes) == (2, MALFORMED_MESSAGES["flag-logits-under-builtin"], None)
    elif dotted.startswith(GUARDED[name][2]):
        assert code == 0 and config_line != base[name][4]
    else:
        assert (code, stdout, stderr, hashes) == (0, *base[name][1:4])


@given(name=st.sampled_from(sorted(GUARDED)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reports_record_only_the_settings_their_command_reads(guard_dir, name, data):
    dotted = data.draw(st.sampled_from(sorted(SETTING_CHANGES)), label="setting")
    value = data.draw(SETTING_CHANGES[dotted], label="value")
    _check_setting_change(guard_dir, name, dotted, value)


def test_sweep_leaves_a_small_epsilon_unread(guard_dir):
    # run warns that epsilon 0.01 needs a larger calibration set than the
    # toy corpus gives; sweep fits no threshold, so it neither warns nor
    # records the setting
    _check_setting_change(guard_dir, "sweep-logits", "conformal.epsilon", 0.01)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_toy_commands() -> list[list[str]]:
    """The `tcrselect run` lines of the README's quick start, as argv."""
    return [
        shlex.split(line)[1:]
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith('tcrselect run --dataset "$TOY"')
    ]


def test_readme_library_block_runs(capsys):
    # the README's one python block, so an API change cannot leave it stale
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("abstained on ") and lines[0].endswith(" test rows")
    assert len(lines) == 6


def test_readme_toy_commands_run(tmp_path, capsys):
    commands = _readme_toy_commands()
    protocols = [argv[argv.index("--protocol") + 1] for argv in commands]
    assert sorted(protocols) == ["distance_aware", "epitope_held_out", "random"]
    for protocol, argv in zip(protocols, commands):
        argv[argv.index("$TOY")] = str(toy_dataset_path())
        argv[argv.index("--out") + 1] = str(tmp_path / protocol)
        assert main(argv) == 0, protocol


class TestSplit:
    def test_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(
            [
                "split",
                "--dataset", str(toy_dataset_path()),
                "--out", str(out),
                "--protocol", "random",
                "--split-seed", "5",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["protocol"] == "random"
        assert manifest["seed"] == 5
        sizes = {k: len(manifest[k]) for k in ("train_ids", "cal_ids", "test_ids")}
        assert sum(sizes.values()) == 200


OUTPUT_PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("key", sorted(OUTPUT_PINS["split"]))
def test_split_manifest_bytes_are_pinned(tmp_path, key):
    # a split that moves any id shows up as a changed pin in output_pins.json;
    # no float arithmetic that depends on the CPU reaches a manifest
    written, stdout = split_manifest_hash(tmp_path, key)
    assert stdout.endswith(f"manifest fingerprint {written}\n")
    assert written == OUTPUT_PINS["split"][key]


@pytest.fixture(scope="module")
def float_hashes(tmp_path_factory):
    recorded, actual = OUTPUT_PINS["float_platform"], float_platform()
    if actual != recorded:
        pytest.skip(f"float pins were recorded on {recorded}; this platform is {actual}")
    return float_output_hashes(tmp_path_factory.mktemp("float"))


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_output_bytes_are_pinned(float_hashes, case):
    # float results depend on numpy's SIMD kernels, so these pins hold only on
    # the recorded platform; elsewhere the fixture skips and names both
    assert float_hashes[case] == OUTPUT_PINS["float"][case]


@pytest.fixture(scope="module")
def fallback_hashes(float_hashes, tmp_path_factory):
    return float_output_hashes(tmp_path_factory.mktemp("fallback"), fallback=True)


@pytest.mark.parametrize("case", FILE_CASES)
def test_fallback_readers_give_the_pinned_bytes(fallback_hashes, case):
    # a CRLF corpus and a logit file with a blank line are read by the per-row
    # loops, not the block split; every output must still match the pins
    assert fallback_hashes[case] == OUTPUT_PINS["float"][case]


def test_manifest_fingerprint_is_hash_of_written_file(tmp_path):
    # the manifest is serialized once per run; the provenance hash must be
    # the hash of exactly the bytes written
    out = tmp_path / "r"
    assert main(run_args(out)) == 0
    written = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    report = json.loads((out / "metrics.json").read_text())
    assert report["provenance"]["manifest"] == written


def test_scorer_fingerprint_is_hash_of_written_file(tmp_path, capsys):
    # scorer.json is serialized once; run's provenance and score's stdout
    # name the hash of exactly the bytes written
    out = tmp_path / "r"
    assert main(run_args(out)) == 0
    written = hashlib.sha256((out / "scorer.json").read_bytes()).hexdigest()
    report = json.loads((out / "metrics.json").read_text())
    assert report["provenance"]["scorer"] == written
    capsys.readouterr()
    out = tmp_path / "s"
    assert main(["score", "--dataset", str(toy_dataset_path()), "--out", str(out)]) == 0
    written = hashlib.sha256((out / "scorer.json").read_bytes()).hexdigest()
    assert capsys.readouterr().out == f"scored 200 examples with model {written[:12]}\n"


class TestRun:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(run_args(out)) == 0
        for name in RUN_OUTPUTS:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "conformal_selective" in stdout

    def test_log_ends_with_the_commands_cpu_and_peak_rss(self, tmp_path, monkeypatch):
        assert main(run_args(tmp_path / "r")) == 0
        last = (tmp_path / "r" / "run_log.txt").read_text(encoding="utf-8").splitlines()[-1]
        match = re.fullmatch(
            r"\S+Z command run finished with code 0 cpu_s=(\d+\.\d{3}) peak_rss_mb=(\d+\.\d)", last
        )
        assert match, last
        assert float(match[1]) > 0 and float(match[2]) > 0
        # without the resource module (Windows) the line stops at the code
        monkeypatch.setitem(sys.modules, "resource", None)
        assert main(run_args(tmp_path / "w")) == 0
        last = (tmp_path / "w" / "run_log.txt").read_text(encoding="utf-8").splitlines()[-1]
        assert last.endswith(" command run finished with code 0")

    def test_vacuous_rule_is_announced(self, tmp_path, capsys):
        # the label-free score is at most 0.5, so a threshold >= 0.5 keeps every row
        assert main(run_args(tmp_path / "r")) == 0
        lines = capsys.readouterr().out.splitlines()
        rule_line = next(line for line in lines if line.startswith("epsilon 0.2: threshold"))
        assert rule_line.endswith(" (rule cannot abstain: threshold >= 0.5)")
        rule = json.loads((tmp_path / "r" / "conformal_rule.json").read_text())
        assert rule["threshold"] >= 0.5 and rule["vacuous"] is True
        decisions = (tmp_path / "r" / "decisions.tsv").read_text()
        assert "\tabstain\t" not in decisions

    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", str(toy_dataset_path()), "--protocol", "random", "--epsilon", "0.01"],
        ["simulate", "--epsilon", "0.0001", "--trials", "3"],
    ], ids=["run", "simulate"])
    def test_retain_all_warning_is_one_line(self, tmp_path, capsys, argv):
        # 20 calibration rows, or 2000, are too few for the target: a warning, not a failure
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"warning: quantile index \d+ exceeds calibration size \d+; retaining all "
            r"predictions \(grow the calibration set or raise epsilon\)", line
        )

    def test_abstaining_rule_has_no_note(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r", ["--epsilon", "0.4"])) == 0
        assert "cannot abstain" not in capsys.readouterr().out
        report = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert report["conformal_rule"]["vacuous"] is False
        assert "\tabstain\t" in (tmp_path / "r" / "decisions.tsv").read_text()

    def test_metrics_report_shape(self, tmp_path):
        out = tmp_path / "r"
        main(run_args(out))
        report = json.loads((out / "metrics.json").read_text())
        assert set(report["methods"]) == {
            "baseline", "temp_scaled", "conformal_selective",
        }
        assert report["methods"]["baseline"]["coverage"] == 1.0
        # the sections run reads, and no output_dir
        assert list(report["config"]) == ["conformal", "dataset", "scorer", "split"]
        rule = report["conformal_rule"]
        assert rule["epsilon"] == 0.2

    def test_decisions_tsv_has_provenance_comments(self, tmp_path):
        out = tmp_path / "r"
        main(run_args(out))
        lines = (out / "decisions.tsv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# manifest=") for l in comments)
        assert any(l.startswith("# scorer=") for l in comments)
        assert any(l.startswith("# config=") for l in comments)

    def test_byte_determinism_across_output_dirs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(out_a)) == 0
        assert main(run_args(out_b)) == 0
        for name in RUN_OUTPUTS:
            if name == "run_log.txt":
                continue  # the only timestamped file
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": {"path": str(toy_dataset_path())},
                    "conformal": {"epsilon": 0.1},
                    "split": {"protocol": "random"},
                }
            )
        )
        out = tmp_path / "r"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--epsilon", "0.3"]
        )
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["config"]["conformal"]["epsilon"] == 0.3

    def test_scorer_flag_overrides_a_config_logit_file(self, tmp_path):
        # --scorer builtin clears the config file's logit file: the run is the
        # plain builtin run, byte for byte
        base = tmp_path / "base"
        assert main(run_args(base)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scorer": {"mode": "logits", "logits_path": "l.tsv"}}))
        out = tmp_path / "r"
        assert main(run_args(out, extra=["--config", str(cfg), "--scorer", "builtin"])) == 0
        for name in RUN_OUTPUTS:
            if name != "run_log.txt":
                assert (out / name).read_bytes() == (base / name).read_bytes(), name

    def test_external_logits_route(self, tmp_path):
        base = tmp_path / "base"
        main(run_args(base))
        scored = tmp_path / "scored"
        assert main(
            [
                "score",
                "--dataset", str(toy_dataset_path()),
                "--out", str(scored),
                "--manifest", str(base / "manifest.json"),
            ]
        ) == 0
        out = tmp_path / "ext"
        code = main(
            run_args(
                out,
                extra=[
                    "--scorer", "logits",
                    "--logits", str(scored / "logits.tsv"),
                    "--manifest", str(base / "manifest.json"),
                ],
            )
        )
        assert code == 0
        base_dec = [
            l for l in (base / "decisions.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        ext_dec = [
            l for l in (out / "decisions.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert base_dec == ext_dec


class TestSweep:
    def test_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "w"
        code = main(
            [
                "sweep",
                "--dataset", str(toy_dataset_path()),
                "--out", str(out),
                "--protocol", "random",
                "--grid", "1.0,0.8,0.6",
            ]
        )
        assert code == 0
        csv_lines = [
            l for l in (out / "coverage_risk.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert csv_lines[0] == "coverage,error_rate,ece,auprc,abstained"
        assert len(csv_lines) == 4
        payload = json.loads((out / "sweep.json").read_text())
        assert [p["coverage"] for p in payload["curve"]["points"]] == [1.0, 0.8, 0.6]


class TestScore:
    def test_writes_logits(self, tmp_path, capsys):
        out = tmp_path / "sc"
        code = main(
            [
                "score",
                "--dataset", str(toy_dataset_path()),
                "--out", str(out),
                "--protocol", "random",
            ]
        )
        assert code == 0
        assert (out / "scorer.json").exists()
        rows = [
            l for l in (out / "logits.tsv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) == 200  # one id/logit row per example, no header
        assert all(len(r.split("\t")) == 2 for r in rows)
        # logits are written as Python float reprs, never as np.float64(...)
        logits = [r.split("\t")[1] for r in rows]
        assert all(repr(float(x)) == x for x in logits)
        assert "np.float64(" not in (out / "logits.tsv").read_text()


class TestSimulate:
    def test_coverage_experiment_mode(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--out", str(out),
                "--epsilon", "0.2",
                "--trials", "10",
            ]
        )
        assert code == 0
        payload = json.loads((out / "simulate.json").read_text())
        assert payload["mode"] == "coverage_experiment"
        assert payload["n_trials"] == 10
        assert 0.0 <= payload["mean_coverage"] <= 1.0
        assert "guarantee >=" in capsys.readouterr().out
        csv_lines = (out / "simulate.csv").read_text().splitlines()
        assert len(csv_lines) >= 11

    def test_size_sweep_mode(self, tmp_path):
        out = tmp_path / "sizes"
        code = main(
            [
                "simulate",
                "--out", str(out),
                "--epsilon", "0.1",
                "--trials", "3",
                "--sizes", "100,500",
            ]
        )
        assert code == 0
        payload = json.loads((out / "simulate.json").read_text())
        assert payload["mode"] == "calibration_size_sweep"
        assert [row["n_cal"] for row in payload["rows"]] == [100, 500]

    def test_size_sweep_skips_single_class_draws(self, tmp_path, capsys):
        # at seed 29, trials 1, 9, 11, 12 and 13 of the 50-row size draw no positive
        out = tmp_path / "sizes"
        argv = ["simulate", "--out", str(out), "--sizes", "50,200", "--trials", "15"]
        assert main(argv) == 0
        rows = json.loads((out / "simulate.json").read_text())["rows"]
        assert [row["single_class_trials"] for row in rows] == [5, 0]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" (5 single-class trials skipped)")
        assert "skipped" not in lines[1]
        csv_lines = (out / "simulate.csv").read_text().splitlines()
        assert csv_lines[1] == "n_cal,mean_ece_after,mean_coverage"


class TestMetricsReeval:
    def test_round_trip_matches_run_report(self, tmp_path):
        out = tmp_path / "r"
        main(run_args(out))
        reeval_out = tmp_path / "m"
        code = main(
            [
                "metrics",
                "--dataset", str(toy_dataset_path()),
                "--decisions", str(out / "decisions.tsv"),
                "--out", str(reeval_out),
            ]
        )
        assert code == 0
        original = json.loads((out / "metrics.json").read_text())
        reeval = json.loads((reeval_out / "metrics_reeval.json").read_text())
        selective = original["methods"]["conformal_selective"]
        assert reeval["coverage"] == selective["coverage"]
        assert reeval["retained"]["error_rate"] == selective["error_rate"]
        assert reeval["retained"]["ece"] == selective["ece"]
        assert len(reeval["decisions_fingerprint"]) == 64

    @pytest.mark.parametrize("split_seed", ["3", "4"])
    def test_ids_with_line_separators_round_trip(self, tmp_path, split_seed):
        # csv keeps U+2028, U+0085 and the other str.splitlines breaks inside a
        # cell, so run writes such ids intact and metrics must read them back
        data = motif_corpus(300, 1)
        odd = {data.ids[i]: f"x\u2028{i}" if i % 2 else f"p\x85{i}" for i in range(0, 300, 3)}
        rows = [(odd.get(row.id, row.id), *row[1:]) for row in data]
        corpus = tmp_path / "odd.tsv"
        export_tsv(tcrselect.Dataset(*zip(*rows)), corpus)
        out, reeval_out = tmp_path / "r", tmp_path / "m"
        assert main(["run", "--dataset", str(corpus), "--split-seed", split_seed,
                     "--out", str(out)]) == 0
        assert any(odd_id in (out / "decisions.tsv").read_text(encoding="utf-8")
                   for odd_id in odd.values())
        assert main(["metrics", "--dataset", str(corpus), "--decisions",
                     str(out / "decisions.tsv"), "--out", str(reeval_out)]) == 0
        original = json.loads((out / "metrics.json").read_text())
        reeval = json.loads((reeval_out / "metrics_reeval.json").read_text())
        assert reeval["coverage"] == original["methods"]["conformal_selective"]["coverage"]


class TestByteOrderMark:
    """Editors that save "UTF-8 with BOM" prefix the file; the readers skip it."""

    def test_decisions(self, tmp_path):
        out = tmp_path / "r"
        assert main(run_args(out)) == 0
        plain = out / "decisions.tsv"
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for name, path in (("a", plain), ("b", bom)):
            argv = ["metrics", "--dataset", str(toy_dataset_path()),
                    "--decisions", str(path), "--out", str(tmp_path / name)]
            assert main(argv) == 0
            report = json.loads((tmp_path / name / "metrics_reeval.json").read_text())
            assert report.pop("decisions_file") == str(path)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_config(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"conformal": {"epsilon": 0.3}}), encoding="utf-8")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        config = load_config(bom)
        assert config.conformal.epsilon == 0.3
        assert config.to_dict() == load_config(plain).to_dict()


class TestMonotoneCheck:
    def result(self, logits, labels, temperature):
        test = ScoreTable(tuple(f"t{i}" for i in range(len(logits))), logits, labels)
        model = TemperatureModel(
            temperature=temperature, nll_before=1.0, nll_after=1.0,
            n_cal_fit=len(logits), clamped=False,
        )
        rule = ConformalRule(epsilon=0.2, n_cal=3, quantile_index=4, threshold=None)
        probs = apply_temperature(test, model)
        decisions = decide(test.ids, probs, rule)
        return PipelineResult(None, model, test, test, probs), decisions

    def test_saturation_ties_are_not_an_error(self):
        # sigmoid(37) == sigmoid(38) == 1.0, while 0.37 and 0.38 stay apart at
        # T = 100, so the AUROCs differ although scaling is monotone
        result, decisions = self.result([37.0, 38.0, -1.0, 0.5], [1, 0, 0, 1], 100.0)
        raw = sigmoid(result.test.logits)
        assert raw[0] == raw[1] == 1.0
        rows = _method_rows(result, decisions)
        assert rows["baseline"]["auroc"] == 0.625
        assert rows["temp_scaled"]["auroc"] == 0.5

    def test_decreasing_probabilities_raise(self):
        logits = np.array([2.0, 1.0, 3.0])
        _check_monotone(logits, np.array([0.7, 0.6, 0.8]))
        with pytest.raises(RuntimeError, match="monotone"):
            _check_monotone(logits, np.array([0.7, 0.6, 0.8]), np.array([0.6, 0.7, 0.8]))
