"""Command-line interface, exercised in-process through main(argv)."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcrselect
from tcrselect.calibration import TemperatureModel, apply_temperature
from tcrselect.cli import _check_monotone, _method_rows, main
from tcrselect.conformal import ConformalRule, PipelineResult, decide
from tcrselect.data import ingest_tsv
from tcrselect.scorer import ScoreTable, sigmoid
from tcrselect.toycorpus import toy_dataset_path

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

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        code = main(run_args(tmp_path / "o", ("--config", str(cfg))))
        assert code == 2
        assert capsys.readouterr().err == "config error: threads: unknown key\n"


TOY_HEADER = "id\tcdr3a\tcdr3b\tpeptide\tepitope\tlabel\n"
DECISIONS_HEADER = "example_id\tprob_calibrated\tnonconformity\tdecision\tpredicted_label\n"
# (input, file name, contents, expected exit code); each file replaces one
# good input of an otherwise working command
MALFORMED = {
    "corpus-bad-residue": ("corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASB\tGIL\tEP1\t1\n", 1),
    "corpus-short-row": ("corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASS\n", 1),
    "corpus-no-label-column": ("corpus", "c.tsv", "id\tcdr3a\tcdr3b\tpeptide\tepitope\n", 1),
    "corpus-duplicate-id": (
        "corpus", "c.tsv", TOY_HEADER + "a\tCAV\tCASS\tGIL\tEP1\t1\n" * 2, 1,
    ),
    "corpus-huge-field": (
        "corpus", "c.tsv", TOY_HEADER + "a\t" + "A" * 200_000 + "\tCASS\tGIL\tEP1\t1\n", 1,
    ),
    "corpus-not-utf8": ("corpus", "c.tsv", TOY_HEADER.encode() + b"\xff\n", 1),
    "logits-three-fields": ("logits", "l.tsv", "ex00000\t0.5\t1\n", 1),
    "logits-unparseable": ("logits", "l.tsv", "ex00000\tabc\n", 1),
    "logits-missing-ids": ("logits", "l.tsv", "ex00000\t0.5\n", 1),
    "manifest-not-json": ("manifest", "m.json", "{not json", 1),
    "manifest-not-utf8": ("manifest", "m.json", b"\xff", 1),
    "config-not-json": ("config", "cfg.json", "{not json", 2),
    "config-not-utf8": ("config", "cfg.json", b"{\"a\": \"\xff\"}", 2),
    "config-not-object": ("config", "cfg.json", json.dumps({"conformal": 3}), 2),
    "config-bad-protocol": ("config", "cfg.json", json.dumps({"split": {"protocol": "x"}}), 2),
    "config-epsilon-string": ("config", "cfg.json", json.dumps({"conformal": {"epsilon": "x"}}), 2),
    "config-grid-null": ("config", "cfg.json", json.dumps({"sweep": {"grid": [None]}}), 2),
    "config-epochs-float": ("config", "cfg.json", json.dumps({"scorer": {"epochs": 1.5}}), 2),
    "config-epochs-bool": ("config", "cfg.json", json.dumps({"scorer": {"epochs": True}}), 2),
    "config-rate-string": (
        "config", "cfg.json", json.dumps({"scorer": {"learning_rate": "x"}}), 2,
    ),
    "config-kmer-string": ("config", "cfg.json", json.dumps({"scorer": {"kmer_size": "3"}}), 2),
    "config-two-fractions": (
        "config", "cfg.json", json.dumps({"split": {"fractions": [0.5, 0.5]}}), 2,
    ),
    # range checks of the stage types run at load, before any file is read
    "config-kmer-zero": ("config", "cfg.json", json.dumps({"scorer": {"kmer_size": 0}}), 2),
    "config-ncal-zero": ("config", "cfg.json", json.dumps({"simulate": {"n_cal": 0}}), 2),
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
    "decisions-bad-header": ("decisions", "d.tsv", "x\ty\n", 1),
    "decisions-bad-prob": ("decisions", "d.tsv", DECISIONS_HEADER + "a\tabc\t0.1\tpredict\t1\n", 1),
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
    "flag-sizes-not-integer": ("flag", "-", ("simulate", "--sizes", "1.5"), 2),
    "flag-epsilon-out-of-range": ("flag", "-", ("run", "--epsilon", "1.5"), 2),
    "flag-simulate-epsilon-zero": ("flag", "-", ("simulate", "--epsilon", "0"), 2),
    "flag-trials-zero": ("flag", "-", ("simulate", "--trials", "0"), 2),
    "flag-sizes-zero": ("flag", "-", ("simulate", "--sizes", "0,100"), 2),
    "flag-cal-fraction-out-of-range": ("flag", "-", ("split", "--cal-fraction", "1.5"), 2),
}
# the exact stderr of the cases whose message is part of the interface
MALFORMED_MESSAGES = {
    "decisions-predict-seven": "error: decisions line 2: expected predict with "
    "predicted_label 0 or 1, or abstain with none, got 'predict' with '7'\n",
    "flag-grid-not-number": "config error: --grid: expected a number, got 'a'\n",
    "flag-sizes-not-integer": "config error: --sizes: expected an integer, got '1.5'\n",
    "config-kmer-zero": "config error: scorer: kmer_size must be >= 1\n",
    "config-ncal-zero": "config error: simulate: n_cal and n_test must be >= 1\n",
    "flag-epsilon-out-of-range": "config error: conformal: epsilon must be in (0, 1)\n",
    "flag-simulate-epsilon-zero": "config error: simulate: epsilon must be in (0, 1)\n",
    "flag-trials-zero": "config error: simulate: n_trials must be >= 1\n",
    "flag-sizes-zero": "config error: simulate: sizes must all be >= 1, got 0\n",
    "flag-cal-fraction-out-of-range": "config error: split: cal_fraction must be in (0, 1)\n",
    "config-fractions-sum": "config error: split: fractions must sum to 1, got 1.5\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_error(tmp_path, capsys, case):
    kind, name, contents, expected = MALFORMED[case]
    path = tmp_path / name
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents, encoding="utf-8")
    dataset = str(path if kind == "corpus" else toy_dataset_path())
    out = str(tmp_path / "o")
    if kind == "flag":
        command, flag, value = contents
        argv = [command, "--dataset", dataset, "--out", out, flag, value]
    elif kind == "decisions":
        argv = ["metrics", "--dataset", dataset, "--decisions", str(path), "--out", out]
    else:
        argv = ["sweep", "--dataset", dataset, "--out", out]
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
    if case in MALFORMED_MESSAGES:
        assert err == MALFORMED_MESSAGES[case]


def test_benchmark_tracer_sees_every_target(tmp_path):
    # perfbench/traced_cli.py rebinds package names from outside; a renamed
    # target or a changed result type would silently drop its spans or counts
    repo = Path(__file__).resolve().parents[1]
    package_root = Path(tcrselect.__file__).resolve().parents[1]
    spans_path, out = tmp_path / "spans.json", tmp_path / "out"
    subprocess.run(
        [sys.executable, str(repo / "perfbench" / "traced_cli.py"), str(spans_path), "count",
         "--", "run", "--dataset", str(toy_dataset_path()), "--epsilon", "0.5",
         "--out", str(out)],
        capture_output=True, text=True, check=True, cwd=repo,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    trace = json.loads(spans_path.read_text())
    assert trace["missing_targets"] == []
    assert [s["name"] for s in trace["spans"] if "count_error" in s] == []
    (decide_span,) = [s for s in trace["spans"] if s["name"] == "conformal.decide"]
    rows = [
        line.split("\t") for line in (out / "decisions.tsv").read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    abstained = sum(row[3] == "abstain" for row in rows)
    assert decide_span["counts"] == {"decisions": len(rows), "abstained": abstained}
    assert 0 < abstained < len(rows)


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


def _readme_toy_commands() -> list[list[str]]:
    """The `tcrselect run` lines of the README's quick start, as argv."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line)[1:]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith('tcrselect run --dataset "$TOY"')
    ]


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

    def test_vacuous_rule_is_announced(self, tmp_path, capsys):
        # the label-free score is at most 0.5, so a threshold >= 0.5 keeps every row
        assert main(run_args(tmp_path / "r")) == 0
        lines = capsys.readouterr().out.splitlines()
        rule_line = next(line for line in lines if line.startswith("epsilon 0.2: threshold"))
        assert rule_line.endswith(" (rule cannot abstain: threshold >= 0.5)")
        rule = json.loads((tmp_path / "r" / "conformal_rule.json").read_text())
        assert rule["threshold"] >= 0.5
        decisions = (tmp_path / "r" / "decisions.tsv").read_text()
        assert "\tabstain\t" not in decisions

    def test_abstaining_rule_has_no_note(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r", ["--epsilon", "0.4"])) == 0
        assert "cannot abstain" not in capsys.readouterr().out
        assert "\tabstain\t" in (tmp_path / "r" / "decisions.tsv").read_text()

    def test_metrics_report_shape(self, tmp_path):
        out = tmp_path / "r"
        main(run_args(out))
        report = json.loads((out / "metrics.json").read_text())
        assert set(report["methods"]) == {
            "baseline", "temp_scaled", "conformal_selective",
        }
        assert report["methods"]["baseline"]["coverage"] == 1.0
        assert "output_dir" not in report["config"]
        assert "threads" not in report["config"]
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
        return PipelineResult(None, model, rule, test, test, probs, decisions, "")

    def test_saturation_ties_are_not_an_error(self):
        # sigmoid(37) == sigmoid(38) == 1.0, while 0.37 and 0.38 stay apart at
        # T = 100, so the AUROCs differ although scaling is monotone
        result = self.result([37.0, 38.0, -1.0, 0.5], [1, 0, 0, 1], 100.0)
        raw = sigmoid(result.test.logits)
        assert raw[0] == raw[1] == 1.0
        rows = _method_rows(result)
        assert rows["baseline"]["auroc"] == 0.625
        assert rows["temp_scaled"]["auroc"] == 0.5

    def test_decreasing_probabilities_raise(self):
        logits = np.array([2.0, 1.0, 3.0])
        _check_monotone(logits, np.array([0.7, 0.6, 0.8]))
        with pytest.raises(RuntimeError, match="monotone"):
            _check_monotone(logits, np.array([0.7, 0.6, 0.8]), np.array([0.6, 0.7, 0.8]))
