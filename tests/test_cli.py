"""Command-line interface, exercised in-process through main(argv)."""

import json
from pathlib import Path

import pytest

from tcrselect.cli import main
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

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        code = main(run_args(tmp_path / "o", ("--config", str(cfg))))
        assert code == 2
        assert capsys.readouterr().err == "config error: threads: unknown key\n"


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


class TestRun:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(run_args(out)) == 0
        for name in RUN_OUTPUTS:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "conformal_selective" in stdout

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
