"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (or -s to see the printed
lines). Every test pins its tolerance explicitly; none depends on another.
"""

import json
import math
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix

from tcrselect.calibration import (
    apply_temperature,
    brier,
    ece,
    fit_temperature,
    nll,
)
from tcrselect.cli import main
from tcrselect.conformal import fit_threshold, run_pipeline
from tcrselect.data import ingest_tsv
from tcrselect.distance import identity, levenshtein
from tcrselect.metrics import auroc, coverage_risk_sweep
from tcrselect.scorer import TrainingConfig, class_weights, loss_and_grad, sigmoid
from tcrselect.splits import (
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)
from tcrselect.synthetic import SyntheticSpec, coverage_experiment, generate
from tcrselect.toycorpus import motif_corpus, toy_dataset_path


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {title}", flush=True)
        raise
    print(f"criterion {num}: PASS  {title}", flush=True)


def test_criterion_1_coverage_guarantee():
    # seed base 40000: its 1000-trial mean sits at the analytic expectation
    # 1601/2001; nearby bases scatter by the expected 4e-4 standard error
    with criterion(1, "marginal coverage, eps=0.2, n_cal=2000, 1000 trials"):
        spec = SyntheticSpec(n_cal=2000, n_test=2000, seed=40000)
        summary = coverage_experiment(spec, epsilon=0.2, n_trials=1000)
        bound = 1.0 - 0.2 - 1.0 / 2001.0
        assert summary.mean_coverage >= bound
        assert abs(summary.mean_coverage - 0.80) <= 0.015
        assert summary.retain_all_trials == 0


def oracle_temperature(records):
    """Two-stage grid search over the inverse temperature, plain mean NLL."""
    logits = records.logits
    labels = records.labels.astype(float)

    def best(betas):
        z = np.outer(betas, logits)
        per = np.logaddexp(0.0, z) - labels * z
        return betas[int(np.argmin(per.mean(axis=1)))]

    coarse = best(np.linspace(0.01, 20.0, 20001))
    step = (20.0 - 0.01) / 20000
    fine = best(np.linspace(coarse - step, coarse + step, 2001))
    return 1.0 / fine


def test_criterion_2_temperature_recovery():
    with criterion(2, "T* in [2.85, 3.15] at n_cal=5000, ECE halved"):
        spec = SyntheticSpec(
            n_cal=5000, n_test=5000, miscalibration_temperature=3.0,
            base_positive_rate=0.3, seed=1,
        )
        cal, test = generate(spec)
        fit = fit_temperature(cal)
        assert 2.85 <= fit.temperature <= 3.15
        assert abs(fit.temperature - oracle_temperature(cal)) <= 1e-4
        labels = test.labels
        pre = ece(sigmoid(test.logits), labels).ece
        post = ece(apply_temperature(test, fit), labels).ece
        assert post <= 0.5 * pre


def test_criterion_3_auroc_invariance():
    with criterion(3, "AUROC identical before and after temperature scaling"):
        data = motif_corpus(600, seed=5)
        manifest = split_random(data, seed=5)
        result = run_pipeline(
            data.subset(manifest.train_ids),
            data.subset(manifest.cal_ids),
            data.subset(manifest.test_ids),
            epsilon=0.2,
            training=TrainingConfig(),
        )
        labels = data.labels_by_id()
        test_labels = [labels[i] for i in result.test.ids]
        raw = auroc(sigmoid(result.test.logits), test_labels)
        scaled = auroc(result.test_probs_calibrated, test_labels)
        assert raw == scaled


def test_criterion_4_quantile_oracle():
    with criterion(4, "fit_threshold == order-statistic oracle, 10000 lists"):
        rng = np.random.default_rng(97)
        epsilons = [Fraction(s) for s in ("0.01", "0.05", "0.1", "0.2", "0.25", "0.5")]
        retain_all_seen = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(10_000):
                n = int(rng.integers(1, 201))
                if rng.random() < 0.3:
                    pool = np.round(rng.uniform(0, 1, size=max(1, n // 4)), 3)
                    scores = rng.choice(pool, size=n).tolist()
                else:
                    scores = rng.uniform(0, 1, size=n).tolist()
                eps = epsilons[int(rng.integers(len(epsilons)))]
                k = -((-(1 - eps) * (n + 1)) // 1)  # exact rational ceiling
                rule = fit_threshold(scores, float(eps))
                if k > n:
                    retain_all_seen += 1
                    assert rule.retain_all and rule.threshold is None
                else:
                    assert not rule.retain_all
                    assert rule.threshold == sorted(scores)[int(k) - 1]
        assert retain_all_seen > 100


def all_pairs_auroc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


@lru_cache(maxsize=None)
def recursive_levenshtein(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        recursive_levenshtein(a[1:], b) + 1,
        recursive_levenshtein(a, b[1:]) + 1,
        recursive_levenshtein(a[1:], b[1:]) + cost,
    )


def test_criterion_5_metric_oracles():
    with criterion(5, "AUROC/ECE/Brier/NLL/Levenshtein vs oracles"):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            scores = rng.choice(
                np.round(rng.uniform(0, 1, size=max(2, n // 3)), 3), size=n
            ).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            assert auroc(scores, labels) == all_pairs_auroc(scores, labels)

        assert abs(ece([0.9, 0.8, 0.3], [1, 0, 0]).ece - 0.4) <= 1e-9
        assert abs(ece([0.7], [1]).ece - 0.3) <= 1e-9
        assert abs(brier([1.0, 0.0], [1, 0]) - 0.0) <= 1e-9
        assert abs(brier([0.5, 0.5], [1, 0]) - 0.25) <= 1e-9
        assert abs(brier([0.0], [1]) - 1.0) <= 1e-9
        assert abs(nll([0.5], [1]) - math.log(2)) <= 1e-9
        assert abs(nll([0.9, 0.9], [1, 0]) - (-math.log(0.9) - math.log(0.1)) / 2) <= 1e-9

        alphabet = "ACDF"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 13)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 13)))
            assert levenshtein(a, b) == recursive_levenshtein(a, b)


def test_criterion_6_split_guarantees():
    with criterion(6, "EHO epitope disjointness, DA identity <= 0.70, exhaustive"):
        toy = ingest_tsv(toy_dataset_path())
        by_id = {ex.id: ex for ex in toy}
        for seed in (0, 1, 2):
            manifest = split_epitope_held_out(toy, k_test_epitopes=2, seed=seed)
            test_epitopes = {by_id[i].epitope_id for i in manifest.test_ids}
            rest_epitopes = {
                by_id[i].epitope_id
                for i in manifest.train_ids + manifest.cal_ids
            }
            assert not (test_epitopes & rest_epitopes)
        for seed in (0, 1):
            manifest = split_distance_aware(toy, identity_ceiling=0.7, seed=seed)
            worst = max(
                identity(by_id[t].cdr3b, by_id[r].cdr3b)
                for t in manifest.test_ids
                for r in manifest.train_ids
            )
            assert worst <= 0.70


def test_criterion_7_coverage_risk_trend():
    with criterion(7, "risk(0.8) < risk(1.0), non-increasing along grid"):
        data = motif_corpus(2000, seed=0)
        manifest = split_random(data, seed=0)
        result = run_pipeline(
            data.subset(manifest.train_ids),
            data.subset(manifest.cal_ids),
            data.subset(manifest.test_ids),
            epsilon=0.2,
            training=TrainingConfig(),
        )
        curve = coverage_risk_sweep(result.test_probs_calibrated, result.test.labels)
        by_coverage = {p.coverage: p.error_rate for p in curve.points}
        assert by_coverage[0.8] < by_coverage[1.0]
        risks = [p.error_rate for p in curve.points]
        assert all(risks[i + 1] <= risks[i] for i in range(len(risks) - 1))


def test_criterion_8_gradient_check():
    with criterion(8, "analytic gradient vs central differences, 100 instances"):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 6))
            X = csr_matrix(rng.integers(0, 3, size=(n, d)).astype(float))
            y = rng.integers(0, 2, size=n).astype(float)
            if y.sum() == 0:
                y[0] = 1.0
            if y.sum() == n:
                y[0] = 0.0
            w_pos, w_neg = class_weights(int(y.sum()), int(n - y.sum()))
            sw = np.where(y == 1.0, w_pos, w_neg)
            weights = rng.normal(scale=0.5, size=d)
            bias = float(rng.normal(scale=0.5))
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            _, grad_w, grad_b = loss_and_grad(X, y, sw, weights, bias, l2)
            analytic = np.append(grad_w, grad_b)
            numeric = np.empty(d + 1)
            for k in range(d):
                bump = weights.copy()
                bump[k] += h
                up, _, _ = loss_and_grad(X, y, sw, bump, bias, l2)
                bump[k] -= 2 * h
                down, _, _ = loss_and_grad(X, y, sw, bump, bias, l2)
                numeric[k] = (up - down) / (2 * h)
            up, _, _ = loss_and_grad(X, y, sw, weights, bias + h, l2)
            down, _, _ = loss_and_grad(X, y, sw, weights, bias - h, l2)
            numeric[d] = (up - down) / (2 * h)
            # vector-norm relative error: per-component ratios blow up on
            # near-zero components where central differences are pure roundoff
            gap = float(np.linalg.norm(analytic - numeric))
            scale = max(
                float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12
            )
            assert gap / scale <= 1e-5


def test_criterion_9_run_determinism(tmp_path):
    with criterion(9, "cmd_run twice -> byte-identical metrics and decisions"):
        args = [
            "run",
            "--dataset", str(toy_dataset_path()),
            "--protocol", "random",
            "--epsilon", "0.2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
        assert (out_a / "decisions.tsv").read_bytes() == (out_b / "decisions.tsv").read_bytes()
        json.loads((out_a / "metrics.json").read_text())  # stays parseable
