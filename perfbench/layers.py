"""Per-layer metrics from the spans and counters of traced_cli.py.

A layer's self time is its spans' duration minus the part covered by their
child spans. Times are in seconds, summed over every call in one command.
"""

from __future__ import annotations


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds, and summed counts, per span name."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    by_name: dict[str, dict] = {}
    for span in spans:
        entry = by_name.setdefault(
            span["name"], {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered.get(span["id"], 0.0)
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return by_name


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traced: dict, counting: dict, bytes_written: int) -> dict[str, float]:
    """Every per-layer metric of one traced command plus its counting pass.

    Timings come from the traced run; the per-pair and per-line counts come
    only from the counting pass, whose counters would distort the timings.
    """
    spans = aggregate(traced["spans"])
    counted = aggregate(counting["spans"])
    counters = counting["counters"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def count(name: str, key: str, source: dict = spans) -> int:
        return source.get(name, {}).get("counts", {}).get(key, 0)

    lines_read = counters.get("scorer.logit_lines_read", 0)
    tested_dedup = counters.get("distance.pairs_tested.dedup", 0)
    tested_cluster = counters.get("distance.pairs_tested.cluster", 0)
    linked = counters.get("distance.pairs_linked", 0)
    decisions = count("conformal.decide", "decisions")
    main_s = total("cli.main")
    return {
        "scorer.train_s": total("scorer.train_linear"),
        "scorer.vocab_s": total("scorer.build_vocabulary"),
        "scorer.featurize_s": self_s("scorer.train_linear"),
        "scorer.gd_s": total("scorer.loss_and_grad"),
        "scorer.gd_calls": calls("scorer.loss_and_grad"),
        "scorer.score_s": total("scorer.score"),
        "scorer.rows_scored": count("scorer.score", "rows"),
        "scorer.vocab_size": count("scorer.build_vocabulary", "vocab"),
        "scorer.ingest_logits_s": total("scorer.ingest_logits"),
        "scorer.logit_lines_read": lines_read,
        "scorer.logit_read_ratio": _ratio(
            count("scorer.ingest_logits", "records", counted), lines_read
        ),
        "distance.cluster_s": total("distance.cluster_by_identity"),
        "distance.strings": count("distance.cluster_by_identity", "strings"),
        "distance.clusters": count("distance.cluster_by_identity", "clusters"),
        "distance.largest_cluster": count("distance.cluster_by_identity", "largest"),
        "distance.pairs_tested.dedup": tested_dedup,
        "distance.pairs_tested.cluster": tested_cluster,
        "distance.pairs_linked": linked,
        "distance.link_ratio": _ratio(linked, tested_dedup + tested_cluster),
        "data.ingest_tsv_s": total("data.ingest_tsv"),
        "data.rows_ingested": count("data.ingest_tsv", "rows"),
        "data.deduplicate_s": total("data.deduplicate"),
        "data.dedup_rows_dropped": count("data.deduplicate", "dropped"),
        "data.subset_s": total("data.subset"),
        "splits.split_s": self_s("splits.split"),
        "splits.test_fraction": _ratio(
            count("splits.split", "test"), count("splits.split", "rows")
        ),
        "calibration.fit_temperature_s": total("calibration.fit_temperature"),
        "calibration.fit_temperature_calls": calls("calibration.fit_temperature"),
        "calibration.apply_temperature_s": total("calibration.apply_temperature"),
        "calibration.rows_calibrated": count("calibration.apply_temperature", "rows"),
        "calibration.quality_s": total("calibration.quality"),
        "conformal.run_pipeline_self_s": self_s("conformal.run_pipeline"),
        "conformal.fit_threshold_s": total("conformal.fit_threshold"),
        "conformal.decide_s": total("conformal.decide"),
        "conformal.decisions": decisions,
        "conformal.abstain_frac": _ratio(
            count("conformal.decide", "abstained"), decisions
        ),
        "metrics.rank_s": total("metrics.rank"),
        "metrics.selective_error_s": total("metrics.selective_error"),
        "metrics.sweep_s": total("metrics.coverage_risk_sweep"),
        "synthetic.generate_s": total("synthetic.generate"),
        "synthetic.experiment_self_s": self_s("synthetic.experiment"),
        "synthetic.trials": calls("synthetic.generate"),
        "synthetic.records_built": count("synthetic.generate", "records"),
        "cli.main_s": main_s,
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
    }
