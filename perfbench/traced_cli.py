"""Run the tcrselect CLI in this process with spans around calls into each layer.

    python3 perfbench/traced_cli.py SPANS_JSON {time,count} -- <tcrselect args>

Spans are installed from outside: each public function is replaced, in the
namespace of the module that calls it, by a wrapper that records the span's
name, start, end, parent span and run id, plus the counts named below. Nothing
under src/ changes. Spans stay in memory and are written to SPANS_JSON when
the command ends.

Mode "count" also installs exact per-call counters whose cost would distort
the timings (one call per identity test, one per logit line), so the runner
uses it in a separate pass and takes only counts from it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import uuid

# (module or module:class, attribute, span name, counts taken from (args, result))
TIMED_TARGETS = (
    ("tcrselect.cli", "ingest_tsv", "data.ingest_tsv",
     lambda a, r: {"rows": len(r)}),
    ("tcrselect.cli", "deduplicate", "data.deduplicate",
     lambda a, r: {"dropped": len(a[0]) - len(r)}),
    ("tcrselect.data:Dataset", "subset", "data.subset", None),
    ("tcrselect.cli", "split_random", "splits.split",
     lambda a, r: {"test": len(r.test_ids), "rows": len(a[0])}),
    ("tcrselect.cli", "split_epitope_held_out", "splits.split",
     lambda a, r: {"test": len(r.test_ids), "rows": len(a[0])}),
    ("tcrselect.cli", "split_distance_aware", "splits.split",
     lambda a, r: {"test": len(r.test_ids), "rows": len(a[0])}),
    ("tcrselect.splits", "cluster_by_identity", "distance.cluster_by_identity",
     lambda a, r: {"strings": len(a[0]), "clusters": len(r),
                   "largest": max((len(c) for c in r), default=0)}),
    ("tcrselect.cli", "run_pipeline", "conformal.run_pipeline", None),
    ("tcrselect.conformal", "train_linear", "scorer.train_linear", None),
    ("tcrselect.scorer", "build_vocabulary", "scorer.build_vocabulary",
     lambda a, r: {"vocab": len(r)}),
    ("tcrselect.scorer", "loss_and_grad", "scorer.loss_and_grad", None),
    ("tcrselect.conformal", "score", "scorer.score",
     lambda a, r: {"rows": len(a[1])}),
    ("tcrselect.conformal", "ingest_logits", "scorer.ingest_logits",
     lambda a, r: {"records": len(r)}),
    ("tcrselect.conformal", "fit_temperature", "calibration.fit_temperature", None),
    ("tcrselect.conformal", "apply_temperature", "calibration.apply_temperature",
     lambda a, r: {"rows": len(a[0])}),
    ("tcrselect.conformal", "fit_threshold", "conformal.fit_threshold", None),
    ("tcrselect.conformal", "decide", "conformal.decide",
     lambda a, r: {"decisions": len(r),
                   "abstained": sum(d.decision == "abstain" for d in r)}),
    ("tcrselect.cli", "ece", "calibration.quality", None),
    ("tcrselect.cli", "nll", "calibration.quality", None),
    ("tcrselect.cli", "brier", "calibration.quality", None),
    ("tcrselect.cli", "auroc", "metrics.rank", None),
    ("tcrselect.cli", "auprc", "metrics.rank", None),
    ("tcrselect.cli", "selective_error", "metrics.selective_error", None),
    ("tcrselect.cli", "coverage_risk_sweep", "metrics.coverage_risk_sweep", None),
    ("tcrselect.cli", "coverage_experiment", "synthetic.experiment", None),
    ("tcrselect.cli", "calibration_size_sweep", "synthetic.experiment", None),
    ("tcrselect.synthetic", "generate", "synthetic.generate",
     lambda a, r: {"records": len(r[0]) + len(r[1])}),
    ("tcrselect.synthetic", "fit_temperature", "calibration.fit_temperature", None),
    ("tcrselect.synthetic", "apply_temperature", "calibration.apply_temperature",
     lambda a, r: {"rows": len(a[0])}),
    ("tcrselect.synthetic", "fit_threshold", "conformal.fit_threshold", None),
)

# (module, attribute, counter name) for the identity predicate
PAIR_TARGETS = (
    ("tcrselect.data", "identity_at_least", "distance.pairs_tested.dedup"),
    ("tcrselect.distance", "identity_at_least", "distance.pairs_tested.cluster"),
)


class Tracer:
    """Spans and counters of one traced command."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                # the tracer must never change the program's outcome, so a
                # count that no longer fits the program's API is reported
                try:
                    span["counts"] = count(args, result)
                except Exception as err:  # noqa: BLE001
                    span["count_error"] = f"{type(err).__name__}: {err}"
            return result
        return traced

    def count_pairs(self, name, fn):
        linked_name = "distance.pairs_linked"
        self.counters.setdefault(name, 0)
        self.counters.setdefault(linked_name, 0)

        def counted(*args, **kwargs):
            linked = fn(*args, **kwargs)
            self.counters[name] += 1
            self.counters[linked_name] += bool(linked)
            return linked
        return counted

    def counting_open(self, name):
        """An open() for one module that counts the lines read through it."""
        self.counters.setdefault(name, 0)

        def patched_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return _LineCountingFile(handle, self.counters, name) if "r" in mode else handle
        return patched_open


class _LineCountingFile:
    """A text file whose iteration adds each line read to counters[name]."""

    def __init__(self, handle, counters: dict[str, int], name: str) -> None:
        self._handle = handle
        self._counters = counters
        self._name = name

    def __iter__(self):
        for line in self._handle:
            self._counters[self._name] += 1
            yield line

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


def _resolve(owner: str):
    """The module, or module:class, a target lives in; None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


def _rebind(tracer: Tracer, owner_name: str, attr: str, make) -> None:
    owner = _resolve(owner_name)
    if owner is None or not callable(getattr(owner, attr, None)):
        tracer.missing.append(f"{owner_name}.{attr}")
        return
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: Tracer, mode: str) -> None:
    """Rebind every target present; record the ones the program no longer has."""
    for owner_name, attr, span_name, count in TIMED_TARGETS:
        _rebind(tracer, owner_name, attr, lambda fn: tracer.wrap(span_name, fn, count))
    if mode == "count":
        for owner_name, attr, counter in PAIR_TARGETS:
            _rebind(tracer, owner_name, attr, lambda fn: tracer.count_pairs(counter, fn))
        _resolve("tcrselect.scorer").open = tracer.counting_open("scorer.logit_lines_read")


def main(argv: list[str]) -> int:
    spans_path, mode, separator, *cli_args = argv
    if mode not in ("time", "count") or separator != "--":
        print("usage: traced_cli.py SPANS_JSON {time,count} -- <tcrselect args>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer, mode)
    import tcrselect.cli as cli

    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"run": tracer.run_id, "mode": mode, "pid": os.getpid(),
                       "missing_targets": tracer.missing, "counters": tracer.counters,
                       "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
