"""The tier-1 workflow's corpus-scale checks, one subcommand per step; `all` runs each in order
in its own interpreter. A step runs in a fresh temporary directory, calling `tcrselect` on PATH."""

import argparse
import contextlib
import filecmp
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tcrselect import (Dataset, SplitConfig, SyntheticSpec, cluster_by_identity,
                       coverage_experiment, deduplicate, export_tsv, generate_negatives,
                       ingest_tsv, motif_corpus, score, split_random, toy_dataset_path,
                       train_linear)
from tcrselect import cli, scorer
from tcrselect.calibration import TEMPERATURE_MIN
from tcrselect.scorer import _sparsetools, _training_matrix, encode_kmers


def corpus_100k():
    """The benchmarks' corpus, motif_corpus(100000, 1), and its random-split train part."""
    data = motif_corpus(100000, 1)
    return data, *split_random(data, SplitConfig()).take(data, "train")


def tcrselect(*args, **kwargs):
    """Run tcrselect, which must succeed; return its result and its RUSAGE_CHILDREN CPU time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(["tcrselect", *args], check=True, **kwargs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done, (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def distance_scale():
    """Exact clustering and dedup at corpus scale, on one core. The count filter still
    scores every pair, a tile of rows at a time, so these runs stay quadratic; the
    times are printed to show a slowdown, and the counts must hold. Clustering the
    cdr3b at 0.7 joins them into one component, where a candidate generator that
    collected every pair instead of streaming tiles fails the 64 MiB traced-peak gate."""
    core = {min(os.sched_getaffinity(0))}
    if os.sched_getaffinity(0) != core:
        # numpy's OpenBLAS sizes its thread pool at import, so pin, then start afresh
        os.sched_setaffinity(0, core)
        subprocess.run([sys.executable, __file__, "distance-scale"], check=True)
        return

    def timed(function, *args):
        cpu, wall = time.process_time(), time.perf_counter()
        result = function(*args)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        return result, f"{cpu:.2f} s process time, {wall:.2f} s wall"

    strings = sorted(set(motif_corpus(20000, 1).cdr3b))
    clusters, seconds = timed(cluster_by_identity, strings, 0.9)
    print(f"cluster {len(strings)} cdr3b at 0.9: {len(clusters)} clusters in {seconds}")
    assert len(clusters) == 2189, f"{len(clusters)} clusters, not 2189"
    for rows, expected in ((20000, 19991), (50000, 49975)):
        data = motif_corpus(rows, 1)
        kept, seconds = timed(deduplicate, data, 0.9)
        print(f"dedup {len(data)} rows at 0.9: {len(kept)} kept in {seconds}")
        assert len(kept) == expected, f"{len(kept)} kept, not {expected}"
    clusters, peak = traced_peak(cluster_by_identity, strings, 0.7)
    print(f"cluster {len(strings)} cdr3b at 0.7: {len(clusters)} clusters, "
          f"traced peak {peak / 2**20:.1f} MiB")
    assert len(clusters) == 1, f"{len(clusters)} clusters, not 1"
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB is not below 64 MiB"


def negatives_scale():
    """Negatives for 20,000 seeded positives over 400 epitopes at r = 0.2: 80,000
    draws from about 8 million non-cognate pairs. Listing the pairs peaked at
    601 MiB traced; numbering them must stay below 64 MiB."""
    rng = random.Random(1)
    residues = "ACDEFGHIKLMNPQRSTVWY"

    def seq(n):
        return "".join(rng.choices(residues, k=n))

    peptides = [seq(9) for _ in range(400)]
    epitopes = [rng.randrange(400) for _ in range(20000)]
    positives = Dataset([f"p{i}" for i in range(20000)], [seq(10) for _ in range(20000)],
                        [seq(12) for _ in range(20000)], [peptides[e] for e in epitopes],
                        [f"EP{e}" for e in epitopes], [1] * 20000)
    start = time.process_time()
    combined = generate_negatives(positives, 0.2, seed=1)
    seconds = time.process_time() - start
    tracemalloc.start()
    generate_negatives(positives, 0.2, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{len(combined) - len(positives)} negatives for {len(positives)} positives over "
          f"{len(set(epitopes))} epitopes: {seconds:.2f} s process time, "
          f"traced peak {peak / 2**20:.1f} MiB")
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB is not below 64 MiB"


def scorer_scale():
    """`tcrselect run` on the 100k-row corpus, random protocol: a baseline test AUROC
    below 0.925 means an under-trained model (300 plain gradient-descent epochs gave
    0.912). A child writes the corpus, so the run forks from a small parent and
    RUSAGE_CHILDREN's peak is the run's own; it is printed, not gated. The same run
    in process, under tracemalloc, must hold below 9 traced bytes per window when the
    training matrix allocates (6.95 with the dataset, its train part and the manifest
    freed by then, 15.84 when the command kept them). Three traced
    peaks are gated: ingest_tsv of the corpus must stay below 20 MiB (18.2 MiB
    with the CDR3 columns as byte buffers, 27.3 MiB with one str per cell),
    train_linear on the train part below 15.9 bytes per window (14.46 with the
    k-mer digits written from those buffers, 16.2 when the part's fields were joined
    into one text), and score of the test part below 32 bytes per window (66.8 when
    it built one count matrix for the whole part). score's logits of the test part
    must have the bits of tests/kmer_oracle.score, which sums each row in a Python
    loop."""
    subprocess.run([sys.executable, "-c", "import tcrselect as t; "
                    "t.export_tsv(t.motif_corpus(100000, 1), 'corpus_100k.tsv')"], check=True)
    _, cpu = tcrselect("run", "--dataset", "corpus_100k.tsv", "--protocol", "random",
                       "--out", "scale/")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"run on 100000 rows: {cpu:.2f} s process time, peak RSS {peak / 1024:.1f} MB")
    auroc = json.loads(Path("scale/metrics.json").read_bytes())["methods"]["baseline"]["auroc"]
    print(f"baseline test AUROC {auroc:.4f}")
    assert auroc >= 0.925, f"baseline test AUROC {auroc:.4f} is below 0.925"
    training_matrix, live = scorer._training_matrix, []

    def probe(rank, per_row):
        live.append((tracemalloc.get_traced_memory()[0], len(rank)))
        return training_matrix(rank, per_row)

    scorer._training_matrix = probe
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = traced_peak(cli.main, ["run", "--dataset", "corpus_100k.tsv",
                                             "--protocol", "random", "--out", "traced/"])
    finally:
        scorer._training_matrix = training_matrix
    assert code == 0, f"run in process exited with {code}"
    (live, n_windows), = live
    print(f"run in process: {live / 2**20:.1f} MiB traced live as the training matrix "
          f"allocates, {live / n_windows:.2f} bytes per window ({n_windows} windows)")
    assert live < 9 * n_windows, f"{live / n_windows:.2f} bytes per window is not below 9"
    data, peak = traced_peak(ingest_tsv, "corpus_100k.tsv")
    print(f"ingest_tsv of {len(data)} rows: traced peak {peak / 2**20:.1f} MiB")
    assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.1f} MiB is not below 20 MiB"
    train, test = split_random(data, SplitConfig()).take(data, "train", "test")
    n_windows = len(encode_kmers(train, 3).code)
    model, peak = traced_peak(train_linear, train)
    print(f"train_linear on {len(train)} rows: traced peak {peak / 2**20:.1f} MiB, "
          f"{peak / n_windows:.2f} bytes per window ({n_windows} windows)")
    assert peak < 15.9 * n_windows, f"{peak / n_windows:.2f} bytes per window is not below 15.9"
    n_windows = len(encode_kmers(test, 3).code)
    table, peak = traced_peak(score, model, test)
    print(f"score on {len(test)} rows: traced peak {peak / 2**20:.1f} MiB, "
          f"{peak / n_windows:.1f} bytes per window ({n_windows} windows)")
    assert peak < 32 * n_windows, f"{peak / n_windows:.1f} bytes per window is not below 32"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from kmer_oracle import score as oracle_score
    start = time.process_time()
    expected = oracle_score(model, test)
    assert [record.example_id for record in expected] == list(table.ids)
    differ = sum(a.hex() != record.logit.hex()
                 for a, record in zip(table.logits.tolist(), expected))
    print(f"oracle scored {len(expected)} rows in {time.process_time() - start:.2f} s "
          f"process time; {differ} logits differ from score's")
    assert differ == 0, f"{differ} logits differ from the oracle's"


def traced_peak(function, *args):
    """function(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        return function(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def readers_agree():
    """The ingest_logits_sweep inputs, the 100k-row corpus and a seeded logit TSV, are
    read a block at a time; a CRLF corpus and logits with a blank line, by the
    per-row loops. stdout and every output but run_log.txt must be byte-identical."""
    data = corpus_100k()[0]
    rng = random.Random(1)
    logits = [f"{row_id}\t{(1.5 if label else -1.5) + rng.gauss(0.0, 1.5)!r}\n"
              for row_id, label in zip(data.ids, data.labels.tolist())]
    os.makedirs("readers/block")
    os.makedirs("readers/rows")
    export_tsv(data, "readers/block/corpus.tsv")
    with open("readers/block/corpus.tsv", encoding="utf-8", newline="") as handle:
        corpus = handle.read()
    inputs = {"block": (corpus, "".join(logits)),
              "rows": (corpus.replace("\n", "\r\n"), logits[0] + "\n" + "".join(logits[1:]))}
    stdout = {}
    for name, texts in inputs.items():
        for file_name, text in zip(("corpus.tsv", "logits.tsv"), texts):
            Path(f"readers/{name}/{file_name}").write_text(text, encoding="utf-8", newline="")
        done, seconds = tcrselect("sweep", "--dataset", "corpus.tsv", "--scorer", "logits",
                                  "--logits", "logits.tsv", "--protocol", "random", "--out", "out",
                                  cwd=f"readers/{name}", capture_output=True, text=True)
        stdout[name] = done.stdout
        print(f"{name} readers: sweep in {seconds:.2f} s process time")
    assert stdout["block"] == stdout["rows"], stdout
    outputs = sorted(os.listdir("readers/block/out"))
    assert outputs == sorted(os.listdir("readers/rows/out")), outputs
    for name in sorted(set(outputs) - {"run_log.txt"}):
        assert filecmp.cmp(f"readers/block/out/{name}", f"readers/rows/out/{name}",
                           shallow=False), name
    print(f"identical: stdout and {len(outputs) - 1} files")


def kernels_agree():
    """train_random's training matrix: the scorer's products, which call scipy's compiled
    kernels directly, must give the bits of scipy.sparse's csr_matrix @ x and .T @ z on
    seeded vectors spanning 16 orders of magnitude. Loading the kernels alone is timed
    next to `import scipy.sparse`; both products are timed per pass."""
    windows = encode_kmers(corpus_100k()[1], 3)
    start = time.process_time()
    _sparsetools()
    print(f"load scipy's sparse kernels: {time.process_time() - start:.4f} s process time")
    start = time.process_time()
    import scipy.sparse
    print(f"import scipy.sparse: {time.process_time() - start:.3f} s process time")
    package = _training_matrix(windows.take_first_seen()[0], windows.per_row)
    reference = scipy.sparse.csr_matrix((package.data, package.indices, package.indptr),
                                        shape=package.shape)
    transpose = reference.T
    products = {"package": (package.matvec, package.rmatvec),
                "scipy.sparse": (reference.__matmul__, transpose.__matmul__)}
    n_rows, n_cols = package.shape
    print(f"{n_rows} rows, {n_cols} columns, {len(package.data)} stored entries "
          f"from {len(windows.code)} windows")
    rng, trials, mismatches = np.random.default_rng(1), 5, 0
    cpu = {name: [0.0, 0.0] for name in products}
    for _ in range(trials):
        vectors = (rng.normal(size=n_cols) * 10.0 ** rng.uniform(-8, 8, size=n_cols),
                   rng.normal(size=n_rows) * 10.0 ** rng.uniform(-8, 8, size=n_rows))
        got = {name: [] for name in products}
        for name, pair in products.items():
            for i, (product, vector) in enumerate(zip(pair, vectors)):
                start = time.process_time()
                got[name].append(product(vector).view(np.int64))
                cpu[name][i] += time.process_time() - start
        for direction, a, b in zip(("forward", "transpose"), *got.values()):
            differ = int(np.count_nonzero(a != b))
            if differ:
                print(f"{direction}: {differ} of {len(a)} elements differ")
            mismatches += differ
    for name, (forward, transpose_cpu) in cpu.items():
        print(f"{name}: {1e3 * forward / trials:.2f} ms forward + "
              f"{1e3 * transpose_cpu / trials:.2f} ms transpose per pass")
    assert mismatches == 0, f"{mismatches} elements differ between the kernels"
    print(f"identical: {trials} forward and {trials} transpose products")


def simulate_defaults():
    """The coverage Monte Carlo as the README documents it: 200 trials at n_cal = n_test
    = 2000, epsilon 0.2; mean coverage within 4 SE of [1-eps, 1-eps + 1/(n_cal+1)].
    Then 2,016 trials over n_cal and epsilon: each raw-score coverage must have the bits
    of the trial that fits a temperature (tests/coverage_oracle.py), unless that fit
    clamps T at its lower bound, where the scaled scores round on two branches."""
    _, cpu = tcrselect("simulate", "--out", "simulate_defaults/")
    print(f"simulate: {cpu:.2f} s process time")
    _, cpu = tcrselect("simulate", "--sizes", "200,2000", "--trials", "20",
                       "--out", "simulate_sizes/")
    print(f"simulate --sizes 200,2000 --trials 20: {cpu:.2f} s process time")
    report = json.loads(Path("simulate_defaults/simulate.json").read_bytes())
    n_cal, n_trials, epsilon = report["n_cal"], report["n_trials"], report["epsilon"]
    assert (n_cal, n_trials, epsilon) == (2000, 200, 0.2), (n_cal, n_trials, epsilon)
    se = report["sd_coverage"] / math.sqrt(n_trials)
    low, high = 1 - epsilon - 4 * se, 1 - epsilon + 1 / (n_cal + 1) + 4 * se
    mean = report["mean_coverage"]
    print(f"mean coverage {mean:.4f}, allowed [{low:.4f}, {high:.4f}]")
    assert low <= mean <= high, f"mean coverage {mean} outside [{low}, {high}]"
    rows = json.loads(Path("simulate_sizes/simulate.json").read_bytes())["rows"]
    assert [row["n_cal"] for row in rows] == [200, 2000], rows
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    import coverage_oracle
    trials, moved, clamped = 0, 0, 0
    for seed, n_cal, epsilon in itertools.product((29, 7919), (200, 400, 1000, 2000),
                                                  (0.05, 0.1, 0.2)):
        spec = SyntheticSpec(n_cal=n_cal, epsilon=epsilon, seed=seed, n_trials=84)
        fitted = coverage_oracle.trials(spec)
        for t, (coverage, (expected, temperature)) in enumerate(
                zip(coverage_experiment(spec).coverages, fitted)):
            clamped += temperature == TEMPERATURE_MIN
            # counts over n_test: equal values are equal bits
            if coverage != expected:
                moved += 1
                assert temperature == TEMPERATURE_MIN, (spec, t, coverage, expected, temperature)
        trials += spec.n_trials
    print(f"{trials} trials: {moved} raw-score coverages differ from the fitted-temperature "
          f"ones; {clamped} fits clamp T at {TEMPERATURE_MIN}")


def assert_replay_matches(out):
    """Every file of {out}.replay/ but run_log.txt, six of them, is byte-identical to
    the same file of {out}/."""
    names = [name for name in sorted(os.listdir(f"{out}.replay")) if name != "run_log.txt"]
    for name in names:
        assert filecmp.cmp(f"{out}/{name}", f"{out}.replay/{name}", shallow=False), name
    assert len(names) == 6, \
        f"{out}.replay/ holds {len(names)} files besides run_log.txt, expected 6"


def quickstart():
    """The README's three quick-start runs, from outside the checkout; each replayed
    from a manifest that `split` wrote with the same flags must write the same bytes
    in every file but run_log.txt. A random sweep, fresh and replayed from that
    split's manifest, must write the same coverage_risk.csv and sweep.json and
    nothing on stderr."""
    toy = str(toy_dataset_path())
    runs = {  # output: (split flags, run-only flags); split takes no --epsilon
        "results": (["--protocol", "random"], ["--epsilon", "0.2"]),
        "results_epitope": (["--protocol", "epitope_held_out", "--k-epitopes", "2"], []),
        "results_distance": (["--protocol", "distance_aware"], []),
    }
    for out, (split_flags, run_flags) in runs.items():
        tcrselect("run", "--dataset", toy, *split_flags, *run_flags, "--out", f"{out}/")
    subprocess.run(["ls", *(f"{out}/decisions.tsv" for out in runs)], check=True)
    for out, (split_flags, run_flags) in runs.items():
        tcrselect("split", "--dataset", toy, *split_flags, "--out", f"{out}.split/")
        tcrselect("run", "--dataset", toy, *split_flags, *run_flags,
                  "--manifest", f"{out}.split/manifest.json", "--out", f"{out}.replay/")
        assert_replay_matches(out)
        print(f"{out}: the replay matches in 6 files")
    replay = ["--manifest", "results.split/manifest.json"]
    for out, flags in (("sweep", []), ("sweep.replay", replay)):
        done, _ = tcrselect("sweep", "--dataset", toy, "--protocol", "random", *flags,
                            "--out", f"{out}/", capture_output=True, text=True)
        assert done.stderr == "", done.stderr
    for name in ("coverage_risk.csv", "sweep.json"):
        assert filecmp.cmp(f"sweep/{name}", f"sweep.replay/{name}", shallow=False), name
    print("sweep: the replay matches in coverage_risk.csv and sweep.json, with empty stderr")


def replay_scale():
    """`tcrselect run` on motif_corpus(20000, 1) exported in shuffled row order, under
    random and under epitope_held_out --k-epitopes 3, each replayed with --manifest
    on the manifest.json it wrote. The run takes its parts by position in the split's
    column; the replay binds the manifest's ids to the dataset's rows first, then takes
    by position too. Every file the replay writes but run_log.txt must be
    byte-identical to the run's."""
    rows = list(motif_corpus(20000, 1))
    random.Random(1).shuffle(rows)
    export_tsv(Dataset(*zip(*rows)), "shuffled.tsv")
    runs = {"random": ["--protocol", "random"],
            "epitope": ["--protocol", "epitope_held_out", "--k-epitopes", "3"]}
    for out, flags in runs.items():
        _, cpu = tcrselect("run", "--dataset", "shuffled.tsv", *flags, "--out", f"{out}/")
        _, replay_cpu = tcrselect("run", "--dataset", "shuffled.tsv", *flags,
                                  "--manifest", f"{out}/manifest.json", "--out", f"{out}.replay/")
        assert_replay_matches(out)
        print(f"{out}: run {cpu:.2f} s and replay {replay_cpu:.2f} s process time; "
              "the replay matches in 6 files")


STEPS = {step.__name__.replace("_", "-"): step for step in (
    distance_scale, negatives_scale, scorer_scale, readers_agree, kernels_agree,
    simulate_defaults, quickstart, replay_scale)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=[*STEPS, "all"])
    step = parser.parse_args().step
    if step == "all":
        for name in STEPS:
            print(f"== {name}", flush=True)
            subprocess.run([sys.executable, __file__, name], check=True)
        return
    sys.stdout.reconfigure(line_buffering=True)  # in order with the children's output
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        STEPS[step]()


if __name__ == "__main__":
    main()
