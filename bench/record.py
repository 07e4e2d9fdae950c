"""Measure the working tree against a base commit, in pairs, in one file.

    python3 bench/record.py --base HEAD~1 --out BENCH_25.json

Both sides run from sibling snapshots in one temporary directory, with
names of one length so that their paths have one length too: `base`, the
base commit by `git archive`, and `chng`, the working tree's tracked
files and its untracked files that git does not ignore; `.git` is only
read.  Each --seeds value is one round: per workload, one untraced
`perfbench/run.py` pair at that seed; then one pair of every scale case,
each side in a fresh child process under a --budget second limit.  Last,
one traced pair per workload at the first seed gives counts (pivots,
solves, calls) next to its times.  A pair's sides run one right after
the other, the first side alternating by round.  --workload and --case
are repeatable: naming any runs only what is named; naming none, all.

A case times one call of its routine after an untimed set-up, with the
solver iterations and the child's own peak RSS; over budget it is a
"timeout" with no time.  Children on both sides run this script's copy
in `chng`, import lcckit from their own snapshot's `src/` and have BLAS
on one thread.  The routines: one `lp.solve` of lcc's program; the 1sv
rule on the center-difference projection; `train_linear_svm`;
`train_fqcc`; procedure 2's klcc sigma chain, warm-started over the 15
grid sigmas (pivots summed); one cold `train_klcc`; one cold `lp.solve`
of a seeded dense 400 x 400 program with boxed columns; `predict_saved`
of an RBF klcc model on 800 stored rows, made without training; `lcckit
predict` on a CSV written first to a scratch directory.  All on
`scale_data`, with lam 2, sigma -2^-7 and the RBF median width.  Last,
`lcckit benchmark`'s procedure 1 with klcc,lcc,lda,svm over 20 runs on
the 300-row spiral shape, seed 0, its klcc pivots summed.

Each workload's end-to-end metrics in BENCHMARK.json, and each case's
time and peak RSS, are compared pair by pair: a win when the change's
value is better by the metric's direction, a loss when worse.  A failed
run (its output check fails, or a case not "ok") loses the pairs of the
values it lacks, and no seed is dropped.  The sign test counts wins
against losses (ties dropped), two-sided.  A gain resolves when the
change wins at least nine tenths of all pairs, the sign test gives p <=
0.05, and the medians differ by more than the base's interquartile range
(quartiles interpolated linearly); for peak RSS, by more than
RSS_STEP_MB as well.  A metric reads "slower" by the same rule with
losses for wins.  p <= 0.05 needs at least 6 pairs (6 of 6, or 9 of 10;
5 of 5 gives p = 0.0625), so fewer pairs read "not enough pairs".  A
metric regresses when the change's median is worse by more than its
bound, a fraction of the base's median; a case has no bound.
A claim of a gain resolves on two disjoint seed sets, such as 0-9 and
10-19.
The JSON file written is the BENCH file: every run, the comparisons and
a paragraph for CHANGES.md, also printed.  A quick check of the script:

    python3 bench/record.py --base HEAD --seeds 0 --seconds 1 --budget 3 \
        --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("p1_gaussian", "p2_jain", "train_predict")
N_FEATURES = 10
LAM, SIGMA = 2.0, -2.0 ** -7
# case name -> (routine, rows)
CASES = {
    "lcc_m1600": ("lcc", 1600),
    "lcc_m6400": ("lcc", 6400),
    "one_sv_m1600": ("one_sv", 1600),
    "one_sv_m6400": ("one_sv", 6400),
    "svm_m1600": ("svm", 1600),
    "fqcc_m1600": ("fqcc", 1600),
    "klcc_path_m400": ("klcc_path", 400),
    "klcc_m400": ("klcc", 400),
    "klcc_m800": ("klcc", 800),
    "dense_box_400": ("dense_box", 400),
    "klcc_predict_1e5": ("klcc_predict", 100_000),
    "predict_cli_1e5": ("predict_cli", 100_000),
    "predict_cli_1e6": ("predict_cli", 1_000_000),
    "p1_klcc_spiral": ("p1_klcc", 300),
}
SHIFT = np.full(N_FEATURES, 0.5 / np.sqrt(N_FEATURES))   # class +1's mean
KLCC_STORED_ROWS = 800
CSV_CHUNK_ROWS = 10_000
P_RESOLVES = 0.05   # the sign test's p at which a verdict resolves
# peak RSS moves in steps that say nothing about the work done: about
# 0.13 MB when the source, compiled afresh in each run, grows, and up to
# 1.2 MB in klcc_path_m400's memory layout; a smaller median difference
# resolves no verdict
RSS_STEP_MB = 1.2


def scale_data(rows: int):
    """gen_gaussian_pair's z-scored classes, seed 0: identity covariances,
    means 0 and 0.5/sqrt(10) per coordinate."""
    from lcckit.data import (Dataset, fit_normalizer, gen_gaussian_pair,
                             normalize_features)
    eye = np.eye(N_FEATURES)
    raw = gen_gaussian_pair(np.zeros(N_FEATURES), eye, SHIFT, eye,
                            rows // 2, seed=0)
    return Dataset(normalize_features(fit_normalizer(raw), raw.features),
                   raw.labels)


def case_routine(routine: str, rows: int, scratch: Path):
    """A no-argument callable that runs the case once."""
    from lcckit import baselines, discriminators, lcc, lp
    if routine == "klcc_predict":
        return klcc_predict(rows)
    if routine == "predict_cli":
        return predict_cli(rows, scratch)
    if routine == "p1_klcc":
        once = quiet_main(
            ["benchmark", "--gen", f"spiral:m={rows}", "--method",
             "klcc,lcc,lda,svm", "--runs", "20", "--seed", "0", "--out",
             str(scratch)])
        return lambda: klcc_pivots(once)
    if routine == "dense_box":
        problem = dense_box(rows)
        return lambda: lp.solve(problem)
    train = scale_data(rows)
    if routine == "lcc":
        return lambda: lp.solve(lcc.assemble_lcc_lp(train, LAM, SIGMA))
    if routine == "one_sv":
        # the rule on the center-difference projection, as lcc would use it
        neg, pos = lcc.class_centers(train)
        model = lcc.model_from_beta(train, pos - neg, LAM, SIGMA)
        values = train.features @ model.beta
        return lambda: discriminators.fit_discriminator(
            "one_sv", values, train.labels, model)
    if routine == "svm":
        return lambda: baselines.train_linear_svm(train)
    if routine in ("klcc", "klcc_path"):
        from lcckit import kernel
        spec = kernel.KernelSpec(
            "rbf", kernel.median_pairwise_distance(train.features))
        if routine == "klcc":
            return lambda: klcc_pivots(
                lambda: kernel.train_klcc(train, spec, LAM, SIGMA))
        return lambda: klcc_pivots(lambda: klcc_chain(train, spec))
    return lambda: lcc.train_fqcc(train, LAM, SIGMA)


def dense_box(n: int):
    """The dense_box program on n rows and n columns, seed 0."""
    from lcckit.lp import LpProblem
    rng = np.random.default_rng(0)
    c, A = rng.normal(0.0, 2.0, n), rng.normal(0.0, 1.5, (n, n))
    lower = rng.uniform(-4.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 6.0, n)
    b = A @ ((lower + upper) / 2) + rng.uniform(0.0, 1.0, n)
    return LpProblem(c, A, ("<=",) * n, b, lower, upper)


def klcc_predict(rows: int):
    """An RBF klcc model on KLCC_STORED_ROWS rows of the scale data, with
    seeded alphas and no training; the callable decides rows rows."""
    from lcckit import kernel
    from lcckit.model_io import SavedClassifier, predict_saved
    train = scale_data(KLCC_STORED_ROWS)
    rng = np.random.default_rng(0)
    model = kernel.KernelLccModel(
        "rbf", kernel.median_pairwise_distance(train.features),
        rng.uniform(-1.0, 1.0, train.m), train.features, -0.1, 0.1, 0.0,
        LAM, SIGMA, np.zeros(train.m))
    queries = np.random.default_rng(1).standard_normal((rows, N_FEATURES))
    return lambda: predict_saved(SavedClassifier(model), queries)


def predict_cli(rows: int, scratch: Path):
    """Save an lcc model (the center-difference projection of the m=1600
    data) and write a labelled CSV of rows rows from the same two
    classes, CSV_CHUNK_ROWS at a time; the callable predicts the CSV."""
    from lcckit import lcc
    from lcckit.model_io import SavedClassifier, save_classifier
    train = scale_data(1600)
    neg, pos = lcc.class_centers(train)
    save_classifier(str(scratch / "model.txt"), SavedClassifier(
        lcc.model_from_beta(train, pos - neg, LAM, SIGMA)))
    rng = np.random.default_rng(1)
    with open(scratch / "rows.csv", "w", encoding="utf-8") as fh:
        for start in range(0, rows, CSV_CHUNK_ROWS):
            labels = np.where(rng.random(min(CSV_CHUNK_ROWS, rows - start))
                              < 0.5, -1, 1)
            feats = (rng.standard_normal((labels.size, N_FEATURES))
                     + np.outer(labels == 1, SHIFT))
            np.savetxt(fh, np.column_stack([feats, labels]), delimiter=",",
                       fmt=["%.17g"] * N_FEATURES + ["%d"])
    return quiet_main(["predict", "--model", str(scratch / "model.txt"),
                       "--data", str(scratch / "rows.csv"), "--out",
                       str(scratch)])


def quiet_main(argv):
    """A callable that runs lcckit's command line on argv, stdout
    silenced, and raises unless it exits 0."""
    from lcckit import cli

    def once():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"lcckit {argv[0]} failed")
    return once


def klcc_pivots(run):
    """Call run() with kernel.solve wrapped; the result's iterations are
    the summed pivots of the solves it made."""
    from lcckit import kernel
    solutions, real = [], kernel.solve
    kernel.solve = lambda *args: solutions.append(real(*args)) or solutions[-1]
    run()  # once per child, so the wrapper need not be undone
    return types.SimpleNamespace(
        iterations=sum(s.iterations for s in solutions))


def klcc_chain(train, spec):
    """Fit klcc at every grid sigma as procedure 2 does."""
    from lcckit import evaluation, kernel, lcc
    fit = kernel.klcc_path(train, spec, LAM)
    for sigma in sorted(evaluation.GRID_SIGMA):
        try:
            fit(sigma)
        except lcc.TrainingError:  # no projection reaches |sigma|
            pass


def run_case(name: str, scratch: Path) -> None:
    """Child process: time the case once and print one JSON line."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    once = case_routine(*CASES[name], scratch)
    start = time.perf_counter()
    # only an LP solution reports its iterations
    iterations = getattr(once(), "iterations", None)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"s": seconds, "iterations": iterations,
                      "peak_rss_mb": peak_mb}))


def child(argv: list, tree: Path, timeout=None):
    """Run argv in tree with BLAS on one thread, as perfbench pins it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run(argv, capture_output=True, text=True, cwd=tree,
                          env=env, timeout=timeout)


def measure_case(tree: Path, script: Path, name: str, budget: float) -> dict:
    """One fresh child of script in tree: s, iterations, peak_rss_mb."""
    record = {"status": "timeout", "failed": True, "s": None,
              "iterations": None, "peak_rss_mb": None}
    with tempfile.TemporaryDirectory(dir=tree.parent) as scratch:
        try:
            done = child([sys.executable, str(script), "--case", name,
                          "--scratch", scratch], tree, budget)
        except subprocess.TimeoutExpired:
            return record
    if done.returncode != 0:
        return dict(record, status="error", stderr_tail=done.stderr[-2000:])
    return dict(record, status="ok", failed=False,
                **json.loads(done.stdout.splitlines()[-1]))


def perfbench(tree: Path, workload: str, seed: int, seconds: int,
              trace: int) -> dict:
    """One perfbench run in tree: its last JSON line as result, or None."""
    done = child([sys.executable, str(tree / "perfbench" / "run.py"),
                  "--workload", workload, "--seed", str(seed), "--seconds",
                  str(seconds), "--trace", str(trace)], tree)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"trace": trace, "exit": done.returncode, "result": result,
           "failed": result is None or result.get("correct") is not True}
    if result is None:
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p-value of wins against losses under a fair coin."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(base, change, better: str, bound: float,
            step: float = 0.0) -> dict:
    """Pairwise comparison of one metric; None marks a missing value.  step
    is the smallest median difference that may resolve a verdict."""
    sign = 1.0 if better == "higher" else -1.0
    wins = losses = 0
    for b, c in zip(base, change):
        if b is None or c is None:
            wins += b is None and c is not None
            losses += c is None and b is not None
        elif sign * (c - b) > 0:
            wins += 1
        elif sign * (c - b) < 0:
            losses += 1
    pairs = len(base)
    ratios = [c / b for b, c in zip(base, change)
              if b is not None and c is not None and b != 0]
    base_q = quartiles([b for b in base if b is not None] or [math.nan])
    change_q = quartiles([c for c in change if c is not None] or [math.nan])
    gain = sign * (change_q[1] - base_q[1])
    p, iqr = sign_test(wins, losses), base_q[2] - base_q[0]
    floor = max(iqr, step)
    result = {
        "pairs": pairs, "wins": wins, "losses": losses,
        "ties": pairs - wins - losses, "sign_test_p": p,
        "median_ratio": statistics.median(ratios) if ratios else None,
        "base_quartiles": base_q, "change_quartiles": change_q,
        "base_iqr": iqr, "median_gain": gain,
        "gain_resolves": (wins >= 0.9 * pairs and p <= P_RESOLVES
                          and gain > floor),
        "slower": losses >= 0.9 * pairs and p <= P_RESOLVES and -gain > floor,
        "regresses": -gain > bound * abs(base_q[1]),
    }
    result["verdict"] = (
        "gain resolves" if result["gain_resolves"]
        else "regresses past its bound" if result["regresses"]
        else "slower" if result["slower"]
        else "not enough pairs" if sign_test(pairs, 0) > P_RESOLVES
        else "no resolved change")
    return result


def metric(run: dict, name: str):
    """A perfbench run's value of name, or a case measurement's."""
    if "result" not in run:
        return run[name]
    return ((run["result"] or {}).get("metrics", {}).get(name) or {}).get(
        "value")


def summarize(runs: list, metrics: list, counts: list) -> dict:
    """One workload's or case's runs: failed runs per side, each (name,
    better, bound) metric compared pair by pair (peak_rss_mb with the step
    RSS_STEP_MB), and each count per side from the last run that reports
    it (a workload's traced run)."""
    sides = [[r for r in runs if r["side"] == side]
             for side in ("base", "change")]
    return {
        "failed": [sum(r["failed"] for r in side) for side in sides],
        "metrics": {name: compare(*[[metric(r, name) for r in side
                                     if not r.get("trace")]
                                    for side in sides], better, bound,
                                   RSS_STEP_MB * (name == "peak_rss_mb"))
                    for name, better, bound in metrics},
        "counts": {name: [next((metric(r, name) for r in side[::-1]
                                if metric(r, name) is not None), None)
                          for side in sides] for name in counts}}


def extract(rev: str, into: Path) -> str:
    """Write the tree of rev under into; returns its commit hash."""
    commit = git("rev-parse", rev).decode().strip()
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit),
                   check=True)
    return commit


def snapshot(into: Path) -> None:
    """Copy the working tree's tracked files, and its untracked files that
    git does not ignore, under into."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        if os.path.lexists(ROOT / name):  # a deleted file stays tracked
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name, follow_symlinks=False)


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=True).stdout


def paragraph(args, base_commit: str, summary: dict) -> str:
    """The comparison as sentences for CHANGES.md."""
    lines = [f"Pairs against {args.base} ({base_commit[:10]}), "
             f"`bench/record.py`, seeds {args.seeds}, --seconds "
             f"{args.seconds}, --budget {args.budget:g}, base and change "
             f"alternating which runs first:"]
    for name, s in summary.items():
        parts = []
        for metric_name, m in s["metrics"].items():
            b, c = m["base_quartiles"], m["change_quartiles"]
            ratio = ("n/a" if m["median_ratio"] is None
                     else f"{m['median_ratio']:.3f}")
            parts.append(
                f"{metric_name} {b[1]:.4g} -> {c[1]:.4g} (base quartiles "
                f"{b[0]:.4g}/{b[2]:.4g}, IQR {m['base_iqr']:.3g}, median "
                f"gain {m['median_gain']:.3g}), change better in "
                f"{m['wins']} of {m['pairs']} pairs, {m['losses']} worse, "
                f"sign test p = {m['sign_test_p']:.3g}, median ratio "
                f"{ratio}: {m['verdict']}")
        parts += [f"{count} {b} -> {c}"
                  for count, (b, c) in s["counts"].items() if b or c]
        lines.append(f"- {name}: failed runs base {s['failed'][0]}, "
                     f"change {s['failed'][1]}; " + "; ".join(parts) + ".")
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_args(argv=None):
    """The options, with --workload and --case set to what runs."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="git revision to compare with")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a perfbench workload to run (repeatable)")
    parser.add_argument("--case", action="append", choices=list(CASES),
                        help="a scale case to run (repeatable)")
    parser.add_argument("--seeds", default="0-2",
                        help="rounds, one per seed, as ranges such as 0-9")
    parser.add_argument("--seconds", type=int, default=30,
                        help="--seconds of each perfbench run")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="seconds a case may take on each side")
    parser.add_argument("--out", help="path of the JSON file to write")
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scratch is None and not (args.base and args.out):
        parser.error("--base and --out are required")
    if not (args.workload or args.case):
        args.workload, args.case = list(WORKLOADS), list(CASES)
    args.workload, args.case = args.workload or [], args.case or []
    return args


def versions() -> dict:
    try:
        import scipy
    except ImportError:
        scipy = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy and scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.scratch is not None:
        run_case(args.case[0], args.scratch)
        return 0
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, cases = [], []

    def pair(order, into, shown, measure, **labels):
        for side, tree in order:
            into.append(dict(measure(tree), side=side, **labels))
            print(*labels.values(), side, shown, metric(into[-1], shown),
                  "FAILED" if into[-1]["failed"] else "", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        order = (("base", Path(tmp) / "base"), ("change", Path(tmp) / "chng"))
        base_commit = extract(args.base, order[0][1])
        snapshot(order[1][1])
        for i, seed in enumerate(seeds):
            sides = order if i % 2 == 0 else order[::-1]
            for workload in args.workload:
                pair(sides, runs, "wall_s", lambda tree: perfbench(
                    tree, workload, seed, args.seconds, 0),
                    workload=workload, seed=seed)
            for name in args.case:
                pair(sides, cases, "s", lambda tree: measure_case(
                    tree, order[1][1] / "bench" / "record.py", name,
                    args.budget), case=name, seed=seed)
        for workload in args.workload:
            pair(order, runs, "lp.lcc.iterations", lambda tree: perfbench(
                tree, workload, seeds[0], args.seconds, 1),
                workload=workload, seed=seeds[0])
    end_to_end = [(m["name"], m["better"], m["bound"])
                  for m in spec["end_to_end"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    summary = {w: summarize([r for r in runs if r["workload"] == w],
                            end_to_end, counts) for w in args.workload}
    summary.update({name: summarize(
        [r for r in cases if r["case"] == name],
        [("s", "lower", math.inf), ("peak_rss_mb", "lower", math.inf)],
        ["iterations"]) for name in args.case})
    text = paragraph(args, base_commit, summary)
    Path(args.out).write_text(json.dumps(
        {"base": args.base, "base_commit": base_commit,
         "versions": versions(), "nproc": len(os.sched_getaffinity(0)),
         "config": {"seeds": seeds, "seconds": args.seconds,
                    "budget_s": args.budget, "lam": LAM, "sigma": SIGMA},
         "perfbench": runs, "scale": cases, "summary": summary,
         "paragraph": text}, indent=1) + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
