"""Record one commit's benchmark numbers in one JSON file.

    python3 bench/record.py --out BENCH_11.json

The file holds two parts:

- "perfbench": the last JSON line of `perfbench/run.py`, kept as it is,
  for every workload at each of SEEDS, untraced at --seconds, plus one
  traced (`--trace 1`) run per workload at seed 0;
- "scale": the cases of CASES, each run in its own child process under
  a --budget second limit.  klcc_path_m400 is procedure 2's sigma chain
  for klcc: the 15 grid sigmas from the most negative, RBF median width,
  each solve warm-started from the last optimum; its iterations are the
  sum over the 15 solves.  A case records the median and every time of
  REPEATS repeats, the solver iterations where the routine reports
  them, and the child's own peak RSS (RUSAGE_SELF; RUSAGE_CHILDREN would
  be a running maximum over every earlier case).  A case over budget
  is recorded with status "timeout" and the repeats it finished.
  klcc_predict_1e5 decides 1e5 rows through `predict_saved` with an
  RBF klcc model on 800 stored rows, made from arrays without training.
  predict_cli_1e5 and predict_cli_1e6 time `lcckit predict` (through
  `cli.main`) on a labelled CSV of that many rows, which the child first
  writes in chunks, untimed, to a scratch directory the recorder removes.

All cases share one data set per size: `gen_gaussian_pair` with means 0
and 0.5/sqrt(10) per coordinate, identity covariances, seed 0, z-scored;
lam 2 and sigma -2^-7.  Python, numpy and (if installed) scipy versions
and nproc are recorded once.  lcckit is imported from the `src/`
directory next to this one, so a copy of another commit records that
commit.  A quick check of the script itself:

    python3 bench/record.py --out /tmp/bench.json --seconds 1 --budget 3
"""

from __future__ import annotations

import os

# one thread per process, as perfbench pins it, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
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
SEEDS = (0, 1, 2)
REPEATS = 3
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
    "klcc_predict_1e5": ("klcc_predict", 100_000),
    "predict_cli_1e5": ("predict_cli", 100_000),
    "predict_cli_1e6": ("predict_cli", 1_000_000),
}
SHIFT = np.full(N_FEATURES, 0.5 / np.sqrt(N_FEATURES))   # class +1's mean
KLCC_STORED_ROWS = 800
CSV_CHUNK_ROWS = 10_000


def scale_data(rows: int):
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
    if routine == "klcc_path":
        from lcckit import kernel
        spec = kernel.KernelSpec(
            "rbf", kernel.median_pairwise_distance(train.features))
        return lambda: klcc_chain(train, spec)
    return lambda: lcc.train_fqcc(train, LAM, SIGMA)


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
    from lcckit import cli, lcc
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
    argv = ["predict", "--model", str(scratch / "model.txt"), "--data",
            str(scratch / "rows.csv"), "--out", str(scratch)]

    def once():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("lcckit predict failed")
    return once


def klcc_chain(train, spec):
    """Fit klcc at every grid sigma as procedure 2 does; the result's
    iterations are the summed pivots of the 15 solves."""
    from lcckit import evaluation, kernel, lcc
    solutions, real = [], kernel.solve
    kernel.solve = lambda *args: solutions.append(real(*args)) or solutions[-1]
    try:
        fit = kernel.klcc_path(train, spec, LAM)
        for sigma in sorted(evaluation.GRID_SIGMA):
            try:
                fit(sigma)
            except lcc.TrainingError:  # no projection reaches |sigma|
                pass
    finally:
        kernel.solve = real
    return types.SimpleNamespace(
        iterations=sum(s.iterations for s in solutions))


def run_case(name: str, scratch: Path) -> None:
    """Child process: one JSON line per finished repeat."""
    sys.path.insert(0, str(ROOT / "src"))
    routine, rows = CASES[name]
    once = case_routine(routine, rows, scratch)
    for _ in range(REPEATS):
        start = time.perf_counter()
        # only an LP solution reports its iterations
        iterations = getattr(once(), "iterations", None)
        seconds = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"s": seconds, "iterations": iterations,
                          "peak_rss_mb": peak_mb}), flush=True)


def measure_case(name: str, budget: float) -> dict:
    routine, rows = CASES[name]
    record = {"routine": routine, "rows": rows, "n": N_FEATURES}
    try:
        with tempfile.TemporaryDirectory() as scratch:
            argv = [sys.executable, __file__, "--case", name, "--scratch",
                    scratch]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=budget)
        out, status = done.stdout, "ok" if done.returncode == 0 else "error"
        if status == "error":
            record["stderr_tail"] = done.stderr[-2000:]
    except subprocess.TimeoutExpired as exc:
        out, status = exc.stdout or "", "timeout"
        if isinstance(out, bytes):
            out = out.decode()
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    record["status"] = status
    record["times_s"] = [line["s"] for line in lines]
    record["median_s"] = (statistics.median(record["times_s"])
                          if status == "ok" and lines else None)
    record["iterations"] = lines[-1]["iterations"] if lines else None
    record["peak_rss_mb"] = lines[-1]["peak_rss_mb"] if lines else None
    return record


def perfbench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "exit": done.returncode, "result": result}
    if result is None:
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def versions() -> dict:
    found = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        import scipy
        found["scipy"] = scipy.__version__
    except ImportError:
        found["scipy"] = None
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="path of the JSON file to write")
    parser.add_argument("--seconds", type=int, default=30,
                        help="--seconds of each perfbench run")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="seconds each scale case may take in all")
    parser.add_argument("--case", choices=list(CASES), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        run_case(args.case, args.scratch)
        return 0
    if not args.out:
        parser.error("--out is required")
    runs = [perfbench(w, s, args.seconds, 0) for w in WORKLOADS
            for s in SEEDS]
    runs += [perfbench(w, 0, args.seconds, 1) for w in WORKLOADS]
    record = {"versions": versions(), "nproc": len(os.sched_getaffinity(0)),
              "config": {"seeds": list(SEEDS), "seconds": args.seconds,
                         "repeats": REPEATS, "budget_s": args.budget,
                         "lam": LAM, "sigma": SIGMA},
              "perfbench": runs,
              "scale": {name: measure_case(name, args.budget)
                        for name in CASES}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
