"""Batch command line: train, predict, benchmark, demo.

predict reads, decides and writes PREDICT_BLOCK rows at a time, so its
memory stays flat in the number of rows, and writes nothing unless every
row succeeds.  Exit codes: 0 on success, 1 for usage problems (bad flags
or flag values, unreadable or mismatched files), 2 for numeric failures
during training (infeasible program, cycling, singular covariance).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .data import (DataError, Dataset, SHAPE_NAMES, apply_normalizer,
                   as_labels, demo_gaussian_pair, drop_zero_variance,
                   fit_normalizer, gen_shape, load_csv, read_blocks)
from .discriminators import DiscriminatorError
from .evaluation import (BenchmarkConfig, EvalError, METHOD_NAMES, METHODS,
                         check_methods, fit, roc_auc, report_to_csv,
                         run_benchmark, summary_table)
from .kernel import KERNEL_KINDS
from .lcc import ParameterError, TrainingError, class_centers, train_lcc
from .lp import CyclingError, LpFormatError
# perfbench/spans.py wraps these names here; training goes through METHODS
from .baselines import hinge_objective, train_lda, train_linear_svm  # noqa
from .discriminators import fit_discriminator  # noqa: F401
from .kernel import median_pairwise_distance, train_klcc  # noqa: F401
from .lcc import train_fqcc  # noqa: F401
from .model_io import (PREDICT_BLOCK, ModelIoError, SavedClassifier,
                       load_classifier, predict_saved, save_classifier)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# each generator's options and their defaults; an integer default marks a
# count
GEN_OPTIONS = {"gaussian": {"m_per_class": 200},
               **{shape: {"m": 300, "noise": 0.03} for shape in SHAPE_NAMES}}
DEMO_BINS = 40

DISCRIMINATOR_FLAGS = {"dist": "dist", "1nn": "one_nn", "1sv": "one_sv"}


class UsageError(ValueError):
    """Bad flag combination or unusable input file."""


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad flags; this command reserves 2
    for numeric failures, so flag problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def non_negative_int(text: str) -> int:
    """--seed's type: numpy's generators take only integers >= 0."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def parse_gen_spec(text: str, seed: int) -> Dataset:
    """Build a synthetic dataset from "name" or "name:key=val,key=val".

    GEN_OPTIONS names each generator's options; every value must be
    finite and every count an integer.  A count numpy cannot allocate is
    a usage error that names the count.
    """
    name, _, tail = text.partition(":")
    name = name.strip()
    options: dict[str, float] = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise UsageError(f"generator option {item!r} is not key=val")
            try:
                options[key.strip()] = float(value)
            except ValueError:
                raise UsageError(
                    f"generator option {key.strip()!r} has non-numeric "
                    f"value {value!r}") from None
    if name not in GEN_OPTIONS:
        raise UsageError(f"unknown generator {name!r}; choose from "
                         + ", ".join(GEN_OPTIONS))
    values = {}
    for key, default in GEN_OPTIONS[name].items():
        value = options.pop(key, default)
        if not math.isfinite(value):
            raise UsageError(f"generator option {key!r} must be finite")
        if value != type(default)(value):
            raise UsageError(f"generator option {key!r} must be an integer")
        values[key] = type(default)(value)
    if options:
        raise UsageError(
            f"unknown {name} option(s): {', '.join(sorted(options))}")
    try:
        if name == "gaussian":
            return demo_gaussian_pair(seed=seed, **values)
        return gen_shape(name, seed=seed, **values)
    except DataError:
        raise
    except (ValueError, MemoryError) as exc:
        count = next(key for key, default in GEN_OPTIONS[name].items()
                     if isinstance(default, int))
        raise UsageError(f"generator option {count!r} is too large: "
                         f"{exc}") from None


def _load_dataset(args) -> Dataset:
    if args.data is not None:
        return load_csv(args.data)
    return parse_gen_spec(args.gen, args.seed)


def _out_path(out_dir: str, filename: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


def _write(out_dir: str, filename: str, text: str) -> str:
    """Write text to filename in out_dir, made if missing; the path."""
    path = _out_path(out_dir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _parse_width(raw: str) -> float | None:
    if raw == "median":
        return None
    try:
        return float(raw)
    except ValueError:
        raise UsageError(
            f"--rbf-width must be a number or 'median', got {raw!r}") from None


# ------------------------------------------------------------------ train

def _params(args, names) -> dict:
    """Method parameters from the flags; --lambda sets each named
    method's own lambda."""
    params = {"sigma": args.sigma, "kernel": args.kernel,
              "rbf_width": _parse_width(args.rbf_width),
              "discriminator": DISCRIMINATOR_FLAGS.get(args.discriminator)}
    if args.lam is not None:
        params.update((METHODS[n].lam_key, args.lam) for n in names
                      if n in METHODS)
    params = {k: v for k, v in params.items() if v is not None}
    check_methods(names, params)
    return params


def cmd_train(args) -> int:
    params = _params(args, [args.method])
    data = _load_dataset(args)
    if data.m == 0:
        raise UsageError("training data is empty")
    pruned, kept = drop_zero_variance(data)
    norm = fit_normalizer(pruned)
    ready = apply_normalizer(norm, pruned)
    method = METHODS[args.method]
    model = fit(method, ready, params, args.seed)
    saved = SavedClassifier(model, norm, kept, data.n)
    path = _out_path(args.out, "model.txt")
    save_classifier(path, saved)
    labels, _ = predict_saved(saved, data.features)
    accuracy = float(np.mean(labels == data.labels))
    print(f"method {args.method}")
    print(f"trained on {data.m} instances, {ready.n} of {data.n} "
          "feature(s) kept")
    for line in method.summary(model, ready):
        print(line)
    print(f"train accuracy {accuracy:.4f}")
    print(f"model written to {path}")
    return EXIT_OK


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    import shutil
    import tempfile
    saved = load_classifier(args.model)
    seen, truth, correct, rows = np.zeros(0), None, 0, 0
    # the lines wait in a temporary file until every block has succeeded
    with tempfile.TemporaryFile("w+", encoding="utf-8") as tmp:
        tmp.write("label,score\n")
        for block in read_blocks(args.data, PREDICT_BLOCK):
            feats = block
            # an extra last column of -1/+1 or 0/1 over every row so far
            if block.shape[1] - 1 == saved.original_n:
                seen = np.unique(np.append(seen, block[:, -1]))
                if as_labels(seen) is not None:
                    feats, truth = block[:, :-1], as_labels(block[:, -1])
            labels, scores = predict_saved(saved, feats)
            # Python numbers format faster than numpy scalars
            tmp.write("".join(f"{l},{s!r}\n" for l, s in
                              zip(labels.tolist(), scores.tolist())))
            correct += 0 if truth is None else int(np.sum(labels == truth))
            rows += labels.size
        tmp.seek(0)
        if args.out is None:
            shutil.copyfileobj(tmp, sys.stdout)
            report = sys.stderr
        else:
            path = _out_path(args.out, "predictions.csv")
            with open(path, "w", encoding="utf-8") as fh:
                shutil.copyfileobj(tmp, fh)
            print(f"predictions written to {path}")
            report = sys.stdout
    if truth is not None:
        print(f"accuracy {correct / rows:.4f}", file=report)
    return EXIT_OK


# -------------------------------------------------------------- benchmark

def cmd_benchmark(args) -> int:
    names = [n.strip() for n in args.method.split(",") if n.strip()]
    if not names:
        raise UsageError("--method needs at least one name")
    if len(set(names)) != len(names):
        raise UsageError("--method names must be distinct")
    params = _params(args, names)
    data = _load_dataset(args)
    config = BenchmarkConfig(
        data=data, methods=tuple(names), runs=args.runs, seed=args.seed,
        procedure=args.procedure, folds=args.folds, params=params)
    report = run_benchmark(config)
    path = _write(args.out, "report.csv", report_to_csv(report))
    print(summary_table(report))
    print(f"report written to {path}")
    return EXIT_OK


# ------------------------------------------------------------------- demo

def _histogram_rows(stage, values, labels):
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, DEMO_BINS + 1)
    neg, _ = np.histogram(values[labels == -1], bins=edges)
    pos, _ = np.histogram(values[labels == 1], bins=edges)
    return [f"{stage},{float(edges[i])!r},{float(edges[i + 1])!r},"
            f"{int(neg[i])},{int(pos[i])}" for i in range(DEMO_BINS)]


def cmd_demo(args) -> int:
    data = demo_gaussian_pair(seed=args.seed)
    norm = fit_normalizer(data)
    ready = apply_normalizer(norm, data)
    c_neg, c_pos = class_centers(ready)
    gap = c_pos - c_neg
    beta0 = gap / np.abs(gap).max()
    before = ready.features @ beta0
    model = train_lcc(ready)
    after = model.transform(ready.features)

    header = [
        "# two-Gaussian example: projected training values, 200 per class,"
        f" seed {args.seed}",
        "# 'before' projects z-scored features onto beta0 ="
        " (C_pos - C_neg) / max-norm(C_pos - C_neg),",
        "# i.e. the raw center difference scaled into the unit box;"
        " 'after' projects onto the trained coefficients",
        "stage,bin_left,bin_right,count_neg,count_pos",
    ]
    rows = (_histogram_rows("before", before, ready.labels)
            + _histogram_rows("after", after, ready.labels))
    hist_path = _write(args.out, "demo_histograms.csv",
                       "\n".join(header + rows) + "\n")

    roc = roc_auc(model.score(ready.features), ready.labels)
    roc_path = _write(args.out, "demo_roc.csv", "fpr,tpr\n" + "".join(
        f"{float(p[0])!r},{float(p[1])!r}\n" for p in roc.curve))

    neg_max = float(after[ready.labels == -1].max())
    pos_min = float(after[ready.labels == 1].min())
    overlap = "yes" if neg_max >= pos_min else "no"
    print(f"center gap after training {model.c_pos_hat - model.c_neg_hat:.6g}")
    print(f"projected class supports overlap after training: {overlap} "
          f"(negative max {neg_max:.6g}, positive min {pos_min:.6g})")
    print(f"train AUC {roc.auc:.4f}")
    print(f"histograms written to {hist_path}")
    print(f"roc points written to {roc_path}")
    return EXIT_OK


# ------------------------------------------------------------------ wiring

def _add_data_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="CSV file, label in the last column")
    group.add_argument("--gen", help="generator spec: gaussian[:m_per_class=N]"
                       " or one of " + "/".join(SHAPE_NAMES)
                       + "[:m=N,noise=X]")


def _add_hyper_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="the selected method's own lambda: slack weight for"
                     " lcc/fqcc/klcc, shrinkage for lda, regularization"
                     " for svm")
    sub.add_argument("--sigma", type=float, default=None,
                     help="slack floor / center-gap bound (negative)")
    sub.add_argument("--kernel", choices=KERNEL_KINDS, default=None)
    sub.add_argument("--rbf-width", default="median",
                     help="RBF width, a number or 'median' (default)")
    sub.add_argument("--discriminator", choices=sorted(DISCRIMINATOR_FLAGS),
                     default=None,
                     help="replace the midpoint rule of lcc/klcc")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcckit",
                     description="Train and evaluate centralization "
                     "classifiers in batch.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    train = subs.add_parser("train", help="fit one method, write a model"
                            " file")
    _add_data_flags(train)
    train.add_argument("--method", required=True)
    _add_hyper_flags(train)
    train.add_argument("--seed", type=non_negative_int, default=42)
    train.add_argument("--out", default=".")
    train.set_defaults(func=cmd_train)

    predict = subs.add_parser("predict", help="label a CSV with a saved"
                              " model")
    predict.add_argument("--model", required=True, help="model file from"
                         " train")
    predict.add_argument("--data", required=True,
                         help="feature CSV; an extra -1/+1 (or 0/1) last"
                         " column is scored for accuracy")
    predict.add_argument("--out", default=None,
                         help="directory for predictions.csv; omit to print")
    predict.set_defaults(func=cmd_predict)

    bench = subs.add_parser("benchmark", help="run an evaluation procedure")
    _add_data_flags(bench)
    bench.add_argument("--method", required=True,
                       help="comma-separated names from "
                       + ", ".join(METHOD_NAMES))
    _add_hyper_flags(bench)
    bench.add_argument("--runs", type=int, default=100)
    bench.add_argument("--procedure", type=int, choices=(1, 2), default=1)
    bench.add_argument("--folds", type=int, default=10)
    bench.add_argument("--seed", type=non_negative_int, default=42)
    bench.add_argument("--out", default=".")
    bench.set_defaults(func=cmd_benchmark)

    demo = subs.add_parser("demo", help="regenerate the two-Gaussian"
                           " example CSVs")
    demo.add_argument("--seed", type=non_negative_int, default=42)
    demo.add_argument("--out", default=".")
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, DataError, EvalError, ModelIoError, ParameterError,
            DiscriminatorError, LpFormatError, OSError) as exc:
        print(f"lcckit {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, CyclingError, np.linalg.LinAlgError) as exc:
        print(f"lcckit {args.subcommand}: numeric failure: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
