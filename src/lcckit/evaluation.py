"""Benchmark machinery: stratified resampling, ROC/AUC, rank-sum
significance testing, and the two evaluation procedures used throughout
the numeric comparisons (repeated 70/30 splits with default parameters,
and per-method grid search over 10-fold cross validation).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .baselines import (DEFAULT_LDA_REG, DEFAULT_SVM_LAMBDA, LdaModel,
                        SvmModel, _tie_groups, hinge_objective, train_lda,
                        train_linear_svm)
from .data import (Dataset, _frozen, apply_normalizer, drop_zero_variance,
                   fit_normalizer, require_both_classes)
from .discriminators import (KINDS, Discriminator, discriminate,
                             discriminator_score, fit_discriminator)
from .kernel import (KernelLccModel, KernelSpec, klcc_path,
                     median_pairwise_distance, train_klcc)
from .lcc import (DEFAULT_LAMBDA, DEFAULT_SIGMA, Centralizer, Classifier,
                  FqccModel, LccModel, ParameterError, fqcc_epsilons,
                  lcc_path, train_fqcc, train_lcc)

EXACT_RANK_SUM_LIMIT = 12
TRAIN_FRACTION = 0.7   # procedure 1's split: the paper's 70/30

# fifteen values each, matching the published search ranges
GRID_SIGMA = tuple(-(2.0 ** e) for e in range(-7, 8))
GRID_LDA_REG = tuple((i + 1) / 15.0 for i in range(15))
GRID_SVM_LAMBDA = tuple(10.0 ** ((4 * i - 30) / 15.0) for i in range(15))


class EvalError(ValueError):
    """Bad evaluation configuration or unusable inputs."""


# ------------------------------------------------------------- resampling

def stratified_split(data: Dataset, train_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Per-class split: floor(fraction * class size) rows go to training.

    Both returned datasets keep their rows in the original storage order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise EvalError(f"train_fraction must be in (0, 1), "
                        f"got {train_fraction}")
    require_both_classes(data, "stratified_split")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    for label in (-1, 1):
        idx = np.nonzero(data.labels == label)[0]
        n_train = int(math.floor(train_fraction * idx.size))
        if n_train == 0 or n_train == idx.size:
            raise EvalError(
                f"class {label} with {idx.size} instances would leave an "
                f"empty train or test side at fraction {train_fraction}")
        train_idx.extend(idx[rng.permutation(idx.size)[:n_train]])
    return (data.take(np.sort(train_idx)),
            data.take(np.setdiff1d(np.arange(data.m), train_idx)))


def stratified_kfold(data: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index arrays; per-class counts differ by at most one."""
    if k < 2:
        raise EvalError("k must be at least 2")
    require_both_classes(data, "stratified_kfold")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in (-1, 1):
        idx = np.nonzero(data.labels == label)[0]
        if idx.size < k:
            raise EvalError(f"class {label} has {idx.size} instances, "
                            f"fewer than k={k}")
        shuffled = idx[rng.permutation(idx.size)]
        for pos, row in enumerate(shuffled):
            folds[pos % k].append(int(row))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


# ---------------------------------------------------------------- ROC/AUC

@dataclass(frozen=True)
class RocResult:
    """Area under the ROC curve plus the curve itself.

    curve rows are (false positive rate, true positive rate), one point
    per distinct score value, from (0, 0) to (1, 1).
    """

    auc: float
    curve: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.auc <= 1.0:
            raise EvalError(f"auc {self.auc} outside [0, 1]")
        object.__setattr__(self, "curve", _frozen(self.curve, np.float64))


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ends = _tie_groups(values[order])
    starts = np.concatenate([[0], ends[:-1]])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> RocResult:
    """Rank-statistic AUC (ties count one half) with a tie-grouped curve."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise EvalError("scores and labels must be 1-D and equally long")
    pos = labels == 1
    neg = labels == -1
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise EvalError("roc_auc needs both classes present")
    ranks = _midranks(scores)
    auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # sweep thresholds downward through the distinct scores
    order = np.argsort(-scores, kind="stable")
    ends = _tie_groups(scores[order])
    tp = np.cumsum(labels[order] == 1)[ends - 1]
    points = np.column_stack([(ends - tp) / n_neg, tp / n_pos])
    return RocResult(float(auc), np.vstack([[0.0, 0.0], points]))


# ---------------------------------------------------------- rank-sum test

def _rank_sum_exact(pooled: np.ndarray, n_a: int, observed: float) -> float:
    n = pooled.size
    ranks = _midranks(pooled)
    mean = n_a * (n + 1) / 2.0
    shift = abs(observed - mean) - 1e-12
    hits = 0
    total = 0
    for combo in combinations(range(n), n_a):
        stat = float(ranks[list(combo)].sum())
        if abs(stat - mean) >= shift:
            hits += 1
        total += 1
    return hits / total


def rank_sum_test(a, b) -> float:
    """Two-sided rank-sum p-value for samples a and b.

    Exact enumeration of rank assignments when the pooled size is at
    most 12; beyond that a normal approximation with midrank tie
    correction and a 0.5 continuity correction.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EvalError("rank_sum_test needs two nonempty samples")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w = float(ranks[:a.size].sum())
    if pooled.size <= EXACT_RANK_SUM_LIMIT:
        return _rank_sum_exact(pooled, a.size, w)
    n_a, n_b, n = a.size, b.size, pooled.size
    mean = n_a * (n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts ** 3) - counts).sum()) / (n * (n - 1))
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if variance <= 0.0:
        return 1.0
    z = (abs(w - mean) - 0.5) / math.sqrt(variance)
    if z < 0.0:
        z = 0.0
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


# ----------------------------------------------------------- the methods
#
# Every per-kind choice lives in METHODS.  fits(train, p, seed) gives
# fit(value), trained at params[param_key] = value.  lcc's and klcc's walk
# one sigma chain; the others call their trainer by this module's name at
# call time, so a wrapper perfbench/spans.py puts on it sees each fit.
# (spans.py also wraps train_lcc and train_klcc here, which no fit calls.)

# perfbench/spans.py wraps this name here; klcc scores through its model
kscore = KernelLccModel.score


@dataclass(frozen=True)
class Discriminated(Classifier):
    """An lcc or klcc model whose midpoint rule is replaced by a rule
    fitted on its projected training values; projects once per call."""

    base: Centralizer
    rule: Discriminator

    def __post_init__(self) -> None:
        if not isinstance(self.base, Centralizer):
            raise EvalError("discriminators pair with lcc or klcc only")

    @property
    def n_features(self) -> int:
        return self.base.n_features

    def decide(self, X) -> tuple[np.ndarray, np.ndarray]:
        projected = self.base.transform(X)
        return (discriminate(self.rule, projected),
                discriminator_score(self.rule, projected))


@dataclass(frozen=True)
class Method:
    """One model kind, as the benchmark and the CLI use it."""

    name: str          # also the kind a model file records
    model: type
    fits: object       # (train, params with defaults filled in, seed) -> fit
    param_name: str    # procedure 2 searches params[param_key] over grid
    param_key: str     # and reports it under param_name
    grid: tuple
    lam_key: str       # the params key that --lambda sets
    summary: object    # (model, train) -> the lines `lcckit train` prints


# every params key, with the value an absent key takes
PARAM_DEFAULTS = {"lam": DEFAULT_LAMBDA, "sigma": DEFAULT_SIGMA,
                  "kernel": "rbf", "rbf_width": None, "discriminator": None,
                  "lambda_reg": DEFAULT_LDA_REG,
                  "svm_lambda": DEFAULT_SVM_LAMBDA}


def _kernel_spec(train: Dataset, p: dict) -> KernelSpec:
    kernel, width = p["kernel"], p["rbf_width"]
    if kernel == "rbf" and width is None:
        width = median_pairwise_distance(train.features)
    return KernelSpec(kernel, width if kernel == "rbf" else None)


def _centralizer_summary(slacks, extra=lambda model: []):
    """Objective, extra lines, the discriminator if any, slack range and
    center gap of an lcc, fqcc or klcc fit."""
    def summary(model, train: Dataset) -> list:
        base = model.base if isinstance(model, Discriminated) else model
        rule = [] if base is model else [
            f"discriminator {model.rule.kind} fitted on {train.m} "
            "projected values"]
        eps = slacks(base, train)
        return [f"objective {base.objective:.10g}", *extra(base), *rule,
                f"epsilons min/mean/max {eps.min():.6g} / {eps.mean():.6g}"
                f" / {eps.max():.6g}",
                f"center gap {base.c_pos_hat - base.c_neg_hat:.6g} "
                f"(c_neg_hat {base.c_neg_hat:.6g}, "
                f"c_pos_hat {base.c_pos_hat:.6g})"]
    return summary


def _fqcc_slacks(model: FqccModel, train: Dataset) -> np.ndarray:
    return fqcc_epsilons(train.features @ model.beta, train.labels,
                         model.c_neg_hat, model.c_pos_hat, model.sigma)


def _kernel_line(model: KernelLccModel) -> list:
    width = "" if model.rbf_width is None else \
        f", width {model.rbf_width:.6g}"
    return [f"kernel {model.kernel}{width}"]


def _svm_line(model: SvmModel, train: Dataset) -> list:
    value = hinge_objective(train, model.lam, model.weight, model.intercept)
    return [f"objective {value:.10g}"]


METHODS = {m.name: m for m in (
    Method("lcc", LccModel,
           lambda train, p, seed: lcc_path(train, p["lam"]),
           "sigma", "sigma", GRID_SIGMA, "lam",
           _centralizer_summary(lambda model, train: model.epsilons)),
    Method("fqcc", FqccModel,
           lambda train, p, seed: lambda sigma: train_fqcc(
               train, p["lam"], sigma, seed=seed),
           "sigma", "sigma", GRID_SIGMA, "lam",
           _centralizer_summary(_fqcc_slacks)),
    Method("klcc", KernelLccModel,
           lambda train, p, seed: klcc_path(train, _kernel_spec(train, p),
                                            p["lam"]),
           "sigma", "sigma", GRID_SIGMA, "lam",
           _centralizer_summary(lambda model, train: model.epsilons,
                                _kernel_line)),
    Method("lda", LdaModel,
           lambda train, p, seed: lambda reg: train_lda(train, reg),
           "lambda_reg", "lambda_reg", GRID_LDA_REG, "lambda_reg",
           lambda model, train: [
               f"shrinkage lambda_reg {model.lambda_reg:.6g}"]),
    Method("svm", SvmModel,
           lambda train, p, seed: lambda lam: train_linear_svm(train, lam),
           "lambda", "svm_lambda", GRID_SVM_LAMBDA, "svm_lambda", _svm_line),
)}
METHOD_NAMES = tuple(METHODS)


def check_methods(names, params: dict) -> None:
    """EvalError unless every name is a method, every params key is one
    of PARAM_DEFAULTS, and a discriminator, if set, is known and pairs
    with every named method."""
    unknown = [n for n in names if n not in METHODS]
    if unknown:
        raise EvalError(f"unknown method {unknown[0]!r}; "
                        f"choose from {', '.join(METHOD_NAMES)}")
    unknown = sorted(set(params) - set(PARAM_DEFAULTS))
    if unknown:
        raise EvalError(f"unknown parameter(s) {', '.join(unknown)}")
    kind = params.get("discriminator")
    if kind is not None and kind not in KINDS:
        raise EvalError(f"unknown discriminator {kind!r}")
    if kind is not None and not all(
            issubclass(METHODS[n].model, Centralizer) for n in names):
        raise EvalError("discriminators pair with lcc or klcc only")


def fit(method: Method, train: Dataset, params: dict, seed: int):
    """Train one method; with a discriminator in params, the model comes
    back wrapped with a rule fitted on its projected training values."""
    p = {**PARAM_DEFAULTS, **params}
    return _with_rule(method.fits(train, p, seed)(p[method.param_key]),
                      train, p)


def _with_rule(model, train: Dataset, p: dict):
    if p["discriminator"] is None:
        return model
    rule = fit_discriminator(p["discriminator"],
                             model.transform(train.features), train.labels,
                             model)
    return Discriminated(model, rule)


# ------------------------------------------------------------ procedures

@dataclass(frozen=True)
class RunRecord:
    method: str
    run: int
    train_auc: float
    test_auc: float
    train_ms: float
    error: str | None = None


@dataclass(frozen=True)
class GridRecord:
    method: str
    param_name: str
    best_param: float
    best_auc: float
    fold_aucs: tuple


@dataclass(frozen=True)
class EvalReport:
    procedure: int
    reference: str
    records: tuple = ()
    p_train: dict = field(default_factory=dict)
    p_test: dict = field(default_factory=dict)
    p_time: dict = field(default_factory=dict)
    grid_records: tuple = ()
    ranks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkConfig:
    data: Dataset
    methods: tuple
    runs: int = 100
    seed: int = 42
    procedure: int = 1
    folds: int = 10
    params: dict = field(default_factory=dict)


def _normalized(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Both sides cut to the training side's non-constant columns and
    z-scored with training statistics only."""
    train, kept = drop_zero_variance(train)
    norm = fit_normalizer(train)
    return (apply_normalizer(norm, train),
            apply_normalizer(norm, Dataset(test.features[:, kept],
                                           test.labels)))


def _successes(records) -> dict:
    """Each method's train AUCs, test AUCs and fit ms over its runs that
    did not fail, as the rows of a (3, runs) array; methods in the order
    they first appear."""
    rows = {r.method: [] for r in records}
    for r in records:
        if r.error is None:
            rows[r.method].append((r.train_auc, r.test_auc, r.train_ms))
    return {name: np.array(values, dtype=np.float64).reshape(-1, 3).T.copy()
            for name, values in rows.items()}


# errors recorded as a failed fit; a ParameterError ends the procedure
_FIT_ERRORS = (ValueError, RuntimeError)


def _attempt(make, scored) -> tuple[float, list, str | None]:
    """Fit once by make() and take the AUC on each dataset in scored: (fit
    ms, AUCs, None), or NaNs and the error when the fit or a score fails."""
    try:
        start = time.perf_counter()
        model = make()
        ms = (time.perf_counter() - start) * 1000.0
        return ms, [roc_auc(model.score(d.features), d.labels).auc
                    for d in scored], None
    except ParameterError:
        raise
    except _FIT_ERRORS as exc:
        return (math.nan, [math.nan] * len(scored),
                f"{type(exc).__name__}: {exc}")


def _procedure_one(config: BenchmarkConfig, methods: list[Method],
                   reference: str) -> EvalReport:
    records: list[RunRecord] = []
    for run in range(config.runs):
        run_seed = config.seed + run
        train, test = _normalized(*stratified_split(config.data,
                                                    TRAIN_FRACTION, run_seed))
        for method in methods:
            ms, (auc_tr, auc_te), error = _attempt(
                lambda: fit(method, train, config.params, run_seed),
                (train, test))
            records.append(RunRecord(method.name, run, auc_tr, auc_te, ms,
                                     error))

    table = _successes(records)
    p_values: tuple = ({}, {}, {})   # train, test, time
    for name in (m.name for m in methods if m.name != reference):
        if table[reference].size and table[name].size:
            for p, a, b in zip(p_values, table[reference], table[name]):
                p[name] = rank_sum_test(a, b)
    return EvalReport(1, reference, tuple(records), *p_values)


def _ranks_from_scores(scores: dict) -> dict:
    """0-indexed descending ranks; tied values share the mean position."""
    ranks = _midranks(-np.array(list(scores.values()), dtype=np.float64))
    return {name: float(rank - 1.0) for name, rank in zip(scores, ranks)}


def _grid_aucs(method: Method, p: dict, train: Dataset, test: Dataset,
               seed: int) -> list:
    """The held-out AUC at each grid value, in grid order, fitted from the
    smallest value up by one method.fits, built at the first fit: lcc
    and klcc as one chain.  A failure to build it fails each fit."""
    fits = functools.cache(lambda: method.fits(train, p, seed))
    aucs = {value: _attempt(lambda: _with_rule(fits()(value), train, p),
                            (test,))[1][0]
            for value in sorted(method.grid)}
    return [aucs[value] for value in method.grid]


def _procedure_two(config: BenchmarkConfig, methods: list[Method],
                   reference: str) -> EvalReport:
    data = config.data
    p = {**PARAM_DEFAULTS, **config.params}
    tables = {method.name: [] for method in methods}  # [fold][grid value]
    for held in stratified_kfold(data, config.folds, config.seed):
        train, test = _normalized(
            data.take(np.delete(np.arange(data.m), held)), data.take(held))
        for method in methods:
            tables[method.name].append(
                _grid_aucs(method, p, train, test, config.seed))
    grid_records = []
    for method in methods:
        best = None
        for value, fold_aucs in zip(method.grid, zip(*tables[method.name])):
            clean = [a for a in fold_aucs if not math.isnan(a)]
            mean_auc = sum(clean) / len(clean) if clean else -math.inf
            if best is None or mean_auc > best[0]:
                best = (mean_auc, value, tuple(fold_aucs))
        grid_records.append(GridRecord(method.name, method.param_name,
                                       best[1], best[0], best[2]))
    ranks = _ranks_from_scores({g.method: g.best_auc for g in grid_records})
    return EvalReport(2, reference, grid_records=tuple(grid_records),
                      ranks=ranks)


def run_benchmark(config: BenchmarkConfig) -> EvalReport:
    """Execute one of the two evaluation procedures on one dataset.

    Procedure 1 repeats stratified 70/30 splits with the configured
    parameters and records per-run train/test AUC and training wall
    time, plus rank-sum p-values of every method against the reference:
    lcc if it is among the methods, else the first method.
    Procedure 2 searches each method's parameter grid by k-fold cross
    validation and reports the best mean held-out AUC and method ranks.
    """
    if not config.methods:
        raise EvalError("need at least one method")
    if config.runs < 1:
        raise EvalError("runs must be at least 1")
    if config.procedure not in (1, 2):
        raise EvalError(f"unknown procedure {config.procedure}")
    check_methods(config.methods, config.params)
    methods = [METHODS[name] for name in config.methods]
    reference = "lcc" if "lcc" in config.methods else config.methods[0]
    procedure = _procedure_one if config.procedure == 1 else _procedure_two
    return procedure(config, methods, reference)


def aggregate_ranks(per_dataset_ranks) -> dict:
    """Mean rank per method over several procedure-2 reports."""
    per_dataset_ranks = list(per_dataset_ranks)
    if not per_dataset_ranks:
        raise EvalError("no rank tables to aggregate")
    names = set(per_dataset_ranks[0])
    for table in per_dataset_ranks[1:]:
        if set(table) != names:
            raise EvalError("rank tables cover different methods")
    return {name: sum(t[name] for t in per_dataset_ranks)
            / len(per_dataset_ranks) for name in sorted(names)}


# -------------------------------------------------------------- reporting

def report_to_csv(report: EvalReport) -> str:
    """One row per method and run; procedure-2 reports list grid rows."""
    if report.procedure == 1:
        lines = ["method,run,train_auc,test_auc,train_ms,error"]
        for r in report.records:
            err = r.error if r.error else ""
            lines.append(f"{r.method},{r.run},{r.train_auc!r},"
                         f"{r.test_auc!r},{r.train_ms!r},{err}")
    else:
        lines = ["method,param_name,best_param,best_auc,rank"]
        for g in report.grid_records:
            lines.append(f"{g.method},{g.param_name},{g.best_param!r},"
                         f"{g.best_auc!r},{report.ranks[g.method]!r}")
    return "\n".join(lines) + "\n"


def _flag(p_value: float, ref_mean: float, other_mean: float,
          larger_is_better: bool) -> str:
    """Appendix-style marker for a method against the reference:
    '*' significantly worse, '+' significantly better, '-' neither."""
    if p_value >= 0.05:
        return "-"
    better = other_mean > ref_mean if larger_is_better \
        else other_mean < ref_mean
    return "+" if better else "*"


def summary_table(report: EvalReport) -> str:
    """Aligned text table of the report, with significance flags."""
    if report.procedure == 2:
        lines = [f"{'method':<8} {'parameter':<12} {'best value':>12} "
                 f"{'best AUC':>10} {'rank':>6}"]
        for g in sorted(report.grid_records,
                        key=lambda g: report.ranks[g.method]):
            lines.append(f"{g.method:<8} {g.param_name:<12} "
                         f"{g.best_param:>12.6g} {g.best_auc:>10.4f} "
                         f"{report.ranks[g.method]:>6.1f}")
        return "\n".join(lines) + "\n"

    def stats(values):
        if values.size == 0:
            return math.nan, math.nan
        return float(values.mean()), float(values.std())

    table = _successes(report.records)
    ref = [stats(v)[0] for v in table.get(report.reference, np.empty((3, 0)))]
    lines = [f"{'method':<8} {'train AUC':>16} {'test AUC':>16} "
             f"{'time ms':>12} {'failures':>9}"]
    for name, columns in table.items():
        (mt, st), (me, se), (mm, _) = (stats(v) for v in columns)
        fails = sum(1 for r in report.records
                    if r.method == name and r.error is not None)
        f_tr = f_te = f_ms = " "
        if name != report.reference and name in report.p_test:
            f_tr = _flag(report.p_train[name], ref[0], mt, True)
            f_te = _flag(report.p_test[name], ref[1], me, True)
            f_ms = _flag(report.p_time[name], ref[2], mm, False)
        lines.append(f"{name:<8} {mt:>7.4f}±{st:<6.4f}{f_tr} "
                     f"{me:>7.4f}±{se:<6.4f}{f_te} "
                     f"{mm:>10.1f}{f_ms} {fails:>9d}")
    return "\n".join(lines) + "\n"
