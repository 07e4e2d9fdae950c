"""The three workloads: the paper's own pipeline, driven through
`lcckit.cli.main` exactly as a user would type it.

A pass is one unit of timed work.  Every pass of a run uses the same
inputs, which are made from the seed during set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

P1_RUNS = 1            # repeated 70/30 splits per procedure-1 pass
TP_FEATURES = 10
TP_TRAIN_PER_CLASS = 400
TP_PREDICT_ROWS = 100_000
# class +1 is class -1 shifted by TP_SHIFT; both have per-feature spread
# TP_SCALES, so the classes overlap (held-out AUC about 0.8)
TP_SHIFT = 0.35 * np.array([1.0, -1.0] * (TP_FEATURES // 2))
TP_SCALES = np.linspace(0.8, 1.4, TP_FEATURES)


@dataclass
class PassOutcome:
    wall_s: float
    attempted: int
    failed: int
    auc: float = math.nan
    # the outputs checked against reference.json: per-method AUCs and,
    # for procedure 2, each method's best grid value
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    timed_out: bool = False
    train_s: float = 0.0
    predict_s: float = 0.0
    predict_rows: int = 0


class Hooks:
    """Keeps what the CLI computed but does not return: the procedure
    report and the in-memory classifier handed to save_classifier."""

    def __init__(self, cli) -> None:
        self.report = None
        self.saved = None
        run_benchmark, save_classifier = cli.run_benchmark, cli.save_classifier

        def keep_report(*args, **kwargs):
            self.report = run_benchmark(*args, **kwargs)
            return self.report

        def keep_saved(path, saved):
            self.saved = saved
            return save_classifier(path, saved)

        cli.run_benchmark = keep_report
        cli.save_classifier = keep_saved


def call_cli(cli, argv: list) -> tuple[int, str]:
    """Exit code and captured stderr of one `lcckit` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks; independent of lcckit's roc_auc."""
    order = np.argsort(scores, kind="stable")
    _, inverse, counts = np.unique(scores[order], return_inverse=True,
                                   return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = np.empty(scores.size)
    ranks[order] = midranks[inverse]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name = ""
    pass_timeout_s = 60.0
    setup_reps = 21

    def setup(self, cli, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def run_pass(self, cli, hooks: Hooks, state: dict) -> PassOutcome:
        """The timed part: CLI calls only."""
        raise NotImplementedError

    def check_pass(self, hooks: Hooks, state: dict,
                   outcome: PassOutcome) -> None:
        """Untimed inspection of the pass's outputs; sets auc, outputs and
        errors."""

    def final_checks(self, hooks: Hooks, state: dict) -> list:
        """(name, ok, message) for checks made once per run."""
        return []


def _failed_command(outcome: PassOutcome, code: int, err: str,
                    what: str) -> None:
    outcome.failed += 1
    outcome.errors.append(f"{what} exited {code}: {err}")


class Procedure(Workload):
    """A `benchmark` command; the report comes back through the hooks."""

    attempted = 0   # units of work per pass: records or folds

    def run_pass(self, cli, hooks, state):
        hooks.report = None
        code, err = call_cli(cli, state["argv"])
        if code != 0:
            return PassOutcome(0.0, self.attempted, self.attempted,
                               errors=[f"benchmark exited {code}: {err}"])
        return PassOutcome(0.0, self.attempted, 0)


class ProcedureOne(Procedure):
    name = "p1_gaussian"
    pass_timeout_s = 60.0
    attempted = P1_RUNS * 4

    def setup(self, cli, seed, workdir):
        cli.parse_gen_spec("gaussian", seed)
        return {"argv": ["benchmark", "--gen", "gaussian", "--method",
                         "lcc,fqcc,lda,svm", "--runs", str(P1_RUNS),
                         "--seed", str(seed), "--out", str(workdir / "p1")]}

    def check_pass(self, hooks, state, outcome):
        if outcome.failed:
            return
        records = hooks.report.records
        if len(records) != outcome.attempted:
            outcome.failed = outcome.attempted
            outcome.errors.append(f"{len(records)} records, expected "
                                  f"{outcome.attempted}")
            return
        bad = [r for r in records if r.error is not None]
        outcome.failed = len(bad)
        outcome.errors += [f"{r.method} run {r.run}: {r.error}" for r in bad]
        good = [r for r in records if r.error is None]
        outcome.auc = (float(np.mean([r.test_auc for r in good])) if good
                       else math.nan)
        for method in {r.method for r in good}:
            outcome.outputs[f"{method}.auc"] = float(np.mean(
                [r.test_auc for r in good if r.method == method]))


class ProcedureTwo(Procedure):
    name = "p2_jain"
    pass_timeout_s = 90.0
    folds = 5
    methods = ("lcc", "klcc", "lda")
    attempted = folds * len(methods)

    def setup(self, cli, seed, workdir):
        spec = "jain_like:m=200,noise=0.1"
        cli.parse_gen_spec(spec, seed)
        return {"argv": ["benchmark", "--gen", spec, "--method",
                         ",".join(self.methods), "--procedure", "2",
                         "--folds", str(self.folds), "--seed", str(seed),
                         "--out", str(workdir / "p2")]}

    def check_pass(self, hooks, state, outcome):
        if outcome.failed:
            return
        grid = hooks.report.grid_records
        if sorted(g.method for g in grid) != sorted(self.methods):
            outcome.failed = outcome.attempted
            outcome.errors.append("report does not cover every method")
            return
        for g in grid:
            nan = sum(1 for a in g.fold_aucs if math.isnan(a))
            if nan or len(g.fold_aucs) != self.folds:
                outcome.failed += max(nan, 1)
                outcome.errors.append(f"{g.method}: {nan} NaN fold AUC(s) at"
                                      f" best {g.param_name}={g.best_param}")
        outcome.auc = float(np.mean([g.best_auc for g in grid]))
        for g in grid:
            outcome.outputs[f"{g.method}.auc"] = float(g.best_auc)
            outcome.outputs[f"{g.method}.{g.param_name}"] = float(g.best_param)


class TrainPredict(Workload):
    name = "train_predict"
    pass_timeout_s = 90.0
    setup_reps = 3

    def setup(self, cli, seed, workdir):
        # The class distributions are fixed, so the overlap (and with it the
        # LP's difficulty) is the same for every seed; the seed draws rows.
        rng = np.random.default_rng(seed)

        def draw(per_class):
            labels = np.repeat([-1, 1], per_class)
            feats = rng.standard_normal((2 * per_class, TP_FEATURES))
            feats = feats * TP_SCALES
            feats[labels == 1] += TP_SHIFT
            order = rng.permutation(labels.size)
            return feats[order], labels[order]

        train_x, train_y = draw(TP_TRAIN_PER_CLASS)
        pred_x, pred_y = draw(TP_PREDICT_ROWS // 2)
        fmt = ["%.17g"] * TP_FEATURES + ["%d"]
        paths = {}
        for label, x, y in (("train", train_x, train_y),
                            ("predict", pred_x, pred_y)):
            paths[label] = workdir / f"{label}.csv"
            np.savetxt(paths[label], np.column_stack([x, y]), fmt=fmt,
                       delimiter=",")
        out = workdir / "tp"
        return {
            "train_argv": ["train", "--data", str(paths["train"]), "--method",
                           "lcc", "--discriminator", "1sv", "--seed",
                           str(seed), "--out", str(out)],
            "predict_argv": ["predict", "--model", str(out / "model.txt"),
                             "--data", str(paths["predict"]), "--out",
                             str(out)],
            "model": out / "model.txt",
            "predictions": out / "predictions.csv",
            "pred_x": pred_x, "pred_y": pred_y, "digest": None,
        }

    def run_pass(self, cli, hooks, state):
        hooks.saved = None
        state["predictions"].unlink(missing_ok=True)
        outcome = PassOutcome(0.0, 2, 0)
        start = time.perf_counter()
        code, err = call_cli(cli, state["train_argv"])
        outcome.train_s = time.perf_counter() - start
        if code != 0:
            _failed_command(outcome, code, err, "train")
            outcome.attempted = 1
            return outcome
        start = time.perf_counter()
        code, err = call_cli(cli, state["predict_argv"])
        outcome.predict_s = time.perf_counter() - start
        outcome.predict_rows = TP_PREDICT_ROWS
        if code != 0:
            _failed_command(outcome, code, err, "predict")
        return outcome

    def check_pass(self, hooks, state, outcome):
        if outcome.failed:
            return
        raw = state["predictions"].read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if state["digest"] is None:
            table = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1)
            state["digest"], state["table"] = digest, table
            state["auc"] = rank_auc(table[:, 1], state["pred_y"])
        elif digest != state["digest"]:
            outcome.failed += 1
            outcome.errors.append("predictions differ from the first pass")
        outcome.auc = state["auc"]
        outcome.outputs["predict.auc"] = state["auc"]

    def final_checks(self, hooks, state):
        """predict_saved agrees bit for bit before saving, after loading,
        and with the predictions.csv the predict command wrote."""
        if hooks.saved is None or state["digest"] is None:
            return [("roundtrip", False, "no completed train and predict")]
        from lcckit.model_io import load_classifier, predict_saved
        before = predict_saved(hooks.saved, state["pred_x"])
        after = predict_saved(load_classifier(str(state["model"])),
                              state["pred_x"])
        table = state["table"]
        same = (np.array_equal(before[0], after[0])
                and before[1].tobytes() == after[1].tobytes())
        written = (np.array_equal(before[0], table[:, 0].astype(np.int64))
                   and before[1].tobytes() == table[:, 1].tobytes())
        message = (f"labels and scores of {before[0].size} rows: "
                   f"save/load {'identical' if same else 'DIFFER'}, "
                   f"predictions.csv {'identical' if written else 'DIFFERS'}")
        return [("roundtrip", same and written, message)]


WORKLOADS = {w.name: w for w in (ProcedureOne(), ProcedureTwo(),
                                 TrainPredict())}
