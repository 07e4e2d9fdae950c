"""lcckit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload p2_jain --seed 3 --seconds 30 --trace 0

Run from the repository root or anywhere else; lcckit is imported from
the `src/` directory next to this one.  --trace 0 measures the end-to-end
metrics with no instrumentation.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead,
the HiGHS oracle check and the determinism check on counts.
Metric names and units are read from BENCHMARK.json at the root.
"""

from __future__ import annotations

import os
import sys

# One client, at most nproc threads: BLAS is pinned before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from spans import ROOT, Tracer, self_seconds_by_layer, totals_by_name
from workloads import WORKLOADS, Hooks, PassOutcome

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
WORK = ROOT_DIR / ".perfbench"
REFERENCE = HERE / "reference.json"
# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0
ORACLE_RESERVE_S = 15.0
# A p2_jain or train_predict pass takes 10-20 s.  An untraced run makes at
# least three passes, even past --seconds, so that its median drops one
# slow pass.
MIN_PASSES = 3
LAYERS = ("lp", "lcc", "kernel", "discriminators", "baselines", "evaluation",
          "data", "model_io", "cli")
# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = ("lp.lcc.calls", "lp.lcc.iterations", "lp.klcc.calls",
                "lp.klcc.iterations", "lcc.fqcc_objective.calls",
                "lcc.class_centers.calls", "kernel.gram.calls",
                "baselines.hinge_objective.calls")


class PassTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in lcckit
    mistakes it for a numeric failure."""


def _on_alarm(signum, frame):
    raise PassTimeout()


def import_lcckit() -> dict:
    """Import lcckit afresh from SRC; returns the modules by dotted name."""
    for name in [n for n in sys.modules if n.split(".")[0] == "lcckit"]:
        del sys.modules[name]
    cli = importlib.import_module("lcckit.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: lcckit came from {cli.__file__}, "
                         f"not from {SRC}")
    return {n: m for n, m in sys.modules.items()
            if n.split(".")[0] == "lcckit"}


def run_pass(workload, cli, hooks, state, timeout_s: float,
             tracer: Tracer | None = None) -> PassOutcome:
    """One timed pass under an alarm; a stall is reported as a timeout."""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            if tracer is None:
                outcome = workload.run_pass(cli, hooks, state)
            else:
                outcome = tracer.run_span(ROOT, workload.run_pass, cli,
                                          hooks, state)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except PassTimeout:
        if tracer is not None:
            tracer.reset_stack()
        print(f"timeout after {timeout_s:.0f} s")
        return PassOutcome(time.perf_counter() - start, 1, 1, timed_out=True,
                           errors=[f"timeout after {timeout_s:.0f} s"])
    except Exception:
        # an exception the CLI does not handle is a failed pass, not a
        # crash of the benchmark
        if tracer is not None:
            tracer.reset_stack()
        return PassOutcome(time.perf_counter() - start, 1, 1,
                           errors=[traceback.format_exc()])
    outcome.wall_s = time.perf_counter() - start
    workload.check_pass(hooks, state, outcome)
    return outcome


def tail(values: list) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered)!r} s over n={n}"
    if n <= 10:
        return text + "; no percentile has 10 samples beyond it"
    k = n - 11
    return text + (f"; p{100 * (k + 1) / n:.0f} {ordered[k]!r} s "
                   "(10 samples beyond)")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("lcckit/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(workload: str, seed: int, outputs: dict) -> tuple:
    """Each checked output against the value the seed code gave.

    An AUC may differ by the workload's tolerance; a best grid value must
    be the same.  For a seed that reference.json does not hold, each AUC
    must lie in the band of the recorded seeds widened by the tolerance.
    """
    reference = json.loads(REFERENCE.read_text())
    tol = reference["auc_tolerance"][workload]
    table = reference["outputs"].get(workload, {})
    if not outputs:
        return ("outputs", False, "no outputs: every pass failed")
    if not table:
        return ("outputs", False, "no recorded outputs")
    problems = []
    if str(seed) in table:
        expected = table[str(seed)]
        if sorted(outputs) != sorted(expected):
            problems.append(f"outputs {sorted(outputs)} != recorded "
                            f"{sorted(expected)}")
        for key in sorted(set(outputs) & set(expected)):
            got, want = outputs[key], expected[key]
            ok = (abs(got - want) <= tol if key.endswith(".auc")
                  else got == want)
            if not ok:
                problems.append(f"{key} {got!r} vs {want!r}")
        basis = f"seed {seed} as recorded, AUC tolerance {tol}"
    else:
        for key in sorted(k for k in outputs if k.endswith(".auc")):
            recorded = [row[key] for row in table.values() if key in row]
            if not recorded:
                problems.append(f"{key} not recorded for any seed")
                continue
            lo, hi = min(recorded) - tol, max(recorded) + tol
            if not lo <= outputs[key] <= hi:
                problems.append(f"{key} {outputs[key]!r} outside "
                                f"[{lo!r}, {hi!r}]")
        basis = (f"seed {seed} not recorded: AUCs within the band of "
                 f"{len(table)} recorded seeds widened by {tol}")
    detail = ", ".join(f"{k} {v!r}" for k, v in sorted(outputs.items()))
    return ("outputs", not problems,
            f"{basis}; " + ("; ".join(problems) if problems else detail))


def check_counts(workload: str, seed: int, per_pass: list) -> tuple:
    """Counts agree across traced passes and with earlier runs of the
    same code and seed (kept in .perfbench/counts.json)."""
    first = per_pass[0]
    problems = [f"pass {i}: {k} {p[k]} != {first[k]}"
                for i, p in enumerate(per_pass[1:], start=2)
                for k in EXACT_COUNTS if p[k] != first[k]]
    store = WORK / "counts.json"
    key = f"{workload}/{seed}/{source_digest()}"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        problems += [f"{k} {first[k]} != {known[key][k]} in an earlier run"
                     for k in EXACT_COUNTS if first[k] != known[key][k]]
        origin = "earlier run"
    else:
        known[key] = {k: first[k] for k in EXACT_COUNTS}
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        origin = "no earlier run, recorded"
    message = (f"{len(per_pass)} traced pass(es); {origin}: "
               + ("; ".join(problems) if problems else "identical"))
    return ("counts", not problems, message)


def pass_layer_metrics(totals: dict, lp_calls: list) -> dict:
    """Per-layer metrics of one traced pass."""
    def s(name):
        return totals[name].s if name in totals else 0.0

    def self_s(name):
        return totals[name].self_s if name in totals else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    out = {}
    for shape in ("lcc", "klcc"):
        mine = [c for c in lp_calls if c.shape == shape]
        iterations = sum(c.iterations for c in mine)
        seconds = s(f"lp.{shape}")
        out[f"lp.{shape}.calls"] = len(mine)
        out[f"lp.{shape}.s"] = seconds
        out[f"lp.{shape}.iterations"] = iterations
        out[f"lp.{shape}.us_per_iter"] = (1e6 * seconds / iterations
                                          if iterations else 0.0)
        out[f"lp.{shape}.infeasible_share"] = (
            sum(c.status == "infeasible" for c in mine) / len(mine)
            if mine else 0.0)
    out.update({
        "lcc.assemble.s": s("lcc.assemble"),
        "lcc.train_lcc.self_s": self_s("lcc.train_lcc"),
        "lcc.train_fqcc.s": s("lcc.train_fqcc"),
        "lcc.train_fqcc.calls": calls("lcc.train_fqcc"),
        "lcc.fqcc_objective.calls": calls("lcc.fqcc_objective"),
        "lcc.class_centers.calls": calls("lcc.class_centers"),
        "kernel.gram.s": s("kernel.gram"),
        "kernel.gram.calls": calls("kernel.gram"),
        "kernel.median_width.s": s("kernel.median_width"),
        "kernel.train_klcc.self_s": self_s("kernel.train_klcc"),
        "kernel.kscore.s": s("kernel.kscore"),
        "discriminators.fit.s": s("discriminators.fit"),
        "discriminators.solve_svm_1d.s": s("discriminators.solve_svm_1d"),
        "discriminators.score.s": s("discriminators.score"),
        "baselines.svm.s": s("baselines.svm"),
        "baselines.svm.calls": calls("baselines.svm"),
        "baselines.hinge_objective.calls": calls("baselines.hinge_objective"),
        "baselines.lda.s": s("baselines.lda"),
        "evaluation.roc_auc.s": s("evaluation.roc_auc"),
        "evaluation.roc_auc.calls": calls("evaluation.roc_auc"),
        "evaluation.rank_sum_test.s": s("evaluation.rank_sum_test"),
        "evaluation.split.s": s("evaluation.split"),
        "evaluation.self_s": self_s("evaluation.run_benchmark"),
        "data.generate.s": s("data.generate"),
        "data.load_csv.s": s("data.load_csv"),
        "data.normalize.s": s("data.normalize"),
        "model_io.save.s": s("model_io.save"),
        "model_io.load.s": s("model_io.load"),
        "model_io.predict_saved.s": s("model_io.predict_saved"),
        "cli.train.self_s": self_s("cli.train"),
        "cli.predict.self_s": self_s("cli.predict"),
        "cli.benchmark.self_s": self_s("cli.benchmark"),
        "trace.unattributed_s": self_s(ROOT),
        "trace.spans": sum(t.calls for t in totals.values()),
    })
    by_layer = self_seconds_by_layer(totals)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = by_layer.get(layer, 0.0)
    return out


def median_of(rows: list, key: str) -> float:
    """Median over passes; a count stays a whole number."""
    values = [r[key] for r in rows]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(args, workload, modules, hooks, state, tracer,
            deadline) -> tuple:
    """Passes while the next is expected to end within --seconds, and at
    least MIN_PASSES untraced ones: (untraced, traced) outcomes.

    With tracing on, passes go untraced, traced, traced, untraced, ... so
    that warm-up and drift fall on both sides alike, and at least one of
    each is made.  The wrappers are in place only during traced passes.
    """
    cli = modules["lcckit.cli"]
    untraced: list = []
    traced: list = []
    reserve = ORACLE_RESERVE_S if tracer is not None else 0.0
    start = time.perf_counter()
    while True:
        timeout = min(workload.pass_timeout_s,
                      deadline - reserve - time.perf_counter())
        if timeout < 1.0:
            break
        count = len(untraced) + len(traced)
        if tracer is not None and count % 4 in (1, 2):
            tracer.pass_id = len(traced)
            tracer.install(modules)
            try:
                traced.append(run_pass(workload, cli, hooks, state, timeout,
                                       tracer))
            finally:
                tracer.uninstall()
            last = traced[-1]
        else:
            untraced.append(run_pass(workload, cli, hooks, state, timeout))
            last = untraced[-1]
        if last.timed_out:
            break
        enough = (len(untraced) >= MIN_PASSES if tracer is None
                  else untraced and traced)
        typical = statistics.median(o.wall_s for o in untraced + traced)
        if enough and (time.perf_counter() - start + typical
                       > args.seconds):
            break
    return untraced, traced


def traced_metrics(args, tracer: Tracer, untraced: list, traced: list,
                   state: dict, deadline: float, checks: list) -> dict:
    """Per-layer metrics (medians over traced passes), the overhead, the
    HiGHS oracle and the determinism check."""
    per_pass = [pass_layer_metrics(
        totals_by_name(tracer.spans, i),
        [c for c in tracer.lp_calls if c.pass_id == i])
        for i in range(len(traced))]
    if not per_pass:
        checks.append(("traced", False, "no traced pass ran"))
        per_pass = [pass_layer_metrics({}, [])]
    metrics = {name: median_of(per_pass, name) for name in per_pass[0]}
    if traced:
        checks.append(check_counts(args.workload, args.seed, per_pass))
        print_attribution(per_pass[0], traced[0].wall_s)
    metrics["trace.overhead_s"] = (
        statistics.median(o.wall_s for o in traced)
        - statistics.median(o.wall_s for o in untraced)
        if traced and untraced else 0.0)
    model = state.get("model")
    metrics["model_io.bytes"] = (model.stat().st_size
                                 if model is not None and model.is_file()
                                 else 0)
    calls = [c for c in tracer.lp_calls if c.problem is not None]
    report = oracle.check(calls, deadline)
    metrics["lp.highs_s"] = report.highs_s
    metrics["lp.oracle_mismatches"] = report.mismatches
    metrics["lp.oracle_checked"] = report.checked
    for message in report.messages:
        print(f"oracle: {message}")
    if report.available:
        checks.append(("oracle", report.mismatches == 0,
                       f"{report.checked} of {len(calls)} LP(s) re-solved "
                       f"by HiGHS, {report.mismatches} mismatch(es)"))
    else:
        print("oracle: skipped, scipy is not importable")
    return metrics


def run(args, spec: dict) -> int:
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setups = []
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            modules = import_lcckit()
            state = workload.setup(modules["lcckit.cli"], args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        hooks = Hooks(modules["lcckit.cli"])
        tracer = Tracer() if args.trace else None
        untraced, traced = measure(args, workload, modules, hooks, state,
                                   tracer, deadline)

        outcomes = untraced + traced
        for kind, group in (("untraced", untraced), ("traced", traced)):
            for o in group:
                for err in o.errors:
                    print(f"error ({kind} pass): {err}")
        done = [o for o in outcomes if o.outputs]
        auc = done[0].auc if done else math.nan
        checks = [check_outputs(args.workload, args.seed,
                                done[0].outputs if done else {})]
        differ = [o.outputs for o in done if o.outputs != done[0].outputs]
        if differ:
            checks.append(("outputs_repeat", False,
                           f"outputs differ between passes: {done[0].outputs}"
                           f" then {differ[0]}"))
        checks += workload.final_checks(hooks, state)

        walls = [o.wall_s for o in untraced]
        tp = [o for o in untraced if o.predict_rows and not o.failed]
        metrics = {
            "train_s": (statistics.median(o.train_s for o in tp)
                        if tp else 0.0),
            "predict_rows_per_s": (statistics.median(
                o.predict_rows / o.predict_s for o in tp) if tp else 0.0),
        }
        if tracer is not None:
            metrics.update(traced_metrics(args, tracer, untraced, traced,
                                          state, deadline, checks))
        else:
            metrics["wall_s"] = statistics.median(walls)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics["test_auc"] = 0.0 if math.isnan(auc) else auc
            print(f"wall_s {tail(walls)}; passes {walls}")
            print(f"setup_s {setups}")
            if tp:
                print(f"train_s {metrics['train_s']!r} s, predict_rows_per_s "
                      f"{metrics['predict_rows_per_s']!r} 1/s "
                      f"(medians over {len(tp)} passes)")

        attempted = sum(o.attempted for o in outcomes) + len(checks)
        failed = sum(o.failed for o in outcomes) + sum(
            not ok for _, ok, _ in checks)
        for name, ok, message in checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} - {message}")
        print(f"failed_share {failed}/{attempted} = {failed / attempted!r}")
        print("env " + json.dumps(environment(args)))

        result = {}
        for entry in spec["per_layer" if args.trace else "end_to_end"]:
            value = metrics[entry["name"]]
            print(f"metric {entry['name']} {value!r} {entry['unit']}")
            result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": result}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_attribution(layer_metrics: dict, wall_s: float) -> None:
    """Each layer's share of the first traced pass, by self time."""
    print(f"attribution of traced pass 1 ({wall_s:.3f} s wall):")
    rows = [(layer, layer_metrics[f"layer.{layer}.self_s"])
            for layer in LAYERS]
    rows.append(("unattributed", layer_metrics["trace.unattributed_s"]))
    for layer, seconds in sorted(rows, key=lambda r: -r[1]):
        print(f"  {layer:<15} {seconds:9.4f} s {100 * seconds / wall_s:6.1f}%")


def environment(args) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": NPROC,
            "blas_threads": BLAS_THREADS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcckit" / "__init__.py").is_file():
        print(f"perfbench: no lcckit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
