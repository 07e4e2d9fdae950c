"""The simplex takes the recorded pivot path on a fixed set of programs.

tests/data/lp_golden.json holds 63 programs with the status, the
iteration count and the objective (float.hex) that an earlier build of
`lp.solve` returned: lcc and klcc programs on three jain_like:m=200
folds at feasible and infeasible sigma, klcc on spiral:m=200, random box
programs (dense ones, ones with singleton columns, ones that leave
artificials for phase 1) and two programs with no rows.  The
centralization programs are rebuilt from their recipe; the others are
stored inline as JSON numbers, with infinite bounds as "inf"/"-inf".
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lcckit.data import apply_normalizer, fit_normalizer, gen_shape
from lcckit.evaluation import stratified_kfold
from lcckit.kernel import KernelSpec, assemble_klcc_lp, median_pairwise_distance
from lcckit.lcc import assemble_lcc_lp
from lcckit.lp import LpProblem, solve

CASES = json.loads((Path(__file__).parent / "data"
                    / "lp_golden.json").read_text())["cases"]


def _numbers(values):
    return np.array([float(v) for v in values], dtype=np.float64)


def rebuild(case):
    if case["source"] == "inline":
        r, d = case["shape"]
        A = np.array([_numbers(row) for row in case["A"]]).reshape(r, d)
        return LpProblem(_numbers(case["c"]), A, tuple(case["relations"]),
                         _numbers(case["b"]), _numbers(case["lower"]),
                         _numbers(case["upper"]))
    data = gen_shape(case["source"], case["m"], case["noise"], case["seed"])
    if case["fold"] is not None:
        folds = stratified_kfold(data, case["folds"], case["seed"])
        data = data.take(np.delete(np.arange(data.m), folds[case["fold"]]))
    data = apply_normalizer(fit_normalizer(data), data)
    if case["kind"] == "lcc":
        return assemble_lcc_lp(data, case["lam"], case["sigma"])
    spec = KernelSpec("rbf", median_pairwise_distance(data.features))
    return assemble_klcc_lp(data, spec, case["lam"], case["sigma"])


@pytest.mark.parametrize("index", range(len(CASES)))
def test_recorded_pivot_path(index):
    case = CASES[index]
    sol = solve(rebuild(case))
    assert (sol.status, sol.iterations) == (case["status"], case["iterations"])
    # optimal and infeasible answers end on a basis optimal for their phase
    assert (sol.dual_infeasibility <= 1e-9) == (sol.status != "unbounded")
    if case["objective"] is None:
        assert sol.objective_value is None
    else:
        assert sol.objective_value == pytest.approx(
            float.fromhex(case["objective"]), rel=1e-9, abs=1e-12)
