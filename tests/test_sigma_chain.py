"""Procedure 2 fits lcc and klcc on each fold as one chain of warm-started
solves, from the most negative sigma up.  It must give what the per-value
loop of cold fits in tests/helpers.py gives: the same statuses, the same
optima, the same fold-AUC tables and the same report.  A sigma past the L1
gap of the fold's class means is refused unsolved on both sides."""

import hashlib

import numpy as np
import pytest

from lcckit import kernel, lcc, lp
from lcckit.data import gen_shape
from lcckit.evaluation import (METHODS, PARAM_DEFAULTS, BenchmarkConfig,
                               _grid_aucs, _kernel_spec, run_benchmark)
from tests.helpers import procedure_two_cold, procedure_two_folds


def recorder(monkeypatch):
    """Record every lcc and klcc solve, keyed by (kind, A, sigma), under
    the mode that recorded[None] names, and count the warm attempts whose
    dual simplex finished."""
    recorded = {None: "cold", "cold": {}, "chain": {}, "warm finishes": 0}
    real_phase = lp._dual_phase

    def counted(*args):
        finished, pivots = real_phase(*args)
        recorded["warm finishes"] += finished
        return finished, pivots
    monkeypatch.setattr(lp, "_dual_phase", counted)
    for kind, module in (("lcc", lcc), ("klcc", kernel)):
        def wrapped(problem, start=None, kind=kind, real=module.solve):
            solution = real(problem, start)
            key = (kind, hashlib.sha1(problem.A.tobytes()).hexdigest(),
                   float(problem.b[-1]))
            recorded[recorded[None]][key] = (solution, start is not None)
            return solution
        monkeypatch.setattr(module, "solve", wrapped)
    return recorded


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", ["jain_like", "circles", "spiral"])
def test_chain_matches_the_cold_loop(shape, seed, monkeypatch):
    data = gen_shape(shape, 150, 0.1, seed)
    config = BenchmarkConfig(data, ("lcc", "klcc"), seed=seed, procedure=2,
                             folds=5)
    recorded = recorder(monkeypatch)
    tables, records = procedure_two_cold(config)

    recorded[None] = "chain"
    p = dict(PARAM_DEFAULTS)
    chain_tables = {name: [] for name in config.methods}
    folds = procedure_two_folds(data, config.folds, seed)
    for train, test in folds:
        for name in config.methods:
            chain_tables[name].append(_grid_aucs(METHODS[name], p, train,
                                                 test, seed))
    for name in config.methods:
        by_value = dict(zip(METHODS[name].grid, zip(*chain_tables[name])))
        assert by_value == tables[name], name

    cold, chain = recorded["cold"], recorded["chain"]
    # a (kind, fold, sigma) is solved exactly when |sigma| is within the L1
    # gap of the fold's class means, of features for lcc and of Gram rows
    # for klcc; every other one is refused before a solve
    reachable = 0
    for train, _ in folds:
        spec = _kernel_spec(train, p)
        for kind, coords, problem in (
                ("lcc", train.features,
                 lcc.assemble_lcc_lp(train, p["lam"], -1.0)),
                ("klcc", kernel.gram(spec, train.features),
                 kernel.assemble_klcc_lp(train, spec, p["lam"], -1.0))):
            gap = np.abs(coords[train.labels == 1].mean(axis=0)
                         - coords[train.labels == -1].mean(axis=0)).sum()
            fold = hashlib.sha1(problem.A.tobytes()).hexdigest()
            for sigma in METHODS[kind].grid:
                reachable += -sigma <= gap
                assert ((kind, fold, sigma) in chain) == (-sigma <= gap), (
                    kind, sigma, gap)
    assert sorted(cold) == sorted(chain) and len(chain) == reachable
    for key, (want, _) in cold.items():
        have, _ = chain[key]
        assert have.status == want.status, key[::2]
        if want.status == "optimal":
            assert have.objective_value == pytest.approx(
                want.objective_value, rel=1e-9, abs=0.0), key[::2]
            assert np.abs(have.x - want.x).max() <= 1e-9, key[::2]
            assert have.dual_infeasibility <= 1e-9
    # every solve after the first optimum of its chain starts warm, and
    # finishes on the dual simplex
    first_optimum = {}
    for (kind, fold, sigma), (want, _) in cold.items():
        if want.status == "optimal":
            first_optimum[kind, fold] = min(first_optimum.get((kind, fold),
                                                              0.0), sigma)
    assert [started for _, started in chain.values()] == [
        sigma > first_optimum.get((kind, fold), 0.0)
        for kind, fold, sigma in chain]
    assert recorded["warm finishes"] == sum(
        started for _, started in chain.values()) > 0

    report = run_benchmark(config)
    assert report.grid_records == tuple(records)


def test_the_jain_like_klcc_chain_stays_within_its_pivot_budget(
        monkeypatch):
    # dual steepest-edge pricing and the bound-flipping ratio test take
    # 1,394 pivots here; Dantzig pricing and the plain ratio test took
    # 3,335
    recorded = recorder(monkeypatch)
    recorded[None] = "chain"
    p = dict(PARAM_DEFAULTS)
    data = gen_shape("jain_like", 150, 0.1, 0)
    for train, test in procedure_two_folds(data, 5, 0):
        _grid_aucs(METHODS["klcc"], p, train, test, 0)
    solves = recorded["chain"].values()
    assert len(solves) == 65
    assert sum(solution.iterations for solution, _ in solves) <= 1600
