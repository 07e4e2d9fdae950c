"""Procedure 2 fits lcc and klcc on each fold as one chain of warm-started
solves, from the most negative sigma up.  It must give what the per-value
loop of cold fits in tests/helpers.py gives: the same statuses, the same
optima, the same fold-AUC tables and the same report."""

import hashlib

import numpy as np
import pytest

from lcckit import kernel, lcc, lp
from lcckit.data import gen_shape
from lcckit.evaluation import (METHODS, PARAM_DEFAULTS, BenchmarkConfig,
                               _grid_aucs, _normalized, run_benchmark,
                               stratified_kfold)
from tests.helpers import procedure_two_cold


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
    for held in stratified_kfold(data, config.folds, seed):
        train, test = _normalized(
            data.take(np.delete(np.arange(data.m), held)), data.take(held))
        for name in config.methods:
            chain_tables[name].append(_grid_aucs(METHODS[name], p, train,
                                                 test, seed))
    for name in config.methods:
        by_value = dict(zip(METHODS[name].grid, zip(*chain_tables[name])))
        assert by_value == tables[name], name

    cold, chain = recorded["cold"], recorded["chain"]
    assert sorted(cold) == sorted(chain) and len(chain) == 150
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
