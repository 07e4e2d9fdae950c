"""Solver checks: hand-solved programs, brute-force agreement, determinism."""

import numpy as np
import pytest

from lcckit import lp
from lcckit.data import (apply_normalizer, fit_normalizer, gen_gaussian_pair,
                         gen_shape)
from lcckit.evaluation import stratified_kfold
from lcckit.kernel import KernelSpec, assemble_klcc_lp, median_pairwise_distance
from lcckit.lcc import assemble_lcc_lp
from lcckit.lp import (CyclingError, LpFormatError, LpProblem, LpSolution,
                       format_problem, solve)
from tests.helpers import crash_loop, lp_brute_force, random_box_lp


def make(c, A, relations, b, lower, upper):
    return LpProblem(np.asarray(c, dtype=float), np.asarray(A, dtype=float),
                     tuple(relations), np.asarray(b, dtype=float),
                     np.asarray(lower, dtype=float),
                     np.asarray(upper, dtype=float))


def residuals_ok(problem, x, tol=1e-7):
    lhs = problem.A @ x
    for i, rel in enumerate(problem.relations):
        if rel == "<=" and lhs[i] > problem.b[i] + tol:
            return False
        if rel == ">=" and lhs[i] < problem.b[i] - tol:
            return False
    return bool(np.all(x >= problem.lower - 1e-9)
                and np.all(x <= problem.upper + 1e-9))


def test_single_variable_box():
    # maximize x on [0, 1] written as minimize -x
    problem = make([-1.0], np.zeros((0, 1)), (), [], [0.0], [1.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)


def test_two_variable_known_optimum():
    # minimize -x - y subject to x + y <= 1, box [0, 1]^2
    problem = make([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                   [0.0, 0.0], [1.0, 1.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-10)
    assert sol.x[0] + sol.x[1] == pytest.approx(1.0, abs=1e-10)


def test_geq_rows_and_negative_bounds():
    # minimize x + 2y subject to x + y >= 1, y >= -1; x in [-5, 5]
    problem = make([1.0, 2.0], [[1.0, 1.0]], (">=",), [1.0],
                   [-5.0, -1.0], [5.0, 5.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    # push y to its lower bound, then x = 2 satisfies the row
    assert sol.x[1] == pytest.approx(-1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


def test_infeasible_reported_by_status():
    problem = make([1.0], [[1.0], [1.0]], ("<=", ">="), [-1.0, 1.0],
                   [-10.0], [10.0])
    sol = solve(problem)
    assert sol.status == "infeasible"
    assert sol.x is None
    assert sol.objective_value is None


def test_unbounded_reported_by_status():
    problem = make([-1.0], np.zeros((0, 1)), (), [],
                   [0.0], [np.inf])
    sol = solve(problem)
    assert sol.status == "unbounded"


def test_unbounded_with_row():
    # minimize -x - y with x - y <= 0 and no upper bounds
    problem = make([-1.0, -1.0], [[1.0, -1.0]], ("<=",), [0.0],
                   [0.0, 0.0], [np.inf, np.inf])
    sol = solve(problem)
    assert sol.status == "unbounded"


def test_equality_via_pair_of_rows():
    # x + y == 1 expressed as <= and >=, minimize x
    problem = make([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], ("<=", ">="),
                   [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-9)


def test_one_sided_bounds_mix():
    # epsilon-style variable with lower bound only
    problem = make([0.0, 1.0], [[1.0, -1.0]], ("<=",), [0.0],
                   [-1.0, -0.25], [1.0, np.inf])
    sol = solve(problem)
    assert sol.status == "optimal"
    # objective pushes eps down to max(lower, best x), x free to sit at -1
    assert sol.objective_value == pytest.approx(-0.25, abs=1e-9)


def test_degenerate_many_redundant_rows_terminates():
    # many copies of the same active constraint force degenerate pivots
    A = np.vstack([np.ones((8, 2)), np.eye(2)])
    problem = make([-1.0, -1.0], A, ("<=",) * 10,
                   [1.0] * 8 + [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)


def test_iteration_cap_raises_cycling(monkeypatch):
    problem = make([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                   [0.0, 0.0], [1.0, 1.0])
    monkeypatch.setattr(lp, "ITERATIONS_PER_SIZE", 0)
    with pytest.raises(CyclingError, match="cycling suspected"):
        solve(problem)


def test_validation_rejects_bad_shapes():
    with pytest.raises(LpFormatError):
        make([1.0], [[1.0, 2.0]], ("<=",), [0.0], [0.0], [1.0])
    with pytest.raises(LpFormatError):
        make([1.0], [[1.0]], ("==",), [0.0], [0.0], [1.0])
    with pytest.raises(LpFormatError):
        make([1.0], [[1.0]], ("<=",), [0.0], [2.0], [1.0])
    with pytest.raises(LpFormatError):
        make([np.nan], [[1.0]], ("<=",), [0.0], [0.0], [1.0])


def test_solution_status_validated():
    with pytest.raises(LpFormatError):
        LpSolution("maybe", None, None, 0)


def test_format_problem_mentions_all_parts():
    problem = make([1.0, -2.0], [[1.0, 1.0]], (">=",), [3.0],
                   [0.0, -1.0], [5.0, np.inf])
    text = format_problem(problem)
    assert "minimize" in text
    assert ">=" in text
    assert "x1" in text


def test_matches_brute_force_on_random_box_lps():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        raw = random_box_lp(rng)
        status, best = lp_brute_force(*raw)
        problem = make(*raw)
        sol = solve(problem)
        assert sol.status in ("optimal", "infeasible")
        if status == "infeasible":
            # brute force misses no vertex on these boxes
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal", format_problem(problem)
        assert sol.objective_value == pytest.approx(best, abs=1e-6)
        assert residuals_ok(problem, sol.x)
        checked += 1


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(123)
    raw = random_box_lp(rng)
    problem = make(*raw)
    first = solve(problem)
    second = solve(problem)
    assert first.status == second.status
    assert first.iterations == second.iterations
    if first.x is not None:
        assert np.array_equal(first.x, second.x)
        assert first.objective_value == second.objective_value


def test_bounds_respected_tightly():
    rng = np.random.default_rng(99)
    for _ in range(40):
        raw = random_box_lp(rng)
        sol = solve(make(*raw))
        if sol.status != "optimal":
            continue
        lo, hi = raw[4], raw[5]
        assert np.all(sol.x >= lo - 1e-9)
        assert np.all(sol.x <= hi + 1e-9)


def test_failed_final_check_raises_cycling(monkeypatch):
    # a right-hand side that drifts after phase 2 moves the basic x0 off
    # the row; the answer must be refused, not reported optimal
    real_phase = lp._simplex_phase

    def drifting_phase(tab, *args, **kwargs):
        result = real_phase(tab, *args, **kwargs)
        tab.b = tab.b + 1.0
        return result

    monkeypatch.setattr(lp, "_simplex_phase", drifting_phase)
    problem = make([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                   [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(CyclingError, match="feasibility check"):
        solve(problem)


def test_column_singleton_replaces_artificial():
    # from the cost-favoured start (x, eps) = (1, -0.5) row 0 needs
    # eps = 1, and eps is the one column of row 0 that no other row uses:
    # it enters the starting basis, so phase 2 starts at once and stops
    problem = make([-1.0, 1.0], [[1.0, -1.0], [1.0, 0.0]], ("<=", "<="),
                   [0.0, 2.0], [-1.0, -0.5], [1.0, np.inf])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.iterations == 0
    assert sol.x.tolist() == [1.0, 1.0]


# (kind, sigma): status and iteration bound on the jain_like:m=200 folds
# below, each fold 160 instance rows plus the center-gap row.  Feasible
# bounds are about twice the largest count over the two folds.
CENTRALIZATION_CASES = {
    ("lcc", -2.0 ** -7): ("optimal", 70),
    ("lcc", -0.5): ("optimal", 40),
    ("lcc", -8.0): ("infeasible", 0),
    ("klcc", -2.0 ** -7): ("optimal", 1300),
    ("klcc", -8.0): ("optimal", 360),
    ("klcc", -128.0): ("infeasible", 0),
}


def centralization_programs():
    """The lcc and klcc programs of two jain_like:m=200 folds, trained on
    z-scored rows as procedure 2 does, over CENTRALIZATION_CASES."""
    data = gen_shape("jain_like", 200, 0.1, 0)
    for held in stratified_kfold(data, 5, 0)[:2]:
        train = data.take(np.delete(np.arange(data.m), held))
        train = apply_normalizer(fit_normalizer(train), train)
        spec = KernelSpec("rbf", median_pairwise_distance(train.features))
        for kind, sigma in CENTRALIZATION_CASES:
            if kind == "lcc":
                yield kind, sigma, assemble_lcc_lp(train, 2.0, sigma)
            else:
                yield kind, sigma, assemble_klcc_lp(train, spec, 2.0, sigma)


def highs(problem):
    """(status, objective) from scipy's HiGHS on the same program."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    flip = np.array([-1.0 if rel == ">=" else 1.0
                     for rel in problem.relations])
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(problem.lower, problem.upper)]
    result = linprog(problem.c, A_ub=flip[:, None] * problem.A,
                     b_ub=flip * problem.b, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[result.status]
    return status, result.fun if status == "optimal" else None


def test_centralization_programs_match_highs_within_iteration_bounds():
    pytest.importorskip("scipy.optimize")
    for kind, sigma, problem in centralization_programs():
        expected, bound = CENTRALIZATION_CASES[kind, sigma]
        sol = solve(problem)
        status, objective = highs(problem)
        where = f"{kind} sigma={sigma}"
        assert sol.status == status == expected, where
        assert sol.iterations <= bound, where
        if status == "optimal":
            assert sol.objective_value == pytest.approx(
                objective, rel=1e-9, abs=1e-9), where
            assert residuals_ok(problem, sol.x), where


def test_long_improving_run_keeps_dantzig_pricing():
    # a klcc program that needs thousands of improving pivots: 4,959 with
    # Dantzig pricing throughout; a switch to Bland's rule after 3(r+d)
    # pivots whatever the progress took 55k-77k
    unit = [[1.0, 0.0], [0.0, 1.0]]
    data = gen_gaussian_pair([0.0, 0.0], unit, [1.0, 0.0], unit, 100, 0)
    data = apply_normalizer(fit_normalizer(data), data)
    problem = assemble_klcc_lp(data, KernelSpec("rbf", 1.0), 2.0, -0.01)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.iterations <= 10_000
    status, objective = highs(problem)
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(objective, rel=1e-9, abs=1e-9)


def crash_start(problem):
    """(status, x, basis, artificial signs) of the solver's crash basis."""
    tab = lp._Tableau(problem)
    return tab.status, tab.x, tab.basis, tab.value[tab.d + tab.r:]


def random_crash_lp(rng):
    """A small program mixing dense, singleton and empty columns, several
    singletons per row, and boxed, one-sided, free and fixed variables,
    on a coarse grid so that values land exactly on bounds."""
    r = int(rng.integers(0, 9))
    d = int(rng.integers(1, 12))
    A = np.zeros((r, d))
    for j in range(d):
        kind = rng.random()
        if r and kind < 0.45:
            A[int(rng.integers(r)), j] = rng.choice([-2.0, -1, 0.5, 1, 3])
        elif r and kind < 0.9:
            A[:, j] = rng.integers(-2, 3, r)
    lower = rng.integers(-3, 1, d).astype(float)
    upper = lower + rng.integers(0, 4, d)
    lower[rng.random(d) < 0.2] = -np.inf
    upper[rng.random(d) < 0.3] = np.inf
    c = rng.integers(-2, 3, d).astype(float)
    b = rng.integers(-4, 5, r) * rng.choice([1.0, 1e-8, 0.5], r)
    relations = tuple(rng.choice(["<=", ">="]) for _ in range(r))
    return c, A, relations, b, lower, upper


def test_crash_basis_matches_row_by_row_loop():
    rng = np.random.default_rng(5)
    programs = [make(*random_crash_lp(rng)) for _ in range(1200)]
    programs += [problem for _, _, problem in centralization_programs()]
    with_artificials = with_singletons = 0
    for i, problem in enumerate(programs):
        expected = crash_loop(problem.c, problem.A, problem.relations,
                              problem.b, problem.lower, problem.upper)
        got = crash_start(problem)
        for name, want, have in zip(("status", "x", "basis", "signs"),
                                    expected, got):
            assert have.shape == want.shape, (i, name)
            assert have.tobytes() == want.astype(have.dtype).tobytes(), \
                (i, name)
        d = problem.num_vars
        with_artificials += expected[3].size > 0
        with_singletons += bool(np.any(expected[2] < d))
    assert with_artificials > 300 and with_singletons > 300


def test_every_basic_column_dense(monkeypatch):
    # all four rows are tight at the optimum and every x_j lies inside its
    # box, so the final basis holds the four dense columns and no
    # singleton: the block F is the whole r x r basis matrix
    A = np.eye(4) + 0.1 + np.diag([0.0, 0.3, 0.0, -0.2])
    b = np.array([1.0, 2.0, -1.0, 0.5])
    tableaus = []
    real_phase = lp._simplex_phase

    def recording_phase(tab, *args, **kwargs):
        tableaus.append(tab)
        return real_phase(tab, *args, **kwargs)

    monkeypatch.setattr(lp, "_simplex_phase", recording_phase)
    problem = make([-1.0] * 4, A, ("<=",) * 4, b, [-100.0] * 4, [100.0] * 4)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, np.linalg.solve(A, b), rtol=0, atol=1e-12)
    tab = tableaus[-1]
    assert sorted(tab.basis.tolist()) == [0, 1, 2, 3]
    assert tab.pos_d.size == 4 and tab.pos_s.size == 0
    assert tab.f_inv.shape == (4, 4)
