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
from tests.helpers import (count_calls, crash_loop, lp_brute_force,
                           random_box_lp)


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


def test_blands_rule_from_the_first_pivot_matches_brute_force(monkeypatch):
    # with no stall allowed, the first pivot already counts as one: it
    # leaves by Bland's rule, and every later pivot enters by it too
    real_phase = lp._simplex_phase
    monkeypatch.setattr(lp, "_simplex_phase",
                        lambda tab, c, cap, stall_limit: real_phase(
                            tab, c, cap, 0))
    pivots = count_calls(monkeypatch, lp._Tableau, "pivot")
    rng = np.random.default_rng(17)
    for _ in range(300):
        raw = random_box_lp(rng)
        status, best = lp_brute_force(*raw)
        sol = solve(make(*raw))
        assert sol.status == status, format_problem(make(*raw))
        if status == "optimal":
            assert sol.objective_value == pytest.approx(best, abs=1e-6)
    assert len(pivots) > 300


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
    dense = tab.recip == 0.0
    assert dense.all() and tab.inv_d[:, dense].shape == (4, 4)


def dense_box_lp(n, seed):
    """A random n x n program, every row "<=" and every column boxed, with
    a strictly feasible midpoint: most of its basis ends up dense."""
    rng = np.random.default_rng(seed)
    c, A = rng.normal(0.0, 2.0, n), rng.normal(0.0, 1.5, (n, n))
    lower = rng.uniform(-4.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 6.0, n)
    b = A @ ((lower + upper) / 2) + rng.uniform(0.0, 1.0, n)
    return make(c, A, ("<=",) * n, b, lower, upper)


def test_basis_changes_update_the_factors(monkeypatch):
    # each pivot updates B^-1's columns and the split instead of factoring
    # afresh; after every update ftran and btran must solve with the
    # explicit basis.  The kinds are (singleton leaves, singleton enters)
    rng = np.random.default_rng(31)
    kinds, refactored = {}, []
    real_pivot, real_factor = lp._Tableau.pivot, lp._Tableau.factor

    def factor(tab):
        refactored.append(hasattr(tab, "inv_d"))  # not the first factor
        real_factor(tab)

    def pivot(tab, pos, entering, *args):
        kind = (bool(tab.row[tab.basis[pos]] < tab.r),
                bool(tab.row[entering] < tab.r))
        kinds[kind] = kinds.get(kind, 0) + 1
        real_pivot(tab, pos, entering, *args)
        basis = np.column_stack([tab.column(j) for j in tab.basis])
        v = rng.normal(size=tab.r)
        for got, want in ((tab.ftran(v), np.linalg.solve(basis, v)),
                          (tab.btran(v)[:-1], np.linalg.solve(basis.T, v))):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    monkeypatch.setattr(lp._Tableau, "factor", factor)
    monkeypatch.setattr(lp._Tableau, "pivot", pivot)
    for _ in range(300):
        raw = random_crash_lp(rng)
        first = solve(make(*raw))
        if first.status == "optimal":
            solve(make(*moved(rng, raw)), first)
    for _, _, problem in centralization_programs():
        solve(problem)
    assert len(kinds) == 4 and min(kinds.values()) >= 50, kinds
    assert sum(refactored) <= 0.01 * sum(kinds.values())


def test_a_small_pivot_element_refactors(monkeypatch):
    # maximize x with 1e-8 x <= 1e-9 and x <= 10: x enters on the first
    # row, whose pivot element 1e-8 is below FEASIBILITY_TOLERANCE times
    # the column's largest entry 1, so the basis is factored afresh
    factored = count_calls(monkeypatch, lp._Tableau, "factor")
    problem = make([-1.0], [[1e-8], [1.0]], ("<=", "<="), [1e-9, 10.0],
                   [0.0], [np.inf])
    sol = solve(problem)
    assert (sol.status, sol.iterations, len(factored)) == ("optimal", 1, 2)
    assert sol.x[0] == pytest.approx(0.1, rel=1e-12)
    assert sol.dual_infeasibility <= 1e-9


def test_long_dense_run_certifies_and_matches_highs():
    problem = dense_box_lp(100, 0)
    sol = solve(problem)
    assert sol.status == "optimal" and sol.iterations >= 300
    assert sol.dual_infeasibility <= 1e-9
    assert residuals_ok(problem, sol.x)
    status, objective = highs(problem)
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(objective, rel=1e-9, abs=0.0)


def moved(rng, raw):
    """raw with b and the bounds moved, c, A and the relations kept."""
    c, A, relations, b, lower, upper = raw
    lower = lower + rng.uniform(-0.5, 0.5, lower.size)
    upper = np.maximum(lower, upper + rng.uniform(-0.5, 0.5, upper.size))
    return c, A, relations, b + rng.normal(0.0, 0.5, b.size), lower, upper


def record_dual_phases(monkeypatch):
    """A list that gains (finished, pivots) for each warm attempt that
    passes the start check and runs the dual simplex."""
    runs, real = [], lp._dual_phase

    def recorded(*args):
        runs.append(real(*args))
        return runs[-1]
    monkeypatch.setattr(lp, "_dual_phase", recorded)
    return runs


def scipy_imports():
    """Whether scipy's HiGHS is here to serve as an oracle."""
    try:
        from scipy.optimize import linprog  # noqa: F401
    except ImportError:
        return False
    return True


def test_warm_start_after_b_and_bounds_move(monkeypatch):
    has_highs = scipy_imports()
    runs = record_dual_phases(monkeypatch)
    rng = np.random.default_rng(11)
    warm_optimal = infeasible = finished_warm = 0
    while warm_optimal < 100:
        raw = random_box_lp(rng, max_vars=8, max_rows=10)
        first = solve(make(*raw))
        if first.status != "optimal":
            continue
        problem = make(*moved(rng, raw))
        runs.clear()
        warm, cold = solve(problem, first), solve(problem)
        assert warm.status == cold.status, format_problem(problem)
        # a finished attempt is the answer; one that fell back adds its
        # pivots to the cold path's
        finished, spent = runs[0] if runs else (False, 0)
        finished_warm += finished
        assert warm.iterations == spent + (0 if finished
                                           else cold.iterations)
        if has_highs:
            assert highs(problem)[0] == cold.status
        if cold.status != "optimal":
            infeasible += 1
            continue
        warm_optimal += 1
        assert warm.objective_value == pytest.approx(
            cold.objective_value, rel=1e-9, abs=1e-9)
        assert residuals_ok(problem, warm.x)
        assert warm.dual_infeasibility <= 1e-9
        if has_highs:
            assert warm.objective_value == pytest.approx(
                highs(problem)[1], rel=1e-9, abs=1e-9)
    # most warm attempts finish on the dual simplex; an infeasible moved
    # program never does, as no column can enter
    assert finished_warm >= 80 and infeasible > 0


def narrow_box_lp(rng):
    """A random program of up to 14 columns on up to 5 rows, each column
    boxed in [l, l + 0.1] to [l, l + 1], so that a dual ratio test meets
    many boxed breakpoints and passes some."""
    d, r = int(rng.integers(2, 15)), int(rng.integers(1, 6))
    lower = rng.uniform(-1.0, 0.0, d)
    return (rng.normal(0.0, 2.0, d), rng.normal(0.0, 1.5, (r, d)),
            tuple(rng.choice(["<=", ">="], r)), rng.normal(0.0, 2.0, r),
            lower, lower + rng.uniform(0.1, 1.0, d))


def test_warm_sweep_of_narrow_boxed_programs(monkeypatch):
    has_highs = scipy_imports()
    runs = record_dual_phases(monkeypatch)
    # a finished attempt reads the columns it flips in one weighted call
    # per flipping pivot
    columns = count_calls(monkeypatch, lp._Tableau, "column")
    rng = np.random.default_rng(23)
    programs = finished_warm = flips = 0
    while programs < 200:
        raw = narrow_box_lp(rng)
        first = solve(make(*raw))
        if first.status != "optimal":
            continue
        programs += 1
        problem = make(*moved(rng, raw))
        runs.clear()
        columns.clear()
        warm = solve(problem, first)
        if runs and runs[0][0]:
            finished_warm += 1
            flips += sum(args[1].size for args in columns if len(args) == 3)
        cold = solve(problem)
        assert warm.status == cold.status, format_problem(problem)
        if has_highs:
            assert highs(problem)[0] == cold.status
        if cold.status != "optimal":
            continue
        assert warm.objective_value == pytest.approx(
            cold.objective_value, rel=1e-9, abs=1e-9)
        assert residuals_ok(problem, warm.x)
        assert warm.dual_infeasibility <= 1e-9
        if has_highs:
            assert warm.objective_value == pytest.approx(
                highs(problem)[1], rel=1e-9, abs=1e-9)
    assert finished_warm >= 150 and flips >= 40


def test_bound_flipping_passes_boxed_breakpoints(monkeypatch):
    # minimize x1 + 2 x2 + 3 x3 + 4 x4 on [0, 1]^4 with x1 + ... + x4 >= b.
    # From the optimum at b = 0 the row's slack leaves with excess b; the
    # breakpoints are 1, 2, 3 and 4, and each passed column lowers the
    # slope by 1
    def program(b):
        return make([1.0, 2.0, 3.0, 4.0], [[1.0] * 4], (">=",), [b],
                    [0.0] * 4, [1.0] * 4)

    low, up, basic = lp._AT_LOWER, lp._AT_UPPER, lp._BASIC
    first = solve(program(0.0))
    assert first.statuses.tolist() == [low] * 4 + [basic]
    runs = record_dual_phases(monkeypatch)
    warm, cold = solve(program(2.5), first), solve(program(2.5))
    # x1 and x2 flip to their upper bounds and x3 enters, in one pivot
    # (the plain ratio test takes three); the slack leaves at its bound 0
    assert runs == [(True, 1)]
    assert warm.statuses.tolist() == [up, up, basic, low, up]
    assert warm.x.tolist() == [1.0, 1.0, 0.5, 0.0]
    assert warm.status == cold.status == "optimal"
    assert warm.objective_value == pytest.approx(cold.objective_value,
                                                 rel=1e-9, abs=0.0)
    assert warm.dual_infeasibility <= 1e-9
    # past b = 4 every breakpoint is passed with the slope still positive:
    # the attempt stops unfinished, and the cold path reports infeasible
    runs.clear()
    warm, cold = solve(program(4.5), first), solve(program(4.5))
    assert runs == [(False, 0)]
    assert warm.status == cold.status == "infeasible"


def centralization_pair(lam_first, lam_then, sigma_first, sigma_then):
    """Two klcc programs on one jain_like:m=150 fold."""
    data = gen_shape("jain_like", 150, 0.1, 0)
    held = stratified_kfold(data, 5, 0)[0]
    train = data.take(np.delete(np.arange(data.m), held))
    train = apply_normalizer(fit_normalizer(train), train)
    spec = KernelSpec("rbf", median_pairwise_distance(train.features))
    return (assemble_klcc_lp(train, spec, lam_first, sigma_first),
            assemble_klcc_lp(train, spec, lam_then, sigma_then))


@pytest.mark.parametrize("lam, sigma", [(0.5, -0.5), (2.0, -128.0)],
                         ids=["lam changed", "infeasible"])
def test_start_that_cannot_finish_gives_the_cold_answer(lam, sigma,
                                                         monkeypatch):
    # a new lam changes c, so the start's basis is not dual feasible; at
    # sigma -128 the program is infeasible and no column can enter
    first, then = centralization_pair(2.0, lam, -0.5, sigma)
    start = solve(first)
    assert start.status == "optimal"
    if lam != 2.0:
        tab = lp._Tableau(then, start)
        tab.factor()
        c = np.concatenate([then.c, np.zeros(then.num_rows)])
        assert lp._dual_infeasibility(tab, c) > 1e-9
    runs = record_dual_phases(monkeypatch)
    warm, cold = solve(then, start), solve(then)
    # the lam-changed start is refused before any pivot; the infeasible
    # program's attempt pivots until no column can enter, and its answer
    # counts those pivots on top of the cold path's
    spent = 0
    if lam != 2.0:
        assert runs == []
    else:
        [(finished, spent)] = runs
        assert not finished and spent > 0
    assert (warm.status, warm.iterations) == (cold.status,
                                              cold.iterations + spent)
    assert (warm.x is None and cold.x is None
            or warm.x.tobytes() == cold.x.tobytes())


def test_start_from_another_shape_gives_the_cold_answer(monkeypatch):
    start = solve(make([-1.0], [[1.0]], ("<=",), [1.0], [0.0], [2.0]))
    problem = make([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                   [0.0, 0.0], [1.0, 1.0])
    runs = record_dual_phases(monkeypatch)
    warm, cold = solve(problem, start), solve(problem)
    assert runs == []
    assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
    assert warm.x.tobytes() == cold.x.tobytes()


def test_warm_start_reads_its_basis_from_the_statuses(monkeypatch):
    # minimize -x - 2y subject to x + y <= 4, x <= 3 on the box [0, 10]:
    # the optimum is (0, 4) at -8, with y and the second slack basic
    problem = make([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]], ("<=", "<="),
                   [4.0, 3.0], [0.0, 0.0], [10.0, 10.0])
    cold = solve(problem)
    assert (cold.objective_value, cold.iterations) == (-8.0, 3)

    def start(codes):
        return LpSolution("optimal", None, None, 0, np.array(codes))

    runs = record_dual_phases(monkeypatch)
    # two bases that are not dual feasible, then r - 1 and r + 1 basic
    # codes: each start is refused before any pivot
    for codes in ((0, 0, 3, 3), (3, 0, 0, 3), (3, 0, 0, 0), (3, 3, 3, 0)):
        warm = solve(problem, start(codes))
        assert runs == [], codes
        assert warm.x.tobytes() == cold.x.tobytes(), codes
        assert (warm.status, warm.objective_value, warm.iterations) == (
            "optimal", -8.0, cold.iterations), codes
    warm = solve(problem, start((0, 3, 0, 3)))
    assert runs == [(True, 0)]
    assert (warm.objective_value, warm.iterations) == (-8.0, 0)
    assert warm.statuses.tolist() == cold.statuses.tolist() == [0, 3, 0, 3]
    for code in (7, -1):
        with pytest.raises(LpFormatError, match="codes 0 to 3"):
            start((0, code, 0, 3))


def test_warm_start_places_a_free_variable_at_zero(monkeypatch):
    # minimize -x over x in [0, 2] and y free, with x <= 1: y's column is
    # empty, so y stays nonbasic and free; the warm start places it at 0,
    # as the crash does, and finishes in the dual phase with no pivot
    problem = make([-1.0, 0.0], [[1.0, 0.0]], ("<=",), [1.0],
                   [0.0, -np.inf], [2.0, np.inf])
    cold = solve(problem)
    assert cold.x.tolist() == [1.0, 0.0] and lp._FREE in cold.statuses
    runs = record_dual_phases(monkeypatch)
    warm = solve(problem, cold)
    assert runs == [(True, 0)]
    assert warm.x.tolist() == [1.0, 0.0]
    assert (warm.status, warm.objective_value) == ("optimal", -1.0)


def test_start_with_a_singular_basis_gives_the_cold_answer(monkeypatch):
    # x0 and x1 share their column, so a start that marks both basic makes
    # F singular: factor raises, and the warm attempt falls back
    problem = make([-1.0, -1.0, -1.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
                   ("<=", "<="), [2.0, 3.0], [0.0] * 3, [10.0] * 3)
    cold = solve(problem)
    assert cold.x.tolist() == [0.0, 2.0, 1.0]
    assert (cold.objective_value, cold.iterations) == (-3.0, 3)
    raised, real_factor = [], lp._Tableau.factor

    def factor(tab):
        try:
            real_factor(tab)
        except np.linalg.LinAlgError as exc:
            raised.append(exc)
            raise
    monkeypatch.setattr(lp._Tableau, "factor", factor)
    runs = record_dual_phases(monkeypatch)
    warm = solve(problem, LpSolution("optimal", None, None, 0,
                                     np.array([3, 3, 0, 0, 0])))
    assert len(raised) == 1 and runs == []
    assert warm.x.tobytes() == cold.x.tobytes()
    assert warm.statuses.tobytes() == cold.statuses.tobytes()
    assert (warm.status, warm.objective_value, warm.iterations) == (
        "optimal", -3.0, 3)


def test_dual_infeasibility_reads_the_crash_basis_as_not_optimal():
    problem = centralization_pair(2.0, 2.0, -2.0 ** -7, -2.0 ** -7)[0]
    tab = lp._Tableau(problem)
    tab.factor()
    c = np.zeros(tab.x.size)
    c[:problem.num_vars] = problem.c
    assert lp._dual_infeasibility(tab, c) > 1.0
    assert solve(problem).dual_infeasibility <= 1e-9


def test_descent_matches_the_status_and_bound_rules():
    # all four status codes against fixed, boxed, one-sided and free
    # bounds, with values on both sides of the pivot tolerance
    rng = np.random.default_rng(5)
    tol = lp.PIVOT_TOLERANCE
    bounds = np.array([[0.0, 0.0], [-1.0, 2.0], [0.0, np.inf],
                       [-np.inf, 0.0], [-np.inf, np.inf]])
    for _ in range(200):
        status = rng.integers(0, 4, 60).astype(np.int8)
        lower, upper = bounds[rng.integers(0, len(bounds), 60)].T
        v = rng.normal(size=60) * 10.0 ** rng.integers(-12, 4, 60)
        edge = rng.random(60) < 0.2
        v[edge] = rng.choice([0.0, -0.0, tol, -tol, 2 * tol, -2 * tol],
                             edge.sum())
        movable = upper - lower > 0
        rate = lp._descent(status, v, movable)
        eligible = ((lp._CAN_RISE[status] & movable & (v < -tol))
                    | (lp._CAN_FALL[status] & movable & (v > tol)))
        assert np.array_equal(rate > tol, eligible)
        assert rate[eligible].tobytes() == np.abs(v[eligible]).tobytes()
        assert np.all((0.0 <= rate[~eligible]) & (rate[~eligible] <= tol))
        assert np.all(rate[(status == lp._BASIC) | ~movable] == 0.0)
