"""A self-contained solver for linear programs with box-bounded variables.

    minimize    c . x
    subject to  A[i] . x  <=  b[i]   or   A[i] . x  >=  b[i]
                lower <= x <= upper          (entries may be infinite)

The solver is a two-phase revised simplex that keeps nonbasic variables
parked at one of their finite bounds, which is the natural form for the
classifier programs built on top of it (every variable there carries a box
or a one-sided bound).

The starting basis is a crash basis (Bixby, "Implementing the simplex
method: the initial basis", ORSA J. Computing 4(3), 1992).  Each boxed
variable starts at the bound its cost favours, upper for a negative cost.
Each row then takes its slack into the basis when the slack can absorb the
row's residual; otherwise the lowest-index column whose only nonzero is in
that row, when that column can absorb the residual within its bounds;
otherwise an artificial variable.  Phase 1 prices out only those
artificials, and is skipped when there are none; phase 2 optimizes the
real objective.  In the centralization programs every slack eps_i is such
a column, and the cost-favoured start minimizes the center-gap row, so a
feasible program starts in phase 2 and an infeasible one is reported
after no pivot.

Pivot selection is Dantzig's rule with a permanent switch to Bland's rule
once the objective stalls, so the solver terminates on degenerate
programs.  The answer is checked before it is returned: after the final
refactorization, row residuals and bound violations must lie within the
feasibility tolerance, or solve raises CyclingError.

Everything is deterministic: identical problems produce bit-identical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _frozen

PIVOT_TOLERANCE = 1e-9
FEASIBILITY_TOLERANCE = 1e-7
REFACTOR_EVERY = 100

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


class CyclingError(RuntimeError):
    """No verified optimum: the iteration cap ran out, or the final basis
    failed its feasibility check."""


class LpFormatError(ValueError):
    """The problem description is malformed."""


@dataclass(frozen=True)
class LpProblem:
    """Dense description of a bounded-variable linear program."""

    c: np.ndarray          # (d,)
    A: np.ndarray          # (r, d)
    relations: tuple       # r strings, "<=" or ">="
    b: np.ndarray          # (r,)
    lower: np.ndarray      # (d,), -inf allowed
    upper: np.ndarray      # (d,), +inf allowed

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        relations = tuple(self.relations)
        if c.ndim != 1:
            raise LpFormatError("c must be 1-D")
        d = c.shape[0]
        if A.ndim != 2 or A.shape[1] != d:
            raise LpFormatError("A must be 2-D with one column per variable")
        r = A.shape[0]
        if b.shape != (r,):
            raise LpFormatError("b must have one entry per row of A")
        if len(relations) != r:
            raise LpFormatError("need one relation per row")
        for rel in relations:
            if rel not in ("<=", ">="):
                raise LpFormatError(f"unknown relation {rel!r}")
        if lower.shape != (d,) or upper.shape != (d,):
            raise LpFormatError("bounds must have one entry per variable")
        if not np.all(np.isfinite(c)):
            raise LpFormatError("c must be finite")
        if A.size and not np.all(np.isfinite(A)):
            raise LpFormatError("A must be finite")
        if b.size and not np.all(np.isfinite(b)):
            raise LpFormatError("b must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise LpFormatError("bounds may be infinite but not NaN")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise LpFormatError("bounds must leave each variable a finite value")
        if np.any(lower > upper):
            raise LpFormatError("every lower bound must be <= its upper bound")
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "lower", _frozen(lower))
        object.__setattr__(self, "upper", _frozen(upper))

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str                     # "optimal", "infeasible", "unbounded"
    x: np.ndarray | None
    objective_value: float | None
    iterations: int

    def __post_init__(self) -> None:
        if self.status not in ("optimal", "infeasible", "unbounded"):
            raise LpFormatError(f"unknown status {self.status!r}")
        if self.x is not None:
            object.__setattr__(self, "x", _frozen(self.x, np.float64))


def format_problem(problem: LpProblem) -> str:
    """Plain-text tabular dump of a problem, for debugging."""
    lines = ["minimize"]
    lines.append("  " + "  ".join(f"{v:+.6g}" for v in problem.c))
    lines.append("subject to")
    for i in range(problem.num_rows):
        row = "  ".join(f"{v:+.6g}" for v in problem.A[i])
        lines.append(f"  {row}  {problem.relations[i]}  {problem.b[i]:+.6g}")
    lines.append("bounds")
    for j in range(problem.num_vars):
        lines.append(f"  {problem.lower[j]:+.6g} <= x{j} <= {problem.upper[j]:+.6g}")
    return "\n".join(lines)


class _Tableau:
    """Mutable state of the revised simplex on the equality-form problem."""

    def __init__(self, cols: np.ndarray, b: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray):
        self.cols = cols          # (r, total) columns of the equality system
        self.b = b
        self.lower = lower
        self.upper = upper
        self.r = cols.shape[0]
        self.total = cols.shape[1]
        self.status = np.empty(self.total, dtype=np.int8)
        self.x = np.zeros(self.total)
        self.basis = np.empty(self.r, dtype=np.int64)
        self.binv = np.eye(self.r)
        self.pivots_since_factor = 0

    def set_nonbasic_at_bound(self, j: int, cost: float) -> None:
        """Park j at the finite bound its cost favours: the upper one
        when the cost is negative or the lower one is infinite."""
        if np.isfinite(self.upper[j]) and (cost < 0 or
                                           not np.isfinite(self.lower[j])):
            self.status[j] = _AT_UPPER
            self.x[j] = self.upper[j]
        elif np.isfinite(self.lower[j]):
            self.status[j] = _AT_LOWER
            self.x[j] = self.lower[j]
        else:
            self.status[j] = _FREE
            self.x[j] = 0.0

    def refactor(self) -> None:
        basis_matrix = self.cols[:, self.basis]
        self.binv = np.linalg.inv(basis_matrix)
        self.recompute_basic_values()
        self.pivots_since_factor = 0

    def recompute_basic_values(self) -> None:
        nonbasic = self.status != _BASIC
        rhs = self.b - self.cols[:, nonbasic] @ self.x[nonbasic]
        self.x[self.basis] = self.binv @ rhs


def _simplex_phase(tab: _Tableau, c: np.ndarray, start_iter: int,
                   cap: int, stall_limit: int,
                   allow_unbounded: bool) -> tuple[str, int]:
    """Run simplex pivots until optimality for the given objective.

    Returns ("optimal" | "unbounded", iterations_used_so_far).  Raises
    CyclingError if the cap is exhausted.
    """
    iteration = start_iter
    # stalls count from the objective at entry; an infinite start would
    # make the tolerance below NaN and every pivot look like a stall
    best_objective = float(c @ tab.x)
    stalled = 0
    use_bland = False
    movable = tab.upper - tab.lower > 0  # fixed variables never enter

    while True:
        if iteration >= cap:
            raise CyclingError(
                f"no optimum after {cap} iterations: cycling suspected")

        c_b = c[tab.basis]
        y = tab.binv.T @ c_b
        reduced = c - tab.cols.T @ y

        at_lower = (tab.status == _AT_LOWER) | (tab.status == _FREE)
        at_upper = (tab.status == _AT_UPPER) | (tab.status == _FREE)
        can_increase = at_lower & movable & (reduced < -PIVOT_TOLERANCE)
        can_decrease = at_upper & movable & (reduced > PIVOT_TOLERANCE)
        eligible = np.nonzero(can_increase | can_decrease)[0]
        if eligible.size == 0:
            return "optimal", iteration

        if use_bland:
            entering = int(eligible[0])
        else:
            scores = np.abs(reduced[eligible])
            entering = int(eligible[int(np.argmax(scores))])
        direction = 1.0 if can_increase[entering] else -1.0

        alpha = tab.binv @ tab.cols[:, entering]
        # basic variable i moves at rate delta[i] per unit step of entering
        delta = -direction * alpha
        basic_values = tab.x[tab.basis]
        basic_lower = tab.lower[tab.basis]
        basic_upper = tab.upper[tab.basis]

        with np.errstate(divide="ignore", invalid="ignore"):
            up_room = np.where(delta > PIVOT_TOLERANCE,
                               (basic_upper - basic_values) / delta, np.inf)
            down_room = np.where(delta < -PIVOT_TOLERANCE,
                                 (basic_lower - basic_values) / delta, np.inf)
        ratios = np.minimum(np.nan_to_num(up_room, nan=np.inf, posinf=np.inf),
                            np.nan_to_num(down_room, nan=np.inf, posinf=np.inf))
        ratios = np.maximum(ratios, 0.0)  # numerical drift guard

        span = tab.upper[entering] - tab.lower[entering]
        t_own = span if np.isfinite(span) else np.inf
        t_block = ratios.min() if ratios.size else np.inf
        step = min(t_own, t_block)

        if not np.isfinite(step):
            if allow_unbounded:
                return "unbounded", iteration
            raise CyclingError("phase-1 objective unbounded: numerical trouble")

        objective_now = float(c @ tab.x)
        if objective_now < best_objective - 1e-9 * (1.0 + abs(best_objective)):
            best_objective = objective_now
            stalled = 0
        else:
            stalled += 1
            if stalled > stall_limit:
                use_bland = True

        iteration += 1
        if step == t_own and t_own < t_block:
            # bound flip: entering runs to its other bound, basis unchanged
            tab.x[tab.basis] = basic_values + delta * step
            tab.x[entering] += direction * step
            tab.status[entering] = _AT_UPPER if direction > 0 else _AT_LOWER
            continue

        blocking = np.nonzero(ratios <= t_block + PIVOT_TOLERANCE)[0]
        if use_bland:
            # leave the row whose basic variable has the smallest index
            leave_pos = int(blocking[int(np.argmin(tab.basis[blocking]))])
        else:
            pivots = np.abs(alpha[blocking])
            best = np.nonzero(pivots >= pivots.max() - 1e-12)[0]
            choice = best[int(np.argmin(tab.basis[blocking][best]))]
            leave_pos = int(blocking[int(choice)])
        leaving = int(tab.basis[leave_pos])

        tab.x[tab.basis] = basic_values + delta * step
        tab.x[entering] += direction * step
        hit_upper = delta[leave_pos] > 0
        tab.status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
        tab.x[leaving] = tab.upper[leaving] if hit_upper else tab.lower[leaving]
        tab.status[entering] = _BASIC
        tab.basis[leave_pos] = entering

        # every blocking row has |alpha| above PIVOT_TOLERANCE by the ratio
        # test, so the eta update is always numerically admissible
        pivot_value = alpha[leave_pos]
        row = tab.binv[leave_pos] / pivot_value
        tab.binv -= np.outer(alpha, row)
        tab.binv[leave_pos] = row
        tab.pivots_since_factor += 1
        if tab.pivots_since_factor >= REFACTOR_EVERY:
            tab.refactor()


def solve(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Minimize the problem, reporting optimal/infeasible/unbounded by status.

    max_iterations defaults to 10 * (rows + vars) * 100.  Exhausting it,
    or a final answer outside the rows or bounds by more than the
    feasibility tolerance, raises CyclingError rather than returning a
    wrong answer.
    """
    r = problem.num_rows
    d = problem.num_vars
    if max_iterations is None:
        max_iterations = 10 * (r + d) * 100
    stall_limit = 3 * (r + d)
    tolerance = FEASIBILITY_TOLERANCE * (
        1.0 + np.abs(problem.b).max(initial=0.0))

    # equality form: one slack per row; "<=" slack in [0, inf),
    # ">=" slack in (-inf, 0]
    slack_lower = np.array([0.0 if rel == "<=" else -np.inf
                            for rel in problem.relations])
    slack_upper = np.array([np.inf if rel == "<=" else 0.0
                            for rel in problem.relations])

    cols = np.hstack([problem.A, np.eye(r)]) if r else np.zeros((0, d))
    lower = np.concatenate([problem.lower, slack_lower])
    upper = np.concatenate([problem.upper, slack_upper])

    tab = _Tableau(cols, problem.b, lower, upper)
    for j in range(d):
        tab.set_nonbasic_at_bound(j, problem.c[j])

    # crash basis: each row's slack if it can absorb the residual, else the
    # lowest-index structural column that appears in that row alone and can
    # absorb it within its bounds, else an artificial variable
    residual = problem.b - problem.A @ tab.x[:d] if r else np.zeros(0)
    nonzero = problem.A != 0.0
    singleton = nonzero.sum(axis=0) == 1
    art_rows = []
    art_signs = []
    for i in range(r):
        j = d + i
        if slack_lower[i] - FEASIBILITY_TOLERANCE <= residual[i] <= \
                slack_upper[i] + FEASIBILITY_TOLERANCE:
            tab.status[j] = _BASIC
            tab.x[j] = residual[i]
            tab.basis[i] = j
            continue
        clamped = min(max(residual[i], slack_lower[i]), slack_upper[i])
        tab.status[j] = _AT_LOWER if clamped == slack_lower[i] else _AT_UPPER
        tab.x[j] = clamped
        for k in np.nonzero(nonzero[i] & singleton)[0]:
            value = tab.x[k] + (residual[i] - clamped) / problem.A[i, k]
            if lower[k] <= value <= upper[k]:
                tab.status[k] = _BASIC
                tab.x[k] = value
                tab.basis[i] = k
                break
        else:
            art_rows.append(i)
            art_signs.append(1.0 if residual[i] - clamped > 0 else -1.0)

    iterations = 0
    if art_rows:
        n_art = len(art_rows)
        art_cols = np.zeros((r, n_art))
        for k, (i, s) in enumerate(zip(art_rows, art_signs)):
            art_cols[i, k] = s
        tab.cols = np.hstack([tab.cols, art_cols])
        tab.lower = np.concatenate([tab.lower, np.zeros(n_art)])
        tab.upper = np.concatenate([tab.upper, np.full(n_art, np.inf)])
        tab.x = np.concatenate([tab.x, np.zeros(n_art)])
        tab.status = np.concatenate(
            [tab.status, np.full(n_art, _BASIC, dtype=np.int8)])
        tab.total = tab.cols.shape[1]
        for k, i in enumerate(art_rows):
            tab.basis[i] = d + r + k
            tab.x[d + r + k] = abs(
                residual[i] - tab.x[d + i])
        tab.refactor()

        phase1_c = np.zeros(tab.total)
        phase1_c[d + r:] = 1.0
        _, iterations = _simplex_phase(
            tab, phase1_c, 0, max_iterations, stall_limit,
            allow_unbounded=False)
        infeasibility = float(tab.x[d + r:].sum())
        if infeasibility > tolerance:
            return LpSolution("infeasible", None, None, iterations)
        # pin artificials to zero for phase 2; basic ones may linger at 0
        tab.lower[d + r:] = 0.0
        tab.upper[d + r:] = 0.0
        art_mask = np.zeros(tab.total, dtype=bool)
        art_mask[d + r:] = True
        tab.x[art_mask & (tab.status != _BASIC)] = 0.0
        np.clip(tab.x[d + r:], 0.0, None, out=tab.x[d + r:])
    else:
        tab.refactor()

    phase2_c = np.zeros(tab.total)
    phase2_c[:d] = problem.c
    status, iterations = _simplex_phase(
        tab, phase2_c, iterations, max_iterations, stall_limit,
        allow_unbounded=True)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations)

    tab.refactor()  # one clean solve before extracting the answer
    x = tab.x[:d].copy()
    near_lower = np.abs(x - problem.lower) <= 1e-9
    near_upper = np.abs(x - problem.upper) <= 1e-9
    x[near_lower] = problem.lower[near_lower]
    x[near_upper] = problem.upper[near_upper]
    slack = problem.b - problem.A @ x
    row_excess = np.maximum(slack_lower - slack, slack - slack_upper)
    bound_excess = np.maximum(problem.lower - x, x - problem.upper)
    worst_row = float(row_excess.max(initial=0.0))
    worst_bound = float(bound_excess.max(initial=0.0))
    if max(worst_row, worst_bound) > tolerance:
        raise CyclingError(
            f"the final basis fails its feasibility check: row excess "
            f"{worst_row:.3g}, bound excess {worst_bound:.3g}, tolerance "
            f"{tolerance:.3g}")
    objective = float(problem.c @ x)
    return LpSolution("optimal", x, objective, iterations)
