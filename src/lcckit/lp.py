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

The basis is held as its singleton columns plus one dense block, the way
LU factorizations of LP bases treat singletons first (Suhl & Suhl,
"Computing sparse LU factorizations for large-scale linear programming
bases", ORSA J. Computing 2(4), 1990).  A basic column with one nonzero
(a slack, an artificial, or a structural column such as eps_i) covers its
row; the k rows left over, restricted to the k basic columns with more
than one nonzero, form a k x k block F.  After each basis change the
split is rebuilt and only F is inverted, so B^-1 a and B^-T c_B cost
O(r k + k^2) instead of O(r^2), and no r x r matrix is ever formed.  The
rebuild costs O(r k + k^3), cheap while k is small, as in the
centralization programs: at most n for lcc, whose only dense columns are
the n beta columns, and 21 for klcc on the spiral shape at m=400.  On a
program whose basis is mostly dense columns it costs more than the rank-1
update of a full inverse would.

Pivot selection is Dantzig's rule with a permanent switch to Bland's rule
once the objective stalls, so the solver terminates on degenerate
programs; past ITERATIONS_PER_SIZE * (rows + vars) pivots it raises
CyclingError.  Basic values are updated along each step and recomputed
from the factored basis before the answer is read.  The answer is checked
before it is returned: row residuals and bound violations must lie within
the feasibility tolerance, or solve raises CyclingError.

Everything is deterministic: identical problems produce bit-identical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _frozen

PIVOT_TOLERANCE = 1e-9
FEASIBILITY_TOLERANCE = 1e-7
ITERATIONS_PER_SIZE = 1000   # the iteration cap per row and per variable

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3
# by status code: may a nonbasic variable move up / down from its value
_CAN_RISE = np.array([True, False, True, False])
_CAN_FALL = np.array([False, True, True, False])


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
    """Mutable state of the revised simplex on the equality-form problem
    [A | I | artificials] x = b.

    A column with one nonzero (a slack, an artificial, or a structural
    column such as eps_i of the centralization programs) is held as that
    nonzero's row and value; every other column is a row of `dense`, a
    contiguous copy of those columns of A.  Dense columns carry the row
    index r and the value 0, so `y[row]` reads the zero that `btran`
    appends to y.  The basis is held the same way: its singleton columns
    cover one row each, and the k rows they leave uncovered, restricted to
    the k dense basic columns, form the block F, the one part inverted.
    """

    def __init__(self, problem: LpProblem):
        A = problem.A
        r, d = A.shape
        geq = np.array([rel == ">=" for rel in problem.relations], dtype=bool)
        nonzero = A != 0.0
        single = np.count_nonzero(nonzero, axis=0) == 1
        single_cols = np.flatnonzero(single)
        self.dense_cols = np.flatnonzero(~single)
        self.dense = np.ascontiguousarray(A[:, self.dense_cols].T)
        self.row = np.full(d + r, r, dtype=np.int64)
        self.row[single_cols] = np.nonzero(nonzero[:, single_cols].T)[1]
        self.row[d:] = np.arange(r)
        self.value = np.zeros(d + r)
        self.value[single_cols] = A[self.row[single_cols], single_cols]
        self.value[d:] = 1.0
        self.slot = np.zeros(d, dtype=np.int64)  # dense column -> row of dense
        self.slot[self.dense_cols] = np.arange(self.dense_cols.size)
        self.b = problem.b
        # slack bounds: "<=" rows in [0, inf), ">=" rows in (-inf, 0]
        self.lower = np.concatenate([problem.lower,
                                     np.where(geq, -np.inf, 0.0)])
        self.upper = np.concatenate([problem.upper,
                                     np.where(geq, 0.0, np.inf)])
        self.r = r
        self.d = d
        self._crash(problem)

    def _crash(self, problem: LpProblem) -> None:
        """Set the starting point and basis.

        Each boxed variable sits at the bound its cost favours: the upper
        one when the cost is negative or the lower one is infinite.  Row
        i's slack is basic if it can absorb the row's residual; otherwise
        the lowest-index structural column whose only nonzero is in row i
        takes the rest, if that keeps it within its bounds; otherwise a new
        artificial column, +-e_i, does.
        """
        r, d = self.r, self.d
        c, lower, upper = problem.c, problem.lower, problem.upper
        at_upper = np.isfinite(upper) & ((c < 0) | ~np.isfinite(lower))
        at_lower = ~at_upper & np.isfinite(lower)
        self.status = np.empty(d + r, dtype=np.int8)
        self.status[:d] = np.where(at_upper, _AT_UPPER,
                                   np.where(at_lower, _AT_LOWER, _FREE))
        self.x = np.where(at_upper, upper, np.where(at_lower, lower, 0.0))
        residual = problem.b - problem.A @ self.x

        slack_lower, slack_upper = self.lower[d:], self.upper[d:]
        fits = ((slack_lower - FEASIBILITY_TOLERANCE <= residual)
                & (residual <= slack_upper + FEASIBILITY_TOLERANCE))
        clamped = np.where(fits, residual,
                           np.clip(residual, slack_lower, slack_upper))
        rest = residual - clamped
        self.x = np.concatenate([self.x, clamped])
        self.status[d:] = np.where(
            fits, _BASIC,
            np.where(clamped == slack_lower, _AT_LOWER, _AT_UPPER))
        self.basis = np.arange(d, d + r)

        candidates = np.flatnonzero(self.row[:d] < r)
        rows = self.row[candidates]
        values = self.x[candidates] + rest[rows] / self.value[candidates]
        usable = (~fits[rows] & (lower[candidates] <= values)
                  & (values <= upper[candidates]))
        candidates, rows, values = (candidates[usable], rows[usable],
                                    values[usable])
        taken, first = np.unique(rows, return_index=True)
        chosen = candidates[first]
        self.basis[taken] = chosen
        self.status[chosen] = _BASIC
        self.x[chosen] = values[first]

        covered = fits.copy()
        covered[taken] = True
        art_rows = np.flatnonzero(~covered)
        n_art = art_rows.size
        self.basis[art_rows] = d + r + np.arange(n_art)
        self.row = np.concatenate([self.row, art_rows])
        self.value = np.concatenate(
            [self.value, np.where(rest[art_rows] > 0, 1.0, -1.0)])
        self.lower = np.concatenate([self.lower, np.zeros(n_art)])
        self.upper = np.concatenate([self.upper, np.full(n_art, np.inf)])
        self.x = np.concatenate([self.x, np.abs(rest[art_rows])])
        self.status = np.concatenate(
            [self.status, np.full(n_art, _BASIC, dtype=np.int8)])
        self.total = d + r + n_art

    def factor(self) -> None:
        """Split the basis into its singleton columns and the block F,
        and invert F."""
        rows = self.row[self.basis]
        single = rows < self.r
        self.pos_s = single.nonzero()[0]
        self.pos_d = (~single).nonzero()[0]
        self.rows_s = rows[self.pos_s]
        self.vals_s = self.value[self.basis[self.pos_s]]
        uncovered = np.ones(self.r, dtype=bool)
        uncovered[self.rows_s] = False
        self.rows_d = uncovered.nonzero()[0]
        block = self.dense[self.slot[self.basis[self.pos_d]]]
        self.f_inv = np.linalg.inv(block[:, self.rows_d].T)
        self.coupling = block[:, self.rows_s]

    def column(self, j: int) -> np.ndarray:
        if self.row[j] == self.r:
            return self.dense[self.slot[j]]
        a = np.zeros(self.r)
        a[self.row[j]] = self.value[j]
        return a

    def ftran(self, a: np.ndarray) -> np.ndarray:
        """B^-1 a, in basis-position order."""
        alpha = np.empty(self.r)
        dense_part = self.f_inv @ a[self.rows_d]
        alpha[self.pos_d] = dense_part
        alpha[self.pos_s] = ((a[self.rows_s] - dense_part @ self.coupling)
                             / self.vals_s)
        return alpha

    def btran(self, c_b: np.ndarray) -> np.ndarray:
        """y with B^T y = c_b, plus a trailing zero for the dense columns'
        row index."""
        y = np.zeros(self.r + 1)
        y_s = c_b[self.pos_s] / self.vals_s
        y[self.rows_s] = y_s
        y[self.rows_d] = (c_b[self.pos_d] - self.coupling @ y_s) @ self.f_inv
        return y

    def recompute_basic_values(self) -> None:
        nonbasic = np.where(self.status == _BASIC, 0.0, self.x)
        lhs = (np.bincount(self.row, self.value * nonbasic,
                           minlength=self.r + 1)[:self.r]
               + nonbasic[self.dense_cols] @ self.dense)
        self.x[self.basis] = self.ftran(self.b - lhs)


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

        y = tab.btran(c[tab.basis])
        reduced = c - tab.value * y[tab.row]
        reduced[tab.dense_cols] -= tab.dense @ y[:-1]

        can_increase = (_CAN_RISE[tab.status] & movable
                        & (reduced < -PIVOT_TOLERANCE))
        can_decrease = (_CAN_FALL[tab.status] & movable
                        & (reduced > PIVOT_TOLERANCE))
        eligible = (can_increase | can_decrease).nonzero()[0]
        if eligible.size == 0:
            return "optimal", iteration

        if use_bland:
            entering = int(eligible[0])
        else:
            scores = np.abs(reduced[eligible])
            entering = int(eligible[scores.argmax()])
        direction = 1.0 if can_increase[entering] else -1.0

        alpha = tab.ftran(tab.column(entering))
        # basic variable i moves at rate delta[i] per unit step of entering
        delta = -direction * alpha
        basic_values = tab.x[tab.basis]
        # each basic variable runs toward one bound; rates within the
        # pivot tolerance of zero never block
        room = np.where(delta > 0, tab.upper[tab.basis],
                        tab.lower[tab.basis]) - basic_values
        ratios = np.divide(room, delta, out=np.full(tab.r, np.inf),
                           where=np.abs(delta) > PIVOT_TOLERANCE)
        np.maximum(ratios, 0.0, out=ratios)  # numerical drift guard

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

        blocking = (ratios <= t_block + PIVOT_TOLERANCE).nonzero()[0]
        if use_bland:
            # leave the row whose basic variable has the smallest index
            leave_pos = int(blocking[tab.basis[blocking].argmin()])
        else:
            pivots = np.abs(alpha[blocking])
            best = (pivots >= pivots.max() - 1e-12).nonzero()[0]
            choice = best[tab.basis[blocking][best].argmin()]
            leave_pos = int(blocking[choice])
        leaving = int(tab.basis[leave_pos])

        tab.x[tab.basis] = basic_values + delta * step
        tab.x[entering] += direction * step
        hit_upper = delta[leave_pos] > 0
        tab.status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
        tab.x[leaving] = tab.upper[leaving] if hit_upper else tab.lower[leaving]
        tab.status[entering] = _BASIC
        tab.basis[leave_pos] = entering
        # every blocking row has |alpha| above PIVOT_TOLERANCE by the ratio
        # test, so the new basis, and with it F, is nonsingular
        tab.factor()


def solve(problem: LpProblem) -> LpSolution:
    """Minimize the problem, reporting optimal/infeasible/unbounded by status.

    Running past ITERATIONS_PER_SIZE * (rows + vars) pivots, or a final
    answer outside the rows or bounds by more than the feasibility
    tolerance, raises CyclingError rather than returning a wrong answer.
    """
    r = problem.num_rows
    d = problem.num_vars
    max_iterations = ITERATIONS_PER_SIZE * (r + d)
    stall_limit = 3 * (r + d)
    tolerance = FEASIBILITY_TOLERANCE * (
        1.0 + np.abs(problem.b).max(initial=0.0))

    tab = _Tableau(problem)
    tab.factor()
    tab.recompute_basic_values()

    iterations = 0
    if tab.total > d + r:  # phase 1 prices out the artificials
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
        np.clip(tab.x[d + r:], 0.0, None, out=tab.x[d + r:])

    phase2_c = np.zeros(tab.total)
    phase2_c[:d] = problem.c
    status, iterations = _simplex_phase(
        tab, phase2_c, iterations, max_iterations, stall_limit,
        allow_unbounded=True)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations)

    tab.recompute_basic_values()  # one clean solve before the answer
    x = tab.x[:d].copy()
    near_lower = np.abs(x - problem.lower) <= 1e-9
    near_upper = np.abs(x - problem.upper) <= 1e-9
    x[near_lower] = problem.lower[near_lower]
    x[near_upper] = problem.upper[near_upper]
    slack = problem.b - problem.A @ x
    row_excess = np.maximum(tab.lower[d:d + r] - slack,
                            slack - tab.upper[d:d + r])
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
