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
than one nonzero, form a k x k block F.  factor() inverts F and keeps
B^-1's k columns at F's rows, so B^-1 a and B^-T c_B cost O(r k) and no
r x r matrix is formed.  A basis change updates those columns in O(r k)
by the product form of the inverse (Dantzig & Orchard-Hays, Math. Tables
and Other Aids to Computation 8, 1954): F gains a row and a column when
a singleton leaves, and loses one when a singleton enters.  factor()
runs again only at the start of a solve, and when a pivot element is
below FEASIBILITY_TOLERANCE times the largest entry of its column, where
the update would amplify rounding.  k stays small in the centralization
programs: at most n for lcc and 21 for klcc on the spiral shape at m=400.

The primal phases price by Dantzig's rule with a permanent switch to
Bland's rule once the objective stalls, so they terminate on degenerate
programs; past ITERATIONS_PER_SIZE * (rows + vars) pivots solve raises
CyclingError.  Basic values are updated along each step and recomputed
from the factored basis before the answer is read.  The answer is checked
before it is returned: row residuals and bound violations must lie within
the feasibility tolerance, or solve raises CyclingError.

Every answer carries its column statuses and, as a certificate, its
largest wrong-sign reduced cost.  solve(problem, start) re-optimizes from
the basis of start, an answer to a program of the same shape and c, by a
bounded dual simplex (Koberstein, "The dual simplex method, techniques
for a fast and stable implementation", PhD thesis, Paderborn, 2005): that
basis, the columns start's statuses mark basic, stays dual feasible when
only b and the bounds move.  It prices by dual steepest edge (Forrest &
Goldfarb, "Steepest-edge simplex algorithms for linear programming",
Math. Programming 57, 1992), and its ratio test flips the boxed columns
it passes to their other bound (Maros, "A generalized dual phase-2
simplex algorithm", EJOR 149(1), 2003).  An attempt that cannot finish
falls back to the cold path, whose iterations then include the attempt's
pivots.  Pricing, the dual ratio test, the warm start's check and the
certificate read one sign test, _descent: how fast each nonbasic
variable can lower a linear form.

Everything is deterministic: identical problems produce bit-identical
solutions at a fixed BLAS thread count.  Across thread counts the last
bits can move: klcc at m=400 differed by up to 4.4e-10 in alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _freeze

PIVOT_TOLERANCE = 1e-9
FEASIBILITY_TOLERANCE = 1e-7
ITERATIONS_PER_SIZE = 1000   # the iteration cap per row and per variable
WEIGHT_FLOOR = 1e-4          # the least dual steepest-edge weight

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3
# by status code: may a nonbasic variable move up / down from its value
_CAN_RISE = np.array([True, False, True, False])
_CAN_FALL = np.array([False, True, True, False])
# one lookup in the two tables end to end: rise where v_j < 0, else fall
_LOWERS = np.concatenate((_CAN_FALL, _CAN_RISE))


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
        _freeze(self, np.float64, "c", "A", "b", "lower", "upper")
        object.__setattr__(self, "relations", tuple(self.relations))
        c, A, b, lower, upper = self.c, self.A, self.b, self.lower, self.upper
        if c.ndim != 1:
            raise LpFormatError("c must be 1-D")
        d = c.shape[0]
        if A.ndim != 2 or A.shape[1] != d:
            raise LpFormatError("A must be 2-D with one column per variable")
        r = A.shape[0]
        if b.shape != (r,):
            raise LpFormatError("b must have one entry per row of A")
        if len(self.relations) != r:
            raise LpFormatError("need one relation per row")
        for rel in self.relations:
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
    statuses: np.ndarray | None = None  # (d + r,) structural and slack codes
    dual_infeasibility: float = float("nan")

    def __post_init__(self) -> None:
        if self.status not in ("optimal", "infeasible", "unbounded"):
            raise LpFormatError(f"unknown status {self.status!r}")
        _freeze(self, np.float64, "x")
        if self.statuses is not None:
            codes = np.asarray(self.statuses)
            if not ((_AT_LOWER <= codes) & (codes <= _BASIC)).all():
                raise LpFormatError("statuses must be codes 0 to 3")
        _freeze(self, np.int8, "statuses")


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
    appends to y.  In the basis, the singleton at position i covers row
    pair[i] and has recip[i] = 1 / value; a dense position has recip 0 and
    its own uncovered row pair[i].  Row t of inv_d is B^-1's column for the
    uncovered row rows_d[t].
    """

    def __init__(self, problem: LpProblem, start: LpSolution | None = None):
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
        if start is None:
            self._crash(problem)
        else:  # the columns start marks basic; the rest at their bounds
            self.status = start.statuses.copy()
            self.basis = np.flatnonzero(self.status == _BASIC)
            self.x = np.where(self.status == _AT_UPPER, self.upper, self.lower)

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

    def factor(self) -> None:
        """Split the basis, invert its block F and build inv_d from F^-1."""
        self.pair = self.row[self.basis]
        single = self.pair < self.r
        pos_d = (~single).nonzero()[0]
        uncovered = np.ones(self.r, dtype=bool)
        uncovered[self.pair[single]] = False
        self.rows_d = uncovered.nonzero()[0]
        block = self.dense[self.slot[self.basis[pos_d]]]
        f_inv = np.linalg.inv(block[:, self.rows_d].T)
        self.recip = np.zeros(self.r)
        self.recip[single] = 1.0 / self.value[self.basis[single]]
        self.inv_d = np.empty((pos_d.size, self.r))
        self.inv_d[:, pos_d] = f_inv.T
        self.inv_d[:, single] = -(f_inv.T @ block[:, self.pair[single]]
                                  * self.recip[single])
        self.pair[pos_d] = self.rows_d

    pos_d = property(lambda self: (self.recip == 0.0).nonzero()[0])
    pos_s = property(lambda self: self.recip.nonzero()[0])
    f_inv = property(lambda self: self.inv_d[:, self.pos_d].T)

    def column(self, j, weights=None) -> np.ndarray:
        """a_j, or the sum of weights[i] a_{j[i]} for an array j."""
        if weights is None:
            if self.row[j] == self.r:
                return self.dense[self.slot[j]]
            a = np.zeros(self.r)
            a[self.row[j]] = self.value[j]
            return a
        rows = self.row[j]
        dense = rows == self.r
        return (np.bincount(rows, self.value[j] * weights,
                            minlength=self.r + 1)[:self.r]
                + weights[dense] @ self.dense[self.slot[j[dense]]])

    def ftran(self, a: np.ndarray) -> np.ndarray:
        """B^-1 a, in basis-position order."""
        return a[self.rows_d] @ self.inv_d + a[self.pair] * self.recip

    def btran(self, c_b: np.ndarray) -> np.ndarray:
        """y with B^T y = c_b, plus a trailing zero for the dense columns'
        row index."""
        y = np.zeros(self.r + 1)
        y[self.pair] = c_b * self.recip
        y[self.rows_d] = self.inv_d @ c_b
        return y

    def inverse_row(self, pos: int) -> np.ndarray:
        """btran(e_pos), read off inv_d and recip."""
        y = np.zeros(self.r + 1)
        y[self.pair[pos]], y[self.rows_d] = self.recip[pos], self.inv_d[:, pos]
        return y

    def dot(self, y: np.ndarray) -> np.ndarray:
        """a_j . y for every column j, from a btran result y."""
        products = self.value * y[self.row]
        products[self.dense_cols] += self.dense @ y[:-1]
        return products

    def pivot(self, pos: int, entering: int, alpha: np.ndarray,
              theta: float, to_upper: bool) -> None:
        """Move entering by theta and the basic values by -alpha theta,
        alpha = B^-1 a_entering; entering takes position pos, whose variable
        leaves at a bound.  The new B^-1 is B^-1 - (alpha - e_pos) rho /
        alpha[pos], rho = e_pos^T B^-1: a leaving singleton first adds its
        row to inv_d (B^-1 there is e_pos / value), an entering one then
        removes its row."""
        leaving = self.basis[pos]
        self.x[self.basis] -= alpha * theta
        self.x[entering] += theta
        self.status[leaving] = _AT_UPPER if to_upper else _AT_LOWER
        self.x[leaving] = (self.upper if to_upper else self.lower)[leaving]
        self.status[entering] = _BASIC
        self.basis[pos] = entering
        if abs(alpha[pos]) < FEASIBILITY_TOLERANCE * np.abs(alpha).max():
            self.factor()  # rather than amplify rounding past 1e7
            return
        if self.recip[pos]:
            grown = np.zeros((1, self.r))
            grown[0, pos], self.recip[pos] = self.recip[pos], 0.0
            self.inv_d = np.concatenate((self.inv_d, grown))
            self.rows_d = np.concatenate((self.rows_d, self.pair[pos:pos + 1]))
        rho = self.inv_d[:, pos] / alpha[pos]
        self.inv_d -= rho[:, None] * alpha
        self.inv_d[:, pos] = rho
        row = self.row[entering]
        if row < self.r:  # pos takes the row; its partner takes pos's old row
            i, partner = ((self.rows_d == row).argmax(),
                          (self.pair == row).argmax())
            self.pair[partner], self.pair[pos] = self.pair[pos], row
            self.recip[pos] = 1.0 / self.value[entering]
            self.inv_d[i], self.rows_d[i] = self.inv_d[-1], self.rows_d[-1]
            self.inv_d, self.rows_d = self.inv_d[:-1], self.rows_d[:-1]

    def recompute_basic_values(self) -> None:
        nonbasic = np.where(self.status == _BASIC, 0.0, self.x)
        lhs = (np.bincount(self.row, self.value * nonbasic,
                           minlength=self.r + 1)[:self.r]
               + nonbasic[self.dense_cols] @ self.dense)
        self.x[self.basis] = self.ftran(self.b - lhs)


def _descent(status: np.ndarray, v: np.ndarray,
             movable: np.ndarray) -> np.ndarray:
    """For each column, how fast v . x falls as the variable moves the way
    its status and bounds allow: |v_j| if it may move against the sign of
    v_j, else 0, as for basic and fixed variables."""
    lowers = _LOWERS[status + _CAN_FALL.size * (v < 0)]
    return np.abs(v) * (lowers & movable)


def _simplex_phase(tab: _Tableau, c: np.ndarray, cap: int,
                   stall_limit: int) -> tuple[str, int]:
    """Run simplex pivots until optimality for the given objective.

    Returns ("optimal" | "unbounded", pivots).  Raises CyclingError if
    cap pivots reach neither.
    """
    # stalls count from the objective at entry; an infinite start would
    # make the tolerance below NaN and every pivot look like a stall
    best_objective = float(c @ tab.x)
    stalled = 0
    use_bland = False
    movable = tab.upper - tab.lower > 0  # fixed variables never enter

    for iteration in range(cap):
        reduced = c - tab.dot(tab.btran(c[tab.basis]))
        rate = _descent(tab.status, reduced, movable)
        eligible = (rate > PIVOT_TOLERANCE).nonzero()[0]
        if eligible.size == 0:
            return "optimal", iteration
        entering = int(eligible[0] if use_bland
                       else eligible[rate[eligible].argmax()])
        direction = 1.0 if reduced[entering] < 0 else -1.0

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

        t_own = tab.upper[entering] - tab.lower[entering]
        t_block = ratios.min() if ratios.size else np.inf
        step = min(t_own, t_block)
        if not np.isfinite(step):
            return "unbounded", iteration

        objective_now = float(c @ tab.x)
        if objective_now < best_objective - 1e-9 * (1.0 + abs(best_objective)):
            best_objective = objective_now
            stalled = 0
        else:
            stalled += 1
            if stalled > stall_limit:
                use_bland = True

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
        # every blocking row has |alpha| above PIVOT_TOLERANCE by the ratio
        # test, so the new basis, and with it F, is nonsingular
        tab.pivot(leave_pos, entering, alpha, direction * step,
                  delta[leave_pos] > 0)
    raise CyclingError(f"no optimum after {cap} iterations: cycling suspected")


def _dual_phase(tab: _Tableau, c: np.ndarray, reduced: np.ndarray,
                cap: int, stall_limit: int) -> tuple[bool, int]:
    """Dual simplex pivots from a dual feasible basis until every basic
    value is within its bounds.  Dual steepest edge (Forrest & Goldfarb)
    picks the leaving row by the largest excess^2 / w_i; the weights start
    at 1, the leaving row's is set to |rho_r|^2, rho_r = B^-T e_r, and the
    others are updated with tau = B^-1 rho_r, floored at WEIGHT_FLOOR.
    The bound-flipping ratio test (Maros) passes the breakpoints
    |d_j / alpha_rj| of the columns that move the leaving variable to its
    bound in increasing order, flipping each boxed one to its other bound
    while the slope, excess - sum |alpha_rj| (u_j - l_j) over the flipped,
    stays >= 0; the first that would turn it negative enters, ties to the
    largest |alpha_rj|.  reduced, c's reduced costs at the start, are
    updated in place.  Returns (finished, pivots); finished is False when
    no breakpoint stops the slope, when c . x has not risen for stall_limit
    pivots, or after cap pivots."""
    span, movable = tab.upper - tab.lower, tab.upper > tab.lower
    lower, upper = tab.lower[tab.basis], tab.upper[tab.basis]
    weights, best, stalled = np.ones(tab.r), float(c @ tab.x), 0
    for pivots in range(cap + 1):
        objective = float(c @ tab.x)
        gained = objective > best + 1e-9 * (1.0 + abs(best))
        best, stalled = max(best, objective), 0 if gained else stalled + 1
        basic = tab.x[tab.basis]
        below = lower - basic
        excess = np.maximum(below, basic - upper)
        if excess.max(initial=0.0) <= PIVOT_TOLERANCE:
            return True, pivots
        pos = int((np.where(excess > PIVOT_TOLERANCE, excess, 0.0) ** 2
                   / weights).argmax())
        rise = below[pos] > 0  # the leaving variable rises to its lower bound
        rho = tab.inverse_row(pos)
        row = tab.dot(rho)  # alpha_r
        # the leaving variable moves by -alpha_rj per unit rise of x_j:
        # eligible are the moves that lower row . x if it must rise, else
        # the moves that raise it
        toward = _descent(tab.status, row if rise else -row, movable)
        eligible = (toward > PIVOT_TOLERANCE).nonzero()[0]
        ratios = np.abs(reduced[eligible] / row[eligible])
        order = ratios.argsort(kind="stable")
        eligible, ratios = eligible[order], ratios[order]
        slope = excess[pos] - (toward[eligible] * span[eligible]).cumsum()
        passed = np.count_nonzero(slope >= 0.0)  # slope never rises
        if passed == eligible.size or stalled > stall_limit or pivots == cap:
            break
        flips, eligible, ratios = (eligible[:passed], eligible[passed:],
                                   ratios[passed:])
        near = eligible[ratios <= ratios[0] + PIVOT_TOLERANCE]
        entering = int(near[np.abs(row[near]).argmax()])
        if passed:  # flip the passed columns, one ftran of their sum
            up = (row[flips] < 0) == rise
            tab.status[flips] = np.where(up, _AT_UPPER, _AT_LOWER)
            bounds = np.where(up, tab.upper[flips], tab.lower[flips])
            summed = tab.column(flips, bounds - tab.x[flips])
            tab.x[flips] = bounds
            basic = tab.x[tab.basis] = basic - tab.ftran(summed)
        alpha = tab.ftran(tab.column(entering))
        step = (basic[pos] - (lower if rise else upper)[pos]) / alpha[pos]
        theta = reduced[entering] / row[entering]
        reduced -= theta * row
        reduced[tab.basis[pos]], reduced[entering] = -theta, 0.0
        ratio, w_r = alpha / alpha[pos], float(rho @ rho)
        weights -= ratio * (2.0 * tab.ftran(rho[:-1]) - ratio * w_r)
        weights[pos] = w_r / alpha[pos] ** 2
        np.maximum(weights, WEIGHT_FLOOR, out=weights)
        tab.pivot(pos, entering, alpha, step, not rise)
        lower[pos], upper[pos] = tab.lower[entering], tab.upper[entering]
    return False, pivots


def _dual_infeasibility(tab: _Tableau, c: np.ndarray, reduced=None) -> float:
    """The largest wrong-sign reduced cost (reduced, if given) for costs c
    of a movable nonbasic variable at tab's basis, 0 when there is none."""
    if reduced is None:
        reduced = c - tab.dot(tab.btran(c[tab.basis]))
    return float(_descent(tab.status, reduced,
                          tab.upper - tab.lower > 0).max(initial=0.0))


def _answer(tab: _Tableau, problem: LpProblem, c: np.ndarray, status: str,
            iterations: int, tolerance: float) -> LpSolution:
    """The answer at tab's basis with its certificate for the costs c; an
    optimum carries x, checked against the rows and bounds."""
    d, r = tab.d, tab.r
    x = objective = None
    if status == "optimal":
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
                f"{worst_row:.3g}, bound excess {worst_bound:.3g}, "
                f"tolerance {tolerance:.3g}")
        objective = float(problem.c @ x)
    return LpSolution(status, x, objective, iterations, tab.status[:d + r],
                      _dual_infeasibility(tab, c))


def solve(problem: LpProblem, start: LpSolution | None = None) -> LpSolution:
    """Minimize the problem, reporting optimal/infeasible/unbounded by status.

    start, an earlier answer, warm-starts the dual simplex.  The cold path
    running past ITERATIONS_PER_SIZE * (rows + vars) pivots, or a final
    answer outside the rows or bounds by more than the feasibility
    tolerance, raises CyclingError rather than returning a wrong answer.
    """
    r, d = problem.num_rows, problem.num_vars
    max_iterations = ITERATIONS_PER_SIZE * (r + d)
    stall_limit = 3 * (r + d)
    tolerance = FEASIBILITY_TOLERANCE * (
        1.0 + np.abs(problem.b).max(initial=0.0))
    c = np.concatenate([problem.c, np.zeros(r)])
    spent = 0  # the pivots of a warm attempt that fell back
    statuses = None if start is None else start.statuses
    if (statuses is not None and statuses.shape == (d + r,)
            and np.count_nonzero(statuses == _BASIC) == r):
        tab = _Tableau(problem, start)
        try:
            tab.factor()
            tab.recompute_basic_values()
            reduced = c - tab.dot(tab.btran(c[tab.basis]))
            if (np.all(np.isfinite(tab.x)) and _dual_infeasibility(
                    tab, c, reduced) <= PIVOT_TOLERANCE):
                finished, spent = _dual_phase(tab, c, reduced,
                                              max_iterations, stall_limit)
                if finished:
                    answer = _answer(tab, problem, c, "optimal", spent,
                                     tolerance)
                    if answer.dual_infeasibility <= PIVOT_TOLERANCE:
                        return answer
        except (CyclingError, np.linalg.LinAlgError):
            pass

    tab = _Tableau(problem)
    tab.factor()
    tab.recompute_basic_values()

    iterations = 0
    if tab.x.size > d + r:  # phase 1 prices out the artificials
        phase1_c = np.zeros(tab.x.size)
        phase1_c[d + r:] = 1.0
        status, iterations = _simplex_phase(tab, phase1_c, max_iterations,
                                            stall_limit)
        if status == "unbounded":
            raise CyclingError("phase-1 objective unbounded: numerical "
                               "trouble")
        if float(tab.x[d + r:].sum()) > tolerance:
            return _answer(tab, problem, phase1_c, "infeasible",
                           spent + iterations, tolerance)
        # pin artificials to zero for phase 2; basic ones may linger at 0
        tab.lower[d + r:] = 0.0
        tab.upper[d + r:] = 0.0
        np.clip(tab.x[d + r:], 0.0, None, out=tab.x[d + r:])
        c = np.concatenate([c, np.zeros(tab.x.size - d - r)])

    status, pivots = _simplex_phase(tab, c, max_iterations - iterations,
                                    stall_limit)
    return _answer(tab, problem, c, status, spent + iterations + pivots,
                   tolerance)
