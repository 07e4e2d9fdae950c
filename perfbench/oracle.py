"""Independent check of lcckit's LP answers with HiGHS.

HiGHS (Huangfu & Hall, "Parallelizing the dual revised simplex method",
Math. Prog. Comp. 10, 2018) ships with scipy as
`scipy.optimize.linprog(method="highs")`.  It serves here as an oracle and
as a reference column for the LP layer's time; lcckit itself never
imports scipy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# A mismatch is a different status, or an objective gap above
# OBJECTIVE_RTOL * max(1, |HiGHS objective|).
OBJECTIVE_RTOL = 1e-6
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class OracleReport:
    available: bool
    checked: int = 0
    mismatches: int = 0
    highs_s: float = 0.0
    messages: list = field(default_factory=list)


def _linprog():
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    return linprog


def check(calls: list, deadline: float) -> OracleReport:
    """Re-solve each captured problem with HiGHS until the deadline.

    calls holds the tracer's LpCall records that kept their problem.
    """
    linprog = _linprog()
    if linprog is None:
        return OracleReport(False)
    report = OracleReport(True)
    for index, call in enumerate(calls):
        problem, status = call.problem, call.status
        if time.perf_counter() > deadline:
            report.messages.append(
                f"deadline reached after {report.checked} of {len(calls)}"
                " problems")
            break
        flip = np.array([-1.0 if rel == ">=" else 1.0
                         for rel in problem.relations])
        bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                  for lo, hi in zip(problem.lower, problem.upper)]
        start = time.perf_counter()
        res = linprog(problem.c, A_ub=problem.A * flip[:, None],
                      b_ub=problem.b * flip, bounds=bounds, method="highs")
        report.highs_s += time.perf_counter() - start
        report.checked += 1
        highs_status = _STATUS.get(res.status, f"highs status {res.status}")
        if highs_status != status:
            report.mismatches += 1
            report.messages.append(f"{call.shape} problem {index}: lcckit "
                                   f"{status}, HiGHS {highs_status}")
        elif status == "optimal":
            gap = abs(call.objective - res.fun)
            if gap > OBJECTIVE_RTOL * max(1.0, abs(res.fun)):
                report.mismatches += 1
                report.messages.append(
                    f"{call.shape} problem {index}: objective "
                    f"{call.objective!r} vs HiGHS {res.fun!r}")
    return report
