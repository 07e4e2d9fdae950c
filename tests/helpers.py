"""Independent brute-force oracles used to check the fast implementations.

Each oracle deliberately takes the dumbest correct route: vertex
enumeration for linear programs, pairwise counting for AUC, combination
enumeration for the rank-sum null, grid refinement and candidate
enumeration for the 1-D SVM, a breakpoint-by-breakpoint loop for the
hinge sweep, a query-by-value distance matrix for the nearest stored
value, a row-by-row loop for the simplex crash basis, and one restart
after another for the quadratic-criterion fit.  None of them share code
with the package under test, except two: procedure_two_cold runs the
package's own cold fits one grid value at a time, as procedure 2 did
before its sigma chain, and so checks the chain, not the fits; and
fqcc_full_loop runs the package's own fqcc step for every one of the
FQCC_ITERATIONS steps, and so checks the early stop, not the step;
fqcc_bits gives the bits the two fits are compared by.  The last
helpers split folds as procedure 2 does, count the calls a module makes
to one of its names, and list the sigmas a path refuses.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def lp_brute_force(c, A, relations, b, lower, upper, tol=1e-9):
    """Minimize over a polytope by enumerating candidate vertices.

    Only sensible for small problems with finite box bounds.  Returns
    ("optimal", best_objective) or ("infeasible", None).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = c.shape[0]

    planes = []
    for i in range(A.shape[0]):
        planes.append((A[i], b[i]))
    for j in range(d):
        unit = np.zeros(d)
        unit[j] = 1.0
        planes.append((unit, lower[j]))
        planes.append((unit.copy(), upper[j]))

    def feasible(x):
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        for i in range(A.shape[0]):
            lhs = float(A[i] @ x)
            if relations[i] == "<=" and lhs > b[i] + tol:
                return False
            if relations[i] == ">=" and lhs < b[i] - tol:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), d):
        mat = np.array([planes[k][0] for k in combo])
        rhs = np.array([planes[k][1] for k in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        if feasible(x):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_box_lp(rng, max_vars=4, max_rows=6):
    """A random LP with finite box bounds, in raw-arrays form."""
    d = int(rng.integers(1, max_vars + 1))
    r = int(rng.integers(1, max_rows + 1))
    c = rng.normal(0.0, 2.0, d)
    A = rng.normal(0.0, 1.5, (r, d))
    b = rng.normal(0.0, 2.0, r)
    relations = tuple("<=" if rng.random() < 0.5 else ">=" for _ in range(r))
    lo = rng.uniform(-4.0, 0.0, d)
    hi = lo + rng.uniform(0.5, 6.0, d)
    return c, A, relations, b, lo, hi


def crash_loop(c, A, relations, b, lower, upper, tol=1e-7):
    """The simplex starting point, built one variable and one row at a time.

    Each boxed variable sits at the bound its cost favours (upper for a
    negative cost or an infinite lower bound).  Row i then takes its slack
    d+i into the basis if the slack can absorb the row's residual within
    tol; else the slack is clamped to its bound and the lowest-index column
    whose only nonzero is in row i takes the rest, if that keeps it within
    its bounds; else an artificial column d+r+k with sign +-1 does.

    Returns (status, x, basis, art_signs) over the d structural, r slack
    and the artificial columns, with status codes 0 at lower, 1 at upper,
    2 free, 3 basic.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    r, d = A.shape
    slack_lower = [0.0 if rel == "<=" else -np.inf for rel in relations]
    slack_upper = [np.inf if rel == "<=" else 0.0 for rel in relations]
    lower = list(lower) + slack_lower
    upper = list(upper) + slack_upper
    status = [0] * (d + r)
    x = [0.0] * (d + r)
    for j in range(d):
        if np.isfinite(upper[j]) and (c[j] < 0 or not np.isfinite(lower[j])):
            status[j], x[j] = 1, upper[j]
        elif np.isfinite(lower[j]):
            status[j], x[j] = 0, lower[j]
        else:
            status[j], x[j] = 2, 0.0
    residual = b - A @ np.array(x[:d]) if r else np.zeros(0)
    singleton = (A != 0.0).sum(axis=0) == 1
    basis = [0] * r
    art_signs = []
    for i in range(r):
        j = d + i
        if slack_lower[i] - tol <= residual[i] <= slack_upper[i] + tol:
            status[j], x[j], basis[i] = 3, residual[i], j
            continue
        clamped = min(max(residual[i], slack_lower[i]), slack_upper[i])
        status[j] = 0 if clamped == slack_lower[i] else 1
        x[j] = clamped
        for k in range(d):
            if A[i, k] == 0.0 or not singleton[k]:
                continue
            value = x[k] + (residual[i] - clamped) / A[i, k]
            if lower[k] <= value <= upper[k]:
                status[k], x[k], basis[i] = 3, value, k
                break
        else:
            basis[i] = d + r + len(art_signs)
            art_signs.append(1.0 if residual[i] - clamped > 0 else -1.0)
            status.append(3)
            x.append(abs(residual[i] - clamped))
    return (np.array(status, dtype=np.int8), np.array(x),
            np.array(basis, dtype=np.int64), np.array(art_signs))


def auc_brute_force(scores, labels):
    """Probability a random positive outscores a random negative,
    counting ties as one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def _midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def rank_sum_exact(a, b):
    """Two-sided permutation p-value of the rank-sum statistic."""
    a = list(a)
    b = list(b)
    pooled = a + b
    n1 = len(a)
    total = len(pooled)
    ranks = _midranks(pooled)
    observed = sum(ranks[:n1])
    mean = n1 * (total + 1) / 2.0
    count = 0
    hits = 0
    for combo in itertools.combinations(range(total), n1):
        stat = sum(ranks[i] for i in combo)
        count += 1
        if abs(stat - mean) >= abs(observed - mean) - 1e-12:
            hits += 1
    return hits / count


def svm_1d_grid_oracle(values, labels, lam, stages=4, grid=201):
    """Best hinge objective found by nested grid refinement over (w, r)."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = len(values)

    def objective(w, r):
        margins = 1.0 - labels * (w * values + r)
        return lam * w * w + np.maximum(0.0, margins).mean()

    # at any optimum lam * w^2 <= J(0, r*) <= 1, so |w| <= 1/sqrt(lam)
    w_span = 1.0 / math.sqrt(lam)
    vmax = float(np.max(np.abs(values))) if m else 1.0
    r_span = 1.0 + w_span * vmax
    w_lo, w_hi = -w_span, w_span
    r_lo, r_hi = -r_span, r_span
    best = (math.inf, 0.0, 0.0)
    for _ in range(stages):
        ws = np.linspace(w_lo, w_hi, grid)
        rs = np.linspace(r_lo, r_hi, grid)
        margins = 1.0 - labels[None, None, :] * (
            ws[:, None, None] * values[None, None, :] + rs[None, :, None])
        objs = lam * (ws ** 2)[:, None] + np.maximum(0.0, margins).mean(axis=2)
        k = np.unravel_index(int(np.argmin(objs)), objs.shape)
        if objs[k] < best[0]:
            best = (float(objs[k]), float(ws[k[0]]), float(rs[k[1]]))
        w_step = ws[1] - ws[0] if grid > 1 else 1.0
        r_step = rs[1] - rs[0] if grid > 1 else 1.0
        w_lo, w_hi = best[1] - 2 * w_step, best[1] + 2 * w_step
        r_lo, r_hi = best[2] - 2 * r_step, best[2] + 2 * r_step
    return best[0]


def sweep_min_loop(quad, a, b, scale):
    """Minimum of f(t) = quad*t^2 + sum_j max(0, a_j + b_j t) / scale by
    walking the sorted breakpoints one at a time.

    Candidates in increasing t: each segment's stationary point (when
    quad > 0 and it lies inside the segment), then the breakpoint that
    closes the segment, evaluated with the segment's running sums.  The
    first strict minimum wins.  Returns (argmin, min value).
    """
    const = float(a[(b == 0.0) & (a > 0.0)].sum())
    mask = b != 0.0
    a_m = a[mask]
    b_m = b[mask]
    if a_m.size == 0:
        return 0.0, const / scale
    breaks = -a_m / b_m
    order = np.argsort(breaks, kind="stable")
    ts = breaks[order]
    aa = a_m[order]
    bb = b_m[order]
    starts_active = bb < 0.0
    running_a = float(aa[starts_active].sum()) + const
    running_b = float(bb[starts_active].sum())

    best_t = None
    best_v = np.inf

    def consider(t, seg_a, seg_b):
        nonlocal best_t, best_v
        v = quad * t * t + (seg_a + seg_b * t) / scale
        if best_t is None or v < best_v:
            best_t, best_v = t, v

    prev = -np.inf
    i = 0
    count = ts.size
    while True:
        right = ts[i] if i < count else np.inf
        if quad > 0.0:
            t_star = -running_b / (2.0 * quad * scale)
            if prev < t_star < right:
                consider(t_star, running_a, running_b)
        if i >= count:
            break
        consider(float(ts[i]), running_a, running_b)
        j = i
        while j < count and ts[j] == ts[i]:
            if bb[j] > 0.0:
                running_a += aa[j]
                running_b += bb[j]
            else:
                running_a -= aa[j]
                running_b -= bb[j]
            j += 1
        prev = float(ts[i])
        i = j
    return float(best_t), float(best_v)


def svm_1d_enumeration(values, labels, lam):
    """Exact minimizer (w, r) of the 1-D SVM objective
    J(w, r) = lam*w^2 + mean_i max(0, 1 - y_i (w v_i + r)),
    by enumerating the two families its minimum must lie in.

    J is convex piecewise quadratic, so the minimum either lies on one of
    the m margin-equality lines y_i (w v_i + r) = 1, where r = y_i - w v_i
    and J is a one-variable hinge sum swept exactly by sweep_min_loop, or
    is a smooth stationary point whose active set is balanced between the
    classes: for w > 0 the k smallest positives and the k largest
    negatives (mirrored for w < 0), whose stationary w is closed-form and
    whose best r is one more sweep.  Of equal objectives the first
    candidate wins.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = values.size
    best = (math.inf, 0.0, 0.0)
    for i in range(m):
        w, obj = sweep_min_loop(lam, 1.0 - labels * labels[i],
                                labels * (values[i] - values), float(m))
        if obj < best[0]:
            best = (obj, w, labels[i] - w * values[i])
    pos = np.sort(values[labels == 1])
    neg = np.sort(values[labels == -1])
    k = min(pos.size, neg.size)
    sums = np.concatenate([[0.0],
                           np.cumsum(pos[:k]) - np.cumsum(neg[::-1][:k]),
                           np.cumsum(pos[::-1][:k]) - np.cumsum(neg[:k])])
    for w in sums / (2.0 * lam * m):
        r, hinge = sweep_min_loop(0.0, 1.0 - labels * (w * values), -labels,
                                  float(m))
        if lam * w * w + hinge < best[0]:
            best = (lam * w * w + hinge, float(w), r)
    return best[1], best[2]


def one_nn_broadcast(values, labels, queries):
    """Label of the nearest stored value (the first one on a tie) and the
    score min|q - v| over class -1 minus the same over class +1, from the
    full query-by-value distance matrix."""
    gaps = np.abs(np.asarray(queries, dtype=float)[:, None]
                  - np.asarray(values, dtype=float)[None, :])
    labels = np.asarray(labels)
    return (labels[np.argmin(gaps, axis=1)],
            np.min(gaps[:, labels == -1], axis=1)
            - np.min(gaps[:, labels == 1], axis=1))


def fqcc_serial_oracle(features, labels, lam, sigma, seed, restarts,
                       iterations):
    """(beta, value): the distance-based criterion minimized by projected
    subgradient, one restart after another.

    The first start is the clipped center difference, the others seeded
    uniform draws from [-1, 1]^n.  Each takes up to `iterations` steps of
    length 0.5 / (|g| sqrt(t + 1)), clipped to the box, and stops early
    once |g| < 1e-15.  The first strict minimum over (start, step) wins.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    center_neg = X[y == -1].mean(axis=0)
    center_pos = X[y == 1].mean(axis=0)
    from_neg, from_pos = X - center_neg, X - center_pos

    def value_and_subgradient(beta):
        projected = X @ beta
        c_neg = float(center_neg @ beta)
        c_pos = float(center_pos @ beta)
        eps = np.maximum(sigma, y * (np.abs(projected - c_pos)
                                     - np.abs(projected - c_neg)))
        value = float(-abs(c_neg - c_pos) + lam * eps.sum())
        grad = -np.sign(c_neg - c_pos) * (center_neg - center_pos)
        active = eps > sigma
        if active.any():
            inside = projected[active]
            rows = y[active, None] * (
                np.sign(inside - c_pos)[:, None] * from_pos[active]
                - np.sign(inside - c_neg)[:, None] * from_neg[active])
            grad = grad + lam * rows.sum(axis=0)
        return value, grad

    rng = np.random.default_rng(seed)
    starts = [np.clip(center_pos - center_neg, -1.0, 1.0)]
    starts += [rng.uniform(-1.0, 1.0, X.shape[1])
               for _ in range(restarts - 1)]
    best_beta, best_value = None, math.inf
    for beta in starts:
        for t in range(iterations + 1):
            value, grad = value_and_subgradient(beta)
            if value < best_value:
                best_value, best_beta = value, beta
            norm = math.sqrt(grad @ grad)
            if t == iterations or norm < 1e-15:
                break
            beta = np.clip(beta - 0.5 / (norm * math.sqrt(t + 1.0)) * grad,
                           -1.0, 1.0)
    return best_beta, best_value


def fqcc_full_loop(train, lam, sigma, seed):
    """The FqccModel of lcc.train_fqcc's batch loop with no early stop:
    all FQCC_ITERATIONS steps, each restart until its subgradient norm
    falls below 1e-15.  It looks up lcc._fqcc_step and lcc._fqcc_frame at
    call time, so a test's patch of either reaches it."""
    from lcckit import lcc

    restarts = lcc.FQCC_RESTARTS
    center_neg, center_pos, *_ = frame = lcc._fqcc_frame(train)
    B = np.vstack([np.clip(center_pos - center_neg, -1.0, 1.0),
                   np.random.default_rng(seed).uniform(
                       -1.0, 1.0, (restarts - 1, train.n))])
    best_B, best_values = B.copy(), np.full(restarts, np.inf)
    running = np.ones(restarts, dtype=bool)
    for t in range(lcc.FQCC_ITERATIONS + 1):
        values, grads = lcc._fqcc_step(train, B, frame, lam, sigma)
        better = running & (values < best_values)
        best_values[better], best_B[better] = values[better], B[better]
        norms = np.sqrt(np.sum(grads * grads, axis=1))
        running &= norms >= 1e-15
        if t == lcc.FQCC_ITERATIONS or not running.any():
            break
        steps = np.divide(0.5, norms * np.sqrt(t + 1.0),
                          out=np.zeros(restarts), where=running)
        B = np.minimum(np.maximum(B - steps[:, None] * grads, -1.0), 1.0)
    best = int(np.argmin(best_values))
    beta = best_B[best]
    return lcc.FqccModel(beta, float(center_neg @ beta),
                         float(center_pos @ beta), lam, sigma,
                         float(best_values[best]))


def fqcc_bits(model):
    """The bits of an fqcc fit: beta, both centers and the objective."""
    return np.hstack([model.beta, model.c_neg_hat, model.c_pos_hat,
                      model.objective]).tobytes()


def procedure_two_cold(config):
    """(tables, grid records) of procedure 2 as a loop over methods, grid
    values and folds, each fit cold and on its own: tables[method][value]
    holds the fold AUCs, and the best value is the first strict maximum
    of the mean over the folds whose fit succeeded."""
    from lcckit.evaluation import METHODS, GridRecord, fit, roc_auc
    from lcckit.lcc import ParameterError

    splits = procedure_two_folds(config.data, config.folds, config.seed)
    tables, records = {}, []
    for name in config.methods:
        method, best = METHODS[name], None
        tables[name] = {}
        for value in method.grid:
            params = {**config.params, method.param_key: value}
            fold_aucs = []
            for train, test in splits:
                try:
                    model = fit(method, train, params, config.seed)
                    fold_aucs.append(roc_auc(model.score(test.features),
                                             test.labels).auc)
                except ParameterError:
                    raise
                except (ValueError, RuntimeError):
                    fold_aucs.append(math.nan)
            tables[name][value] = tuple(fold_aucs)
            clean = [a for a in fold_aucs if not math.isnan(a)]
            mean_auc = sum(clean) / len(clean) if clean else -math.inf
            if best is None or mean_auc > best[0]:
                best = (mean_auc, value, tuple(fold_aucs))
        records.append(GridRecord(name, method.param_name, best[1], best[0],
                                  best[2]))
    return tables, records


def procedure_two_folds(data, folds, seed):
    """Procedure 2's (train, test) pair of each fold, normalized by the
    train part."""
    from lcckit.evaluation import _normalized, stratified_kfold

    return [_normalized(data.take(np.delete(np.arange(data.m), held)),
                        data.take(held))
            for held in stratified_kfold(data, folds, seed)]


def count_calls(monkeypatch, module, name):
    """A list that gains the arguments of each call the module makes to
    its name, which still runs."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def grid_refusals(fit, assemble, grid):
    """(refused, infeasible): the grid sigmas that the path fit, run from
    the smallest up, refuses, and those whose program assemble(sigma)
    solves cold as infeasible."""
    from lcckit import lp
    from lcckit.lcc import TrainingError

    refused, infeasible = set(), set()
    for sigma in sorted(grid):
        try:
            fit(sigma)
        except TrainingError:
            refused.add(sigma)
        if lp.solve(assemble(sigma)).status == "infeasible":
            infeasible.add(sigma)
    return refused, infeasible
