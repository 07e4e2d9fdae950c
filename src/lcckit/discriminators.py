"""Label assignment on 1-D projected values.

Three interchangeable rules: "dist" thresholds at the projected midpoint,
"one_nn" copies the label of the nearest stored training value, and
"one_sv" fits a one-dimensional soft-margin SVM on rescaled values.

The 1-D SVM is solved exactly.  The objective

    J(w, r) = lam * w^2 + (1/m) * sum_i max(0, 1 - y_i (w v_i + r))

is convex piecewise quadratic, so its minimum either lies on one of the m
margin-equality lines y_i (w v_i + r) = 1, or is a smooth stationary point
whose active set must be balanced between the classes.  Both candidate
families are cheap to enumerate in one dimension: sweep each line exactly,
and derive the stationary w of every balanced prefix/suffix active set.
J(w*, .) can be flat over an interval of r; the intercept is its midpoint.

Each sweep minimizes quad*t^2 + sum_j max(0, a_j + b_j t) / scale in one
pass of array operations: sort the breakpoints, take the active hinges'
running sums with one cumsum read at the ends of the tie groups, evaluate
every breakpoint and in-segment stationary point, and keep the leftmost
minimum.  With quad == 0 the same pass returns the midpoint of the flat
minimum, which the linear SVM baseline's intercept step also uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _frozen
from .lcc import LccModel

DEFAULT_H = 10.0
# the fields each kind sets, in model file order, with their encodings
FIELDS = {"dist": (("threshold", "float"),),
          "one_nn": (("values", "floats"), ("labels", "ints")),
          "one_sv": (("scale", "float"), ("weight", "float"),
                     ("intercept", "float"), ("h", "float"))}
KINDS = tuple(FIELDS)


class DiscriminatorError(ValueError):
    """Bad discriminator parameters or unusable projected data."""


@dataclass(frozen=True)
class Discriminator:
    """A fitted 1-D labeling rule; only the fields of its kind are set."""

    kind: str
    threshold: float | None = None      # dist
    values: np.ndarray | None = None    # one_nn, sorted ascending
    labels: np.ndarray | None = None    # one_nn, aligned with values
    scale: float | None = None          # one_sv
    weight: float | None = None
    intercept: float | None = None
    h: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DiscriminatorError(f"unknown discriminator kind {self.kind!r}")
        if self.values is not None:
            object.__setattr__(self, "values",
                               _frozen(self.values, np.float64))
        if self.labels is not None:
            object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        if self.kind == "one_nn" and (
                self.values is None or self.labels is None
                or self.values.shape != self.labels.shape
                or np.any(np.diff(self.values) < 0)
                or set(self.labels.tolist()) != {-1, 1}):
            raise DiscriminatorError("one_nn needs ascending values, one "
                                     "label per value, and both labels "
                                     "-1 and +1")


def _tie_groups(sorted_values: np.ndarray) -> np.ndarray:
    """End index (exclusive) of each run of equal values."""
    return np.flatnonzero(np.append(sorted_values[1:] != sorted_values[:-1],
                                    True)) + 1


def _sweep_min(quad: float, a: np.ndarray, b: np.ndarray,
               scale: float) -> tuple[float, float, float]:
    """Exact minimum of f(t) = quad*t^2 + sum_j max(0, a_j + b_j t) / scale.

    The breakpoints -a_j/b_j are sorted once; the active hinges' sums of
    a and b on every segment are one cumsum read at the tie-group ends.
    f is evaluated at each distinct breakpoint (with the sums of the
    segment to its left) and, when quad > 0, at each segment's
    stationary point that lies inside it; of equal minima the leftmost
    wins.  With quad == 0 the function is piecewise linear and the
    caller must guarantee it grows in both directions (true whenever
    both hinge slope signs occur); its minimum can then be flat over an
    interval, spanned by the breakpoints within 1e-12 (relative) of the
    minimum.  Returns (argmin, min value, midpoint of that interval).
    """
    const = float(a[(b == 0.0) & (a > 0.0)].sum())
    a = a[b != 0.0]
    b = b[b != 0.0]
    if a.size == 0:
        return 0.0, const / scale, 0.0
    breaks = -a / b
    order = np.argsort(breaks, kind="stable")
    ts, aa, bb = breaks[order], a[order], b[order]
    rising = bb > 0.0
    seg = np.concatenate([[0], _tie_groups(ts)])
    seg_a = np.cumsum(np.concatenate([[float(aa[~rising].sum()) + const],
                                      np.where(rising, aa, -aa)]))[seg]
    seg_b = np.cumsum(np.concatenate([[float(bb[~rising].sum())],
                                      np.abs(bb)]))[seg]
    # candidate 2k is segment k's stationary point, 2k + 1 its right end
    t = np.zeros(2 * seg.size - 1)
    t[1::2] = ts[seg[:-1]]
    keep = np.zeros(t.size, dtype=bool)
    keep[1::2] = True
    if quad > 0.0:
        t[0::2] = -seg_b / (2.0 * quad * scale)
        keep[0::2] = ((np.append(-np.inf, t[1::2]) < t[0::2])
                      & (t[0::2] < np.append(t[1::2], np.inf)))
    k = np.arange(t.size)[keep] // 2
    t = t[keep]
    v = quad * t * t + (seg_a[k] + seg_b[k] * t) / scale
    best = int(np.argmin(v))
    flat = t[v <= v[best] + 1e-12 * (1.0 + abs(v[best]))]
    # a breakpoint -0/b can be -0.0; adding 0.0 reports that zero as 0.0
    mid = (flat[0] + flat[-1]) / 2.0 + 0.0
    return float(t[best]), float(v[best]), float(mid)


def svm_1d_objective(values, labels, lam: float, w: float, r: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    margins = 1.0 - labels * (w * values + r)
    return float(lam * w * w + np.maximum(0.0, margins).mean())


def solve_svm_1d(values, labels, lam: float = 1.0) -> tuple[float, float]:
    """Exact minimizer (w, r) of the 1-D soft-margin SVM objective."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if values.ndim != 1 or values.shape != labels.shape:
        raise DiscriminatorError("values and labels must be 1-D and aligned")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise DiscriminatorError("values must be nonempty and finite")
    if not (np.any(labels == 1) and np.any(labels == -1)):
        raise DiscriminatorError("both labels must be present")
    if not lam > 0:
        raise DiscriminatorError("lam must be positive")
    m = values.size

    if np.all(values == values[0]):
        # every threshold is equivalent; predict the majority class
        majority = 1.0 if np.sum(labels == 1) >= np.sum(labels == -1) else -1.0
        return 0.0, majority

    # candidates with some instance exactly at margin: on the line
    # y_i (w v_i + r) = 1, r = y_i - w v_i; sweep each line exactly
    ws, objs = [], []
    for i in range(m):
        w_i, obj, _ = _sweep_min(lam, 1.0 - labels * labels[i],
                                 labels * (values[i] - values), float(m))
        ws.append(w_i)
        objs.append(obj)

    # smooth stationary candidates: balanced active sets; for w > 0 the
    # active instances are the k smallest positives and k largest negatives
    pos = np.sort(values[labels == 1])
    neg = np.sort(values[labels == -1])
    k = min(pos.size, neg.size)
    sums = np.concatenate([[0.0],
                           np.cumsum(pos[:k]) - np.cumsum(neg[::-1][:k]),
                           np.cumsum(pos[::-1][:k]) - np.cumsum(neg[:k])])
    for w in sums / (2.0 * lam * m):
        ws.append(float(w))
        objs.append(lam * w * w + _sweep_min(0.0, 1.0 - labels * (w * values),
                                             -labels, float(m))[1])
    best_w = ws[int(np.argmin(objs))]

    # the w^2 term makes the optimal w unique, but J(w*, .) can be flat
    # over an interval of r; settle on that interval's midpoint
    return best_w, _sweep_min(0.0, 1.0 - labels * (best_w * values),
                              -labels, float(m))[2]


def fit_discriminator(kind: str, values, labels, model: LccModel,
                      h: float = DEFAULT_H) -> Discriminator:
    """Fit one labeling rule on projected training values.

    dist needs only the model's midpoint threshold.  one_nn memorizes the
    (value, label) pairs sorted by value.  one_sv rescales values by
    s = h / (projected center gap) and solves the exact 1-D SVM at lam=1.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if values.ndim != 1 or values.shape[0] != labels.shape[0]:
        raise DiscriminatorError("values and labels must be 1-D and aligned")
    if values.size == 0:
        raise DiscriminatorError("cannot fit a discriminator on no values")
    if not np.all(np.isfinite(values)):
        raise DiscriminatorError("projected values must be finite")
    if kind == "dist":
        return Discriminator("dist", threshold=model.l_hat)
    if kind == "one_nn":
        order = np.argsort(values, kind="stable")
        return Discriminator("one_nn", values=values[order],
                             labels=labels[order])
    if kind == "one_sv":
        gap = model.c_pos_hat - model.c_neg_hat
        if not gap > 0:
            raise DiscriminatorError(
                "one_sv needs a positive projected center gap; "
                f"got {gap:g} (cannot scale)")
        if not h > 0:
            raise DiscriminatorError("h must be positive")
        scale = h / gap
        w, r = solve_svm_1d(scale * values, labels, 1.0)
        return Discriminator("one_sv", scale=float(scale), weight=float(w),
                             intercept=float(r), h=float(h))
    raise DiscriminatorError(f"unknown discriminator kind {kind!r}")


def _check_query(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DiscriminatorError("query value must be finite")
    return arr


def _nearest(values: np.ndarray,
             q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of the sorted stored value nearest each query,
    as argmin and min over |q - values| give them: a tie goes to the
    lower index."""
    right = np.searchsorted(values, q)          # first value >= q
    left = np.maximum(right - 1, 0)
    gap_left = np.where(right > 0, np.abs(q - values[left]), np.inf)
    gap_right = np.where(right < values.size, np.abs(
        q - values[np.minimum(right, values.size - 1)]), np.inf)
    near = np.where(gap_left <= gap_right, left, right)
    gap = np.minimum(gap_left, gap_right)
    # step down over lower values at the same distance: duplicates, and
    # distinct values whose differences round to the same float
    while True:
        below = np.maximum(near - 1, 0)
        tied = (near > 0) & (np.abs(q - values[below]) == gap)
        if not tied.any():
            return near, gap
        near = np.where(tied, np.searchsorted(values, values[below]), near)


def discriminate(d: Discriminator, value) -> int | np.ndarray:
    """Assign -1 or +1 to a projected value (or an array of them)."""
    if d.kind != "one_nn":
        # dist and one_sv label by the sign of their score; a tie is +1
        out = np.where(discriminator_score(d, value) < 0, -1, 1)
        return int(out) if out.ndim == 0 else out
    arr = _check_query(value)
    out = d.labels[_nearest(d.values, np.atleast_1d(arr))[0]]
    return int(out[0]) if arr.ndim == 0 else out


def discriminator_score(d: Discriminator, value) -> float | np.ndarray:
    """A continuous stand-in for the hard label, positive toward +1."""
    arr = _check_query(value)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if d.kind == "dist":
        out = flat - d.threshold
    elif d.kind == "one_nn":
        out = (_nearest(d.values[d.labels == -1], flat)[1]
               - _nearest(d.values[d.labels == 1], flat)[1])
    else:
        out = d.weight * (d.scale * flat) + d.intercept
    return float(out[0]) if scalar else out
