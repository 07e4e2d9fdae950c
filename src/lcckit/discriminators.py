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
                or set(self.labels.tolist()) != {-1, 1}):
            raise DiscriminatorError("one_nn needs one label per value, "
                                     "and both labels -1 and +1")


def _sweep_min(quad: float, a: np.ndarray, b: np.ndarray,
               scale: float) -> tuple[float, float]:
    """Exact minimum of f(t) = quad*t^2 + sum_j max(0, a_j + b_j t) / scale.

    With quad == 0 the function is piecewise linear and the caller must
    guarantee it grows in both directions (true whenever both hinge slopes
    signs occur).  Returns (argmin, min value).
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

    def consider(t: float, seg_a: float, seg_b: float) -> None:
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

    best_v = np.inf
    best_w = 0.0
    best_r = 0.0

    def consider(value: float, w: float, r: float) -> None:
        nonlocal best_v, best_w, best_r
        if value < best_v:
            best_v, best_w, best_r = value, w, r

    # candidates with some instance exactly at margin: sweep each line
    # y_i (w v_i + r) = 1, on which r = y_i - w v_i
    for i in range(m):
        a = 1.0 - labels * labels[i]
        b = labels * (values[i] - values)
        w_i, v_i = _sweep_min(lam, a, b, float(m))
        consider(v_i, w_i, float(labels[i] - w_i * values[i]))

    # smooth stationary candidates: balanced active sets; for w > 0 the
    # active instances are the k smallest positives and k largest negatives
    pos = np.sort(values[labels == 1])
    neg = np.sort(values[labels == -1])
    kmax = min(pos.size, neg.size)
    candidates = [0.0]
    if kmax:
        low_pos = np.cumsum(pos[:kmax])
        high_pos = np.cumsum(pos[::-1][:kmax])
        low_neg = np.cumsum(neg[:kmax])
        high_neg = np.cumsum(neg[::-1][:kmax])
        candidates.extend((low_pos - high_neg) / (2.0 * lam * m))
        candidates.extend((high_pos - low_neg) / (2.0 * lam * m))
    for w in candidates:
        w = float(w)
        r_w, hinge = _sweep_min(0.0, 1.0 - labels * (w * values),
                                -labels, float(m))
        consider(lam * w * w + hinge, w, r_w)

    # the w^2 term makes the optimal w unique, but J(w*, .) can be flat
    # over an interval of r; settle on that interval's midpoint
    breaks = labels - best_w * values
    objs = np.array([svm_1d_objective(values, labels, lam, best_w, r)
                     for r in breaks])
    floor = objs.min()
    flat = breaks[objs <= floor + 1e-12 * (1.0 + abs(floor))]
    return best_w, float((flat.min() + flat.max()) / 2.0)


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


def discriminate(d: Discriminator, value) -> int | np.ndarray:
    """Assign -1 or +1 to a projected value (or an array of them)."""
    if d.kind != "one_nn":
        # dist and one_sv label by the sign of their score; a tie is +1
        out = np.where(discriminator_score(d, value) < 0, -1, 1)
        return int(out) if out.ndim == 0 else out
    arr = _check_query(value)
    flat = np.atleast_1d(arr)
    # argmin returns the first minimum, i.e. the lower stored index
    out = d.labels[np.argmin(np.abs(flat[:, None] - d.values[None, :]),
                             axis=1)]
    return int(out[0]) if arr.ndim == 0 else out


def discriminator_score(d: Discriminator, value) -> float | np.ndarray:
    """A continuous stand-in for the hard label, positive toward +1."""
    arr = _check_query(value)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if d.kind == "dist":
        out = flat - d.threshold
    elif d.kind == "one_nn":
        gaps = np.abs(flat[:, None] - d.values[None, :])
        to_neg = np.min(gaps[:, d.labels == -1], axis=1)
        to_pos = np.min(gaps[:, d.labels == 1], axis=1)
        out = to_neg - to_pos
    else:
        out = d.weight * (d.scale * flat) + d.intercept
    return float(out[0]) if scalar else out
