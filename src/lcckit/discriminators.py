"""Label assignment on 1-D projected values.

Three interchangeable rules: "dist" thresholds at the projected midpoint,
"one_nn" copies the label of the nearest stored training value, and
"one_sv" fits a one-dimensional soft-margin SVM on values rescaled so the
projected center gap is DEFAULT_H.  A rule sets exactly its kind's
FIELDS; one dispatch on the kind, _decide, gives its labels and scores
in the query's shape.

The 1-D SVM minimizes

    J(w, r) = lam * w^2 + (1/m) * sum_i max(0, 1 - y_i (w v_i + r)),

which is the linear SVM baseline's objective at one feature, so
solve_svm_1d hands the values to baselines.train_linear_svm as an
(m, 1) column.  SMO's answer names the optimum's margin set, from which
w* is closed-form (two margin values fix the line; otherwise the
violators' stationary point), and the intercept is the midpoint of the
interval over which J(w*, .) is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .baselines import _sweep_min, hinge_objective, train_linear_svm
from .data import Dataset, _freeze
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
        wanted = sorted(name for name, _ in FIELDS[self.kind])
        if wanted != sorted(f.name for f in fields(self)[1:]
                            if getattr(self, f.name) is not None):
            raise DiscriminatorError(f"{self.kind} sets exactly the fields "
                                     + ", ".join(wanted))
        if self.kind == "one_nn":
            _freeze(self, np.float64, "values")
            _freeze(self, np.int64, "labels")
            if (self.values.shape != self.labels.shape
                    or np.any(np.diff(self.values) < 0)
                    or set(self.labels.tolist()) != {-1, 1}):
                raise DiscriminatorError("one_nn needs ascending values, one "
                                         "label per value, and both labels "
                                         "-1 and +1")


def solve_svm_1d(values, labels, lam: float = 1.0) -> tuple[float, float]:
    """Exact minimizer (w, r) of the 1-D soft-margin SVM objective J;
    constant values give (0, majority label)."""
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
    if np.all(values == values[0]):
        # every threshold is equivalent; predict the majority class
        majority = 1.0 if np.sum(labels == 1) >= np.sum(labels == -1) else -1.0
        return 0.0, majority
    train = Dataset(values[:, None], labels)
    model = train_linear_svm(train, lam)
    # SMO's running update leaves a few ulps in w; at one feature the
    # optimum is closed-form once its margin set is known, so solve that
    # set exactly and keep whichever answer scores lower
    slack = labels * (model.weight[0] * values + model.intercept) - 1.0
    edge = np.abs(slack) <= 1e-8
    pos, neg = values[edge & (labels > 0)], values[edge & (labels < 0)]
    if np.unique(values[edge]).size >= 2:
        # two margin values fix the line; w = 0 when they share a label
        w = 2.0 / (pos[0] - neg[0]) if pos.size and neg.size else 0.0
    else:
        # stationary: the violators' pull about the one margin value
        pivot = values[edge][0] if edge.any() else 0.0
        w = float(np.sum((labels * (values - pivot))[slack < -1e-8])
                  / (2.0 * lam * values.size))
    r = _sweep_min(1.0 - labels * w * values, -labels, float(values.size))[2]
    if (hinge_objective(train, lam, np.array([w]), r)
            <= hinge_objective(train, lam, model.weight, model.intercept)):
        return w, r
    return float(model.weight[0]), model.intercept


def fit_discriminator(kind: str, values, labels,
                      model: LccModel) -> Discriminator:
    """Fit one labeling rule on projected training values.

    dist needs only the model's midpoint threshold.  one_nn memorizes the
    (value, label) pairs sorted by value.  one_sv rescales values by
    s = DEFAULT_H / (projected center gap) and solves the 1-D SVM at
    lam=1 with solve_svm_1d.
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
        scale = DEFAULT_H / gap
        w, r = solve_svm_1d(scale * values, labels, 1.0)
        return Discriminator("one_sv", scale=float(scale), weight=float(w),
                             intercept=float(r), h=float(DEFAULT_H))
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


def _decide(d: Discriminator, value) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) in the query's shape; the one dispatch on the
    kind that discriminate and discriminator_score share."""
    arr = _check_query(value)
    if d.kind == "one_nn":
        return (d.labels[_nearest(d.values, arr)[0]],
                _nearest(d.values[d.labels == -1], arr)[1]
                - _nearest(d.values[d.labels == 1], arr)[1])
    scores = (arr - d.threshold if d.kind == "dist"
              else d.weight * (d.scale * arr) + d.intercept)
    # dist and one_sv label by the sign of their score; a tie is +1
    return np.where(scores < 0, -1, 1), scores


def discriminate(d: Discriminator, value) -> np.ndarray:
    """-1 or +1 for each projected value, in the query's shape."""
    return _decide(d, value)[0]


def discriminator_score(d: Discriminator, value) -> np.ndarray:
    """A continuous stand-in for the hard label, positive toward +1."""
    return _decide(d, value)[1]
