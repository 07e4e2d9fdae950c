"""Reference classifiers used in the benchmark comparisons: a regularized
linear discriminant and a linear soft-margin SVM solved exactly by
sequential minimal optimization; both are deterministic and take no seed.
The SVM also fits the discriminators' 1sv rule, at one feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _freeze, require_both_classes
from .lcc import Classifier, ParameterError, TrainingError

DEFAULT_LDA_REG = 0.5
DEFAULT_SVM_LAMBDA = 1.0
SMO_TOLERANCE = 1e-9      # largest violating-pair gap accepted as optimal
SMO_STEPS_PER_ROW = 1000  # step cap per training row


@dataclass(frozen=True)
class LdaModel(Classifier):
    """Linear discriminant: label +1 when x . w > k; a tie or NaN is -1."""

    weight: np.ndarray
    k: float
    lambda_reg: float

    FIELDS = (("weight", "floats"), ("k", "float"), ("lambda_reg", "float"))

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "weight")
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.k):
            raise TrainingError("discriminant parameters are not finite")

    @property
    def n_features(self) -> int:
        return self.weight.size

    def decide(self, X) -> tuple[np.ndarray, np.ndarray]:
        scores = np.asarray(X, dtype=np.float64) @ self.weight - self.k
        return np.where(scores > 0, 1, -1), scores


@dataclass(frozen=True)
class SvmModel(Classifier):
    """Linear soft-margin separator: label sign(x . weight + intercept),
    with a tie or a NaN score labeled +1."""

    weight: np.ndarray
    intercept: float
    lam: float

    FIELDS = (("weight", "floats"), ("intercept", "float"), ("lam", "float"))

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "weight")
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.intercept):
            raise TrainingError("separator parameters are not finite")

    @property
    def n_features(self) -> int:
        return self.weight.size

    def decide(self, X) -> tuple[np.ndarray, np.ndarray]:
        scores = np.asarray(X, dtype=np.float64) @ self.weight + self.intercept
        return np.where(scores < 0, -1, 1), scores


def _class_stats(train: Dataset):
    neg = train.features_of(-1)
    pos = train.features_of(1)
    mu1 = neg.mean(axis=0)     # class -1
    mu2 = pos.mean(axis=0)     # class +1
    # population covariance; a single-instance class contributes zero spread
    sig1 = np.cov(neg, rowvar=False, bias=True).reshape(train.n, train.n)
    sig2 = np.cov(pos, rowvar=False, bias=True).reshape(train.n, train.n)
    return mu1, mu2, sig1, sig2


def _shrink(matrix: np.ndarray, lambda_reg: float) -> np.ndarray:
    n = matrix.shape[0]
    return lambda_reg * matrix + (1.0 - lambda_reg) * np.eye(n)


def train_lda(train: Dataset,
              lambda_reg: float = DEFAULT_LDA_REG) -> LdaModel:
    """Fisher's discriminant with shrinkage toward the identity.

    The pooled within-class spread S = Sigma_1 + Sigma_2 is replaced by
    lambda_reg * S + (1 - lambda_reg) * I before inversion, and the same
    shrinkage is applied to each per-class covariance inside the
    threshold term.  lambda_reg = 0 ignores the spread entirely (w is
    exactly the center difference); lambda_reg = 1 is the unregularized
    discriminant and fails on degenerate spread.
    """
    require_both_classes(train, "train_lda")
    if not 0.0 <= lambda_reg <= 1.0:
        raise ParameterError(
            f"lambda_reg must lie in [0, 1], got {lambda_reg}")
    mu1, mu2, sig1, sig2 = _class_stats(train)
    pooled = _shrink(sig1 + sig2, lambda_reg)
    try:
        weight = np.linalg.solve(pooled, mu2 - mu1)
        inv1 = np.linalg.inv(_shrink(sig1, lambda_reg))
        inv2 = np.linalg.inv(_shrink(sig2, lambda_reg))
    except np.linalg.LinAlgError:
        raise TrainingError(
            "regularized covariance is singular; use lambda_reg < 1 so the "
            "identity term keeps the system solvable") from None
    cond = np.linalg.cond(pooled)
    if not np.isfinite(cond) or cond > 1e12:
        raise TrainingError(
            "regularized covariance is numerically singular; use "
            "lambda_reg < 1 so the identity term keeps the system solvable")
    k = 0.5 * float(mu2 @ inv2 @ mu2) - 0.5 * float(mu1 @ inv1 @ mu1)
    return LdaModel(weight, k, float(lambda_reg))


def _tie_groups(sorted_values: np.ndarray) -> np.ndarray:
    """End index (exclusive) of each run of equal values."""
    return np.flatnonzero(np.append(sorted_values[1:] != sorted_values[:-1],
                                    True)) + 1


def _sweep_min(a: np.ndarray, b: np.ndarray,
               scale: float) -> tuple[float, float, float]:
    """Exact minimum of f(t) = sum_j max(0, a_j + b_j t) / scale.

    One pass of array operations: the breakpoints -a_j/b_j are sorted
    once, the active hinges' sums of a and b on every segment are one
    cumsum read at the tie-group ends, and f is evaluated at each
    distinct breakpoint with the sums of the segment to its left; of
    equal minima the leftmost wins.  f is piecewise linear and the
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
    ends = _tie_groups(ts)
    seg = np.concatenate([[0], ends[:-1]])   # each breakpoint's left segment
    seg_a = np.cumsum(np.concatenate([[float(aa[~rising].sum()) + const],
                                      np.where(rising, aa, -aa)]))[seg]
    seg_b = np.cumsum(np.concatenate([[float(bb[~rising].sum())],
                                      np.abs(bb)]))[seg]
    t = ts[seg]
    v = (seg_a + seg_b * t) / scale
    best = int(np.argmin(v))
    flat = t[v <= v[best] + 1e-12 * (1.0 + abs(v[best]))]
    # a breakpoint -0/b can be -0.0; adding 0.0 reports that zero as 0.0
    mid = (flat[0] + flat[-1]) / 2.0 + 0.0
    return float(t[best]), float(v[best]), float(mid)


def hinge_objective(train: Dataset, lam: float, weight: np.ndarray,
                    intercept: float) -> float:
    margins = 1.0 - train.labels * (train.features @ weight + intercept)
    return float(lam * weight @ weight
                 + np.maximum(margins, 0.0).mean())


def train_linear_svm(train: Dataset,
                     lam: float = DEFAULT_SVM_LAMBDA) -> SvmModel:
    """Exact minimizer of lam ||w||^2 + mean hinge loss, free intercept.

    Sequential minimal optimization (Platt 1998) on the dual: alpha_i in
    [0, 1/m], sum_i alpha_i y_i = 0, w = sum_i alpha_i y_i x_i / (2 lam).
    Each step takes the maximal violating pair (Keerthi et al. 2001) and
    moves it along y_i e_i - y_j e_j by the exact line minimizer, clipped
    to the box.  The loop stops once the pair's gap is at most
    SMO_TOLERANCE; after SMO_STEPS_PER_ROW * m steps it raises
    TrainingError.  Memory is O(m + n): the dual matrix is never formed.
    """
    require_both_classes(train, "train_linear_svm")
    if not 0.0 < lam < np.inf:
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    X, m = train.features, train.m
    y = train.labels.astype(np.float64)
    box = 1.0 / m
    alpha = np.zeros(m)
    w = np.zeros(train.n)
    for _ in range(SMO_STEPS_PER_ROW * m):
        score = y - X @ w    # -y_t times the dual gradient
        up = np.where(y > 0, alpha < box, alpha > 0.0)
        low = np.where(y > 0, alpha > 0.0, alpha < box)
        i = int(np.where(up, score, -np.inf).argmax())
        j = int(np.where(low, score, np.inf).argmin())
        gap = score[i] - score[j]
        if gap <= SMO_TOLERANCE:
            # the hinge sum is flat in r over an interval at the optimum;
            # its midpoint keeps a separable boundary clear of the instances
            r = _sweep_min(1.0 - y * (X @ w), -y, float(m))[2]
            return SvmModel(w, r, float(lam))
        diff = X[i] - X[j]
        moves = ((i, y[i]), (j, -y[j]))    # alpha_k moves by sign * step
        rooms = [box - alpha[k] if sign > 0 else alpha[k]
                 for k, sign in moves]
        # curvature floored like LIBSVM's tau, so duplicate rows step too
        step = min(gap / max(diff @ diff / (2.0 * lam), 1e-12), *rooms)
        for (k, sign), room in zip(moves, rooms):
            # a step that uses up the room lands exactly on the bound
            alpha[k] = (box if sign > 0 else 0.0) if step >= room \
                else alpha[k] + sign * step
        w = w + step * diff / (2.0 * lam)
    raise TrainingError(
        f"SMO did not converge within {SMO_STEPS_PER_ROW * m} steps")
