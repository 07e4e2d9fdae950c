"""Reference classifiers used in the benchmark comparisons: a regularized
linear discriminant and a linear soft-margin SVM trained by stochastic
subgradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _frozen, require_both_classes
from .discriminators import _sweep_min
from .lcc import TrainingError

DEFAULT_LDA_REG = 0.5
DEFAULT_SVM_LAMBDA = 1.0
DEFAULT_SVM_EPOCHS = 80
POLISH_ROUNDS = 5


@dataclass(frozen=True)
class LdaModel:
    """Linear discriminant: label +1 when x . w > k, so a tie is -1."""

    weight: np.ndarray
    k: float
    lambda_reg: float

    FIELDS = (("weight", "floats"), ("k", "float"), ("lambda_reg", "float"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", _frozen(self.weight, np.float64))
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.k):
            raise TrainingError("discriminant parameters are not finite")

    @property
    def n_features(self) -> int:
        return self.weight.size

    def score(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weight - self.k

    def predict(self, X) -> np.ndarray:
        return np.where(self.score(X) > 0, 1, -1)


@dataclass(frozen=True)
class SvmModel:
    """Linear soft-margin separator: label sign(x . weight + intercept),
    with a tie labeled +1."""

    weight: np.ndarray
    intercept: float
    lam: float

    FIELDS = (("weight", "floats"), ("intercept", "float"), ("lam", "float"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", _frozen(self.weight, np.float64))
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.intercept):
            raise TrainingError("separator parameters are not finite")

    @property
    def n_features(self) -> int:
        return self.weight.size

    def score(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weight + self.intercept

    def predict(self, X) -> np.ndarray:
        return np.where(self.score(X) < 0, -1, 1)


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
        raise TrainingError(f"lambda_reg must lie in [0, 1], got {lambda_reg}")
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


def hinge_objective(train: Dataset, lam: float, weight: np.ndarray,
                    intercept: float) -> float:
    margins = 1.0 - train.labels * (train.features @ weight + intercept)
    return float(lam * weight @ weight
                 + np.maximum(margins, 0.0).mean())


def _polish(train: Dataset, lam: float, w: np.ndarray,
            r: float) -> tuple[np.ndarray, float]:
    """Alternating exact rescale of w and exact intercept refit.

    Both subproblems are one-dimensional hinge sums, minimized by the
    same breakpoint sweep the 1-D SVM uses.  Never increases the
    objective, so best-so-far tracking stays monotone.
    """
    m = float(train.m)
    labels = train.labels.astype(np.float64)
    for _ in range(POLISH_ROUNDS):
        proj = train.features @ w
        quad = lam * float(w @ w)
        if quad <= 0.0:
            break
        scale_c, _, _ = _sweep_min(quad, 1.0 - labels * r, -labels * proj, m)
        w = w * scale_c
        proj = proj * scale_c
        r, _, _ = _sweep_min(0.0, 1.0 - labels * proj, -labels, m)
    # the hinge sum is flat in r over an interval at the optimum; take its
    # midpoint so separable data gets a boundary clear of the instances
    return w, _sweep_min(0.0, 1.0 - labels * (train.features @ w), -labels,
                         m)[2]


def train_linear_svm(train: Dataset, lam: float = DEFAULT_SVM_LAMBDA,
                     epochs: int = DEFAULT_SVM_EPOCHS,
                     seed: int = 0) -> SvmModel:
    """Stochastic subgradient descent on the averaged hinge objective.

    One pass over a fresh shuffle per epoch with step 1 / (2 lam t).
    The iterates of each epoch are averaged, polished by exact rescale
    and intercept steps, and the best-scoring candidate is kept, so
    adding epochs can only improve (or retain) the returned objective
    for a fixed seed.
    """
    require_both_classes(train, "train_linear_svm")
    if not lam > 0:
        raise TrainingError(f"lam must be positive, got {lam}")
    if epochs < 1:
        raise TrainingError("epochs must be at least 1")
    rng = np.random.default_rng(seed)
    m, n = train.m, train.n
    w = np.zeros(n)
    r = 0.0
    best = (np.inf, w, r)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(m)
        w_sum = np.zeros(n)
        r_sum = 0.0
        for i in order:
            t += 1
            step = 1.0 / (2.0 * lam * t)
            x = train.features[i]
            y = train.labels[i]
            if y * (x @ w + r) < 1.0:
                w = w - step * (2.0 * lam * w - y * x)
                r = r + step * y
            else:
                w = w - step * 2.0 * lam * w
            w_sum += w
            r_sum += r
        w_cand, r_cand = _polish(train, lam, w_sum / m, r_sum / m)
        value = hinge_objective(train, lam, w_cand, r_cand)
        if value < best[0]:
            best = (value, w_cand, r_cand)
    return SvmModel(best[1], best[2], float(lam))
