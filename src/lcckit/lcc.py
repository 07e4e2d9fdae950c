"""Centralization classifiers: project to one dimension, separate by centers.

The linear variant (train_lcc) finds a projection beta in [-1, 1]^n that
pushes the two projected class centers apart while penalizing instances
that land on the wrong side of the midpoint threshold.  That search is a
linear program:

    minimize    (C_neg - C_pos) . beta  +  lam * sum_i eps_i
    subject to  y_i * (l - x_i) . beta  -  eps_i  <=  0      for every i
                (C_neg - C_pos) . beta  <=  sigma
                beta in [-1, 1]^n,  eps_i >= sigma

with l = (C_neg + C_pos) / 2 and sigma < 0.  eps_i above sigma flags an
instance inside the margin; eps_i above zero flags a misclassified one.
The program is feasible exactly when |sigma| is at most the L1 gap
||C_pos - C_neg||_1; kernel.train_klcc solves it over Gram rows.  Every
model labels and scores a row from one projection, in decide(X).

The quadratic variant (train_fqcc) scores sides by absolute distance to
each projected center instead of by the midpoint, which makes the problem
non-linear; it is minimized by projected subgradient descent with random
restarts.  Its per-instance slack has a closed form, so no explicit eps
variables are needed, and each step takes the criterion's value and a
subgradient from one projection of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _frozen, require_both_classes
from .lp import LpProblem, LpSolution, solve

DEFAULT_LAMBDA = 2.0
DEFAULT_SIGMA = -0.01
FQCC_RESTARTS = 8
FQCC_ITERATIONS = 300


class TrainingError(RuntimeError):
    """Training could not produce a model for the given data/parameters."""


class ParameterError(TrainingError):
    """A hyperparameter lies outside its valid range."""


def class_centers(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Mean feature vector per class: (center of -1, center of +1)."""
    require_both_classes(data, "class_centers")
    return (_frozen(data.features_of(-1).mean(axis=0)),
            _frozen(data.features_of(1).mean(axis=0)))


def _check_params(lam: float, sigma: float) -> None:
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    if not sigma < 0:
        raise ParameterError(f"sigma must be negative, got {sigma}")


def _centralization_lp(coords_of, train: Dataset, lam: float, sigma: float):
    """(problem, center_neg, center_pos): the separation LP over the m
    rows of coords_of(train.features) (features for lcc, Gram rows for
    klcc), with m instance rows, one center-gap row and variables (k
    coefficients, m slacks), and the class means of those rows; lam,
    sigma and both classes are checked before coords_of runs."""
    _check_params(lam, sigma)
    require_both_classes(train, "the centralization program")
    coords = coords_of(train.features)
    labels = train.labels
    center_neg = coords[labels == -1].mean(axis=0)
    center_pos = coords[labels == 1].mean(axis=0)
    m, k = coords.shape
    c = np.concatenate([center_neg - center_pos, np.full(m, lam)])
    A = np.zeros((m + 1, k + m))
    # y_i (l - x_i) . beta - eps_i <= 0
    A[:m, :k] = labels[:, None] * ((center_neg + center_pos) / 2.0 - coords)
    A[:m, k:] = -np.eye(m)
    # projected center of -1 must sit at least |sigma| below that of +1
    A[m, :k] = center_neg - center_pos
    b = np.concatenate([np.zeros(m), [sigma]])
    lower = np.concatenate([np.full(k, -1.0), np.full(m, sigma)])
    upper = np.concatenate([np.full(k, 1.0), np.full(m, np.inf)])
    return (LpProblem(c, A, ("<=",) * (m + 1), b, lower, upper),
            center_neg, center_pos)


def assemble_lcc_lp(train: Dataset, lam: float, sigma: float) -> LpProblem:
    """Build the separation LP: m instance rows plus one center-gap row.

    Variables are (beta_1..beta_n, eps_1..eps_m), so the program has
    exactly m + 1 rows and m + n columns.
    """
    return _centralization_lp(np.asarray, train, lam, sigma)[0]


class Classifier:
    """decide(X) gives a model's labels in {-1, +1} and scores (positive
    toward +1) from one projection; score and predict are its halves."""

    def score(self, X) -> np.ndarray:
        return self.decide(X)[1]

    def predict(self, X) -> np.ndarray:
        return self.decide(X)[0]


class Centralizer(Classifier):
    """lcc and klcc: a row scores its projection minus the midpoint l_hat
    of the projected class centers; a score of 0 or NaN labels +1."""

    def decide(self, X) -> tuple[np.ndarray, np.ndarray]:
        scores = self.transform(X) - self.l_hat
        return np.where(scores < 0, -1, 1), scores

    @property
    def objective(self) -> float:
        """Value of the trained program at its solution."""
        return self.c_neg_hat - self.c_pos_hat + self.lam * self.epsilons.sum()


@dataclass(frozen=True)
class LccModel(Centralizer):
    """A trained linear centralization classifier."""

    beta: np.ndarray
    c_neg_hat: float
    c_pos_hat: float
    l_hat: float
    lam: float
    sigma: float
    epsilons: np.ndarray

    FIELDS = (("beta", "floats"), ("c_neg_hat", "float"),
              ("c_pos_hat", "float"), ("l_hat", "float"), ("lam", "float"),
              ("sigma", "float"), ("epsilons", "floats"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _frozen(self.beta, np.float64))
        object.__setattr__(self, "epsilons",
                           _frozen(self.epsilons, np.float64))

    @property
    def n_features(self) -> int:
        return self.beta.size

    def transform(self, X) -> np.ndarray:
        """Project each row through beta."""
        return np.asarray(X, dtype=np.float64) @ self.beta


def _projected_centers(beta: np.ndarray, center_neg: np.ndarray,
                       center_pos: np.ndarray):
    """(c_neg_hat, c_pos_hat, l_hat): the class centers projected through
    beta, and their midpoint."""
    c_neg_hat = float(center_neg @ beta)
    c_pos_hat = float(center_pos @ beta)
    return c_neg_hat, c_pos_hat, (c_neg_hat + c_pos_hat) / 2.0


def model_from_beta(train: Dataset, beta: np.ndarray, lam: float,
                    sigma: float) -> LccModel:
    """The model a fixed projection implies: centers, threshold, slacks."""
    _check_params(lam, sigma)
    beta = np.asarray(beta, dtype=np.float64)
    c_neg_hat, c_pos_hat, l_hat = _projected_centers(beta,
                                                     *class_centers(train))
    projected = train.features @ beta
    epsilons = np.maximum(sigma, train.labels * (l_hat - projected))
    return LccModel(beta, c_neg_hat, c_pos_hat, l_hat, float(lam),
                    float(sigma), epsilons)


def _fitted(solution: LpSolution, k: int, center_neg: np.ndarray,
            center_pos: np.ndarray, sigma: float):
    """(coefficients, c_neg_hat, c_pos_hat, l_hat, slacks) of a solved
    centralization program with k coefficients and the given centers."""
    if solution.status == "infeasible":
        gap = float(np.abs(center_pos - center_neg).sum())
        raise TrainingError(
            f"no projection can separate the class centers by |sigma|="
            f"{-sigma:g}: classes have (near-)identical centers or |sigma| "
            f"exceeds the center gap bound (L1 gap {gap:g} < {-sigma:g})")
    if solution.status != "optimal":
        raise TrainingError(f"unexpected solver status {solution.status!r}")
    coefficients = solution.x[:k]
    return (coefficients,
            *_projected_centers(coefficients, center_neg, center_pos),
            solution.x[k:])


def train_lcc(train: Dataset, lam: float = DEFAULT_LAMBDA,
              sigma: float = DEFAULT_SIGMA) -> LccModel:
    """Fit the linear centralization classifier by solving its LP.

    The slacks are the solver's own: recomputed from beta, as
    model_from_beta does, they can differ in the last bit.
    """
    problem, *centers = _centralization_lp(np.asarray, train, lam, sigma)
    beta, *projected, epsilons = _fitted(solve(problem), train.n, *centers,
                                         sigma)
    return LccModel(beta, *projected, float(lam), float(sigma), epsilons)


@dataclass(frozen=True)
class FqccModel(Classifier):
    """A trained quadratic-criterion centralization classifier."""

    beta: np.ndarray
    c_neg_hat: float
    c_pos_hat: float
    lam: float
    sigma: float
    objective: float

    FIELDS = (("beta", "floats"), ("c_neg_hat", "float"),
              ("c_pos_hat", "float"), ("lam", "float"), ("sigma", "float"),
              ("objective", "float"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _frozen(self.beta, np.float64))

    @property
    def n_features(self) -> int:
        return self.beta.size

    def decide(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Scores are positive nearer the +1 center; 0 labels -1, NaN +1."""
        projected = np.asarray(X, dtype=np.float64) @ self.beta
        scores = (np.abs(projected - self.c_neg_hat)
                  - np.abs(projected - self.c_pos_hat))
        return np.where(scores <= 0, -1, 1), scores


def fqcc_epsilons(projected: np.ndarray, labels: np.ndarray,
                  c_neg_hat: float, c_pos_hat: float,
                  sigma: float) -> np.ndarray:
    """Closed-form per-instance slack of the distance-based criterion,
    from each row's projected value."""
    violation = labels * (np.abs(projected - c_pos_hat)
                          - np.abs(projected - c_neg_hat))
    return np.maximum(sigma, violation)


def _fqcc_step(train: Dataset, beta: np.ndarray, center_neg: np.ndarray,
               center_pos: np.ndarray, lam: float, sigma: float):
    """(value, subgradient) of the distance-based criterion at beta."""
    projected = train.features @ beta
    c_neg_hat, c_pos_hat, _ = _projected_centers(beta, center_neg, center_pos)
    eps = fqcc_epsilons(projected, train.labels, c_neg_hat, c_pos_hat, sigma)
    value = float(-abs(c_neg_hat - c_pos_hat) + lam * eps.sum())
    grad = -np.sign(c_neg_hat - c_pos_hat) * (center_neg - center_pos)
    active = eps > sigma
    if np.any(active):
        signs_pos = np.sign(projected[active] - c_pos_hat)
        signs_neg = np.sign(projected[active] - c_neg_hat)
        rows = train.labels[active, None] * (
            signs_pos[:, None] * (train.features[active] - center_pos)
            - signs_neg[:, None] * (train.features[active] - center_neg))
        grad = grad + lam * rows.sum(axis=0)
    return value, grad


def fqcc_objective(train: Dataset, beta: np.ndarray, lam: float,
                   sigma: float) -> float:
    """The distance-based criterion at beta."""
    return _fqcc_step(train, beta, *class_centers(train), lam, sigma)[0]


def train_fqcc(train: Dataset, lam: float = DEFAULT_LAMBDA,
               sigma: float = DEFAULT_SIGMA, seed: int = 0) -> FqccModel:
    """Fit the distance-based variant by multi-start projected subgradient.

    FQCC_RESTARTS starts of FQCC_ITERATIONS steps each: the first start is
    the clipped center difference, the rest are seeded uniform draws from
    the box.  The best iterate ever visited is returned.
    """
    _check_params(lam, sigma)
    require_both_classes(train, "train_fqcc")
    center_neg, center_pos = class_centers(train)
    rng = np.random.default_rng(seed)
    starts = [np.clip(center_pos - center_neg, -1.0, 1.0)]
    starts += [rng.uniform(-1.0, 1.0, train.n)
               for _ in range(FQCC_RESTARTS - 1)]

    best_beta, best_value = None, np.inf
    for beta in starts:
        for t in range(FQCC_ITERATIONS + 1):
            value, grad = _fqcc_step(train, beta, center_neg, center_pos,
                                     lam, sigma)
            if value < best_value:
                best_value, best_beta = value, beta
            norm = float(np.linalg.norm(grad))
            if t == FQCC_ITERATIONS or norm < 1e-15:
                break
            step = 0.5 / (norm * np.sqrt(t + 1.0))
            beta = np.clip(beta - step * grad, -1.0, 1.0)

    c_neg_hat, c_pos_hat, _ = _projected_centers(best_beta, center_neg,
                                                 center_pos)
    return FqccModel(best_beta, c_neg_hat, c_pos_hat, float(lam),
                     float(sigma), best_value)
