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
non-linear; it is minimized by projected subgradient descent from random
restarts, stepped together as one batch.  Its per-instance slack has a
closed form, so no explicit eps variables are needed, and each step takes
every restart's value and subgradient from one projection of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _freeze, _frozen, require_both_classes
from .lp import LpProblem, solve

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
    if not 0.0 < lam < np.inf:
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    if not -np.inf < sigma < 0.0:
        raise ParameterError(f"sigma must be negative and finite, got {sigma}")


def _centralization_lp(coords_of, train: Dataset, lam: float, sigma: float):
    """(at, center_neg, center_pos): at(sigma) is the separation LP over
    the m rows of coords_of(train.features) (features for lcc, Gram rows
    for klcc), and the centers are their class means.  Every at(sigma)
    shares one matrix, written once and read-only, which data._frozen
    keeps.  lam, sigma and both classes are checked before coords_of runs."""
    _check_params(lam, sigma)
    require_both_classes(train, "the centralization program")
    coords = coords_of(train.features)
    labels = train.labels
    center_neg, center_pos = (coords[labels == y].mean(0) for y in (-1, 1))
    m, k = coords.shape
    c = np.concatenate([center_neg - center_pos, np.full(m, lam)])
    A = np.zeros((m + 1, k + m))
    # y_i (l - x_i) . beta - eps_i <= 0
    np.subtract((center_neg + center_pos) / 2.0, coords, out=A[:m, :k])
    A[:m, :k] *= labels[:, None]
    np.fill_diagonal(A[:m, k:], -1.0)
    # projected center of -1 must sit at least |sigma| below that of +1
    A[m, :k] = center_neg - center_pos
    A.setflags(write=False)
    b, lower = np.zeros(m + 1), np.full(k + m, -1.0)
    upper = np.concatenate([np.full(k, 1.0), np.full(m, np.inf)])
    def at(sigma: float) -> LpProblem:
        b[m] = lower[k:] = sigma
        return LpProblem(c, A, ("<=",) * (m + 1), b, lower, upper)
    return at, center_neg, center_pos


def assemble_lcc_lp(train: Dataset, lam: float, sigma: float) -> LpProblem:
    """Build the separation LP: m instance rows plus one center-gap row.

    Variables are (beta_1..beta_n, eps_1..eps_m), so the program has
    exactly m + 1 rows and m + n columns.
    """
    return _centralization_lp(np.asarray, train, lam, sigma)[0](sigma)


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
        _freeze(self, np.float64, "beta", "epsilons")

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


def _centralization_path(coords_of, train: Dataset, lam: float, solver,
                         model):
    """fit(sigma) -> model(coefficients, c_neg_hat, c_pos_hat, l_hat, lam,
    sigma, slacks) on coords_of(train.features), whose LP is built on the
    first fit; a sigma past its L1 gap is refused unsolved.  Each solve, by
    the caller's lp.solve, starts from the last optimal basis, which stays
    dual feasible for the dual simplex as sigma moves only b and bounds."""
    program = start = None

    def fit(sigma: float):
        nonlocal program, start
        _check_params(lam, sigma)
        at, center_neg, center_pos = program = program or _centralization_lp(
            coords_of, train, lam, sigma)
        gap = float(np.abs(center_pos - center_neg).sum())
        if -sigma > gap:
            raise TrainingError(
                f"no projection can separate the class centers by |sigma|="
                f"{-sigma:g}: classes have (near-)identical centers or "
                f"|sigma| exceeds the center gap bound (L1 gap {gap:.17g} < "
                f"{-sigma:.17g})")
        solution = solver(at(sigma), start)
        if solution.status != "optimal":
            raise TrainingError(
                f"unexpected solver status {solution.status!r}")
        start, k = solution, center_neg.size
        coefficients = solution.x[:k]
        return model(coefficients, *_projected_centers(
            coefficients, center_neg, center_pos), float(lam), float(sigma),
            solution.x[k:])
    return fit


def lcc_path(train: Dataset, lam: float = DEFAULT_LAMBDA):
    """fit(sigma) -> LccModel on train, warm-started as
    _centralization_path says."""
    return _centralization_path(np.asarray, train, lam, solve, LccModel)


def train_lcc(train: Dataset, lam: float = DEFAULT_LAMBDA,
              sigma: float = DEFAULT_SIGMA) -> LccModel:
    """Fit the linear centralization classifier by solving its LP.

    The slacks are the solver's own: recomputed from beta, as
    model_from_beta does, they can differ in the last bit.
    """
    return lcc_path(train, lam)(sigma)


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
        _freeze(self, np.float64, "beta")

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
    from projected values; (R, m) values take (R, 1) centers."""
    violation = labels * (np.abs(projected - c_pos_hat)
                          - np.abs(projected - c_neg_hat))
    return np.maximum(sigma, violation)


def _fqcc_frame(train: Dataset) -> tuple:
    """The class centers, then the rows less each: what every step reuses."""
    centers = class_centers(train)
    return (*centers, *(train.features - center for center in centers))


def _fqcc_step(train: Dataset, B: np.ndarray, frame: tuple, lam: float,
               sigma: float):
    """(values, subgradients) of the distance-based criterion at each row
    of the (R, n) batch B: R values and an (R, n) array."""
    center_neg, center_pos, from_neg, from_pos = frame
    projected = B @ train.features.T
    c_neg_hat, c_pos_hat = B @ center_neg, B @ center_pos
    eps = fqcc_epsilons(projected, train.labels, c_neg_hat[:, None],
                        c_pos_hat[:, None], sigma)
    values = -np.abs(c_neg_hat - c_pos_hat) + lam * eps.sum(axis=1)
    weights = train.labels * (eps > sigma)
    to_pos = weights * np.sign(projected - c_pos_hat[:, None])
    to_neg = weights * np.sign(projected - c_neg_hat[:, None])
    grads = (np.outer(np.sign(c_pos_hat - c_neg_hat), center_neg - center_pos)
             + lam * (to_pos @ from_pos - to_neg @ from_neg))
    return values, grads


def fqcc_objective(train: Dataset, beta: np.ndarray, lam: float,
                   sigma: float) -> float:
    """The distance-based criterion at beta."""
    return float(_fqcc_step(train, np.atleast_2d(beta), _fqcc_frame(train),
                            lam, sigma)[0][0])


def train_fqcc(train: Dataset, lam: float = DEFAULT_LAMBDA,
               sigma: float = DEFAULT_SIGMA, seed: int = 0) -> FqccModel:
    """Fit the distance-based variant by multi-start projected subgradient.

    FQCC_RESTARTS starts of FQCC_ITERATIONS steps each, stepped as one
    batch: the first start is the clipped center difference, the rest are
    seeded uniform draws from the box.  A restart stops once its
    subgradient norm is below 1e-15.  The best iterate ever visited is
    returned; of equal values the lowest start wins, then the earliest step.
    """
    _check_params(lam, sigma)
    require_both_classes(train, "train_fqcc")
    center_neg, center_pos, *_ = frame = _fqcc_frame(train)
    B = np.vstack([np.clip(center_pos - center_neg, -1.0, 1.0),
                   np.random.default_rng(seed).uniform(
                       -1.0, 1.0, (FQCC_RESTARTS - 1, train.n))])
    best_B, best_values = B.copy(), np.full(FQCC_RESTARTS, np.inf)
    running = np.ones(FQCC_RESTARTS, dtype=bool)
    for t in range(FQCC_ITERATIONS + 1):
        values, grads = _fqcc_step(train, B, frame, lam, sigma)
        better = running & (values < best_values)
        best_values[better], best_B[better] = values[better], B[better]
        norms = np.sqrt(np.sum(grads * grads, axis=1))
        running &= norms >= 1e-15
        if t == FQCC_ITERATIONS or not running.any():
            break
        steps = np.divide(0.5, norms * np.sqrt(t + 1.0),
                          out=np.zeros(FQCC_RESTARTS), where=running)
        B = np.minimum(np.maximum(B - steps[:, None] * grads, -1.0), 1.0)
    best = int(np.argmin(best_values))
    c_neg_hat, c_pos_hat, _ = _projected_centers(best_B[best], *frame[:2])
    return FqccModel(best_B[best], c_neg_hat, c_pos_hat, float(lam),
                     float(sigma), float(best_values[best]))
