"""Kernelized centralization training.

The projection is expressed through per-instance coefficients,
beta = sum_i alpha_i x_i, so every quantity the linear program needs is a
kernel evaluation: the projected value of instance j is (K alpha)_j and a
projected class center is the mean of the class's Gram rows dotted with
alpha.  The resulting program is the linear classifier's with Gram rows
in place of feature rows: m + 1 rows and 2m variables (alpha in [-1, 1]^m
plus one slack per instance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PREDICT_BLOCK, Dataset, _freeze
from .lcc import (DEFAULT_LAMBDA, DEFAULT_SIGMA, Centralizer, ParameterError,
                  TrainingError, _centralization_lp, _centralization_path)
from .lp import LpProblem, solve

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: plain dot product or Gaussian with a width."""

    kind: str
    rbf_width: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.rbf_width is None or not 0.0 < self.rbf_width < np.inf:
                raise ParameterError("rbf_width must be positive and finite")


def kernel_eval(spec: KernelSpec, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Kernel values between two stacks of rows: result is (len x, len z)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if x.shape[1] != z.shape[1]:
        raise TrainingError("kernel arguments must share their width")
    if spec.kind == "linear":
        return x @ z.T
    return np.exp(-_sq_distances(x, z) / (2.0 * spec.rbf_width ** 2))


def _sq_distances(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of x to every row of z."""
    sq = (np.sum(x * x, axis=1)[:, None] + np.sum(z * z, axis=1)[None, :]
          - 2.0 * (x @ z.T))
    return np.maximum(sq, 0.0, out=sq)


def gram(spec: KernelSpec, features: np.ndarray) -> np.ndarray:
    return kernel_eval(spec, features, features)


def median_pairwise_distance(features: np.ndarray) -> float:
    """Median Euclidean distance over all row pairs; the usual width pick."""
    features = np.asarray(features, dtype=np.float64)
    m = features.shape[0]
    if m < 2:
        raise TrainingError("need at least two rows for a pairwise median")
    upper = np.sqrt(_sq_distances(features, features)[np.triu_indices(m, k=1)])
    width = float(np.median(upper))
    if width <= 0:
        raise TrainingError("median pairwise distance is zero; "
                            "the rows are (almost) all identical")
    return width


@dataclass(frozen=True)
class KernelLccModel(Centralizer):
    """Centralization classifier in a kernel feature space.

    kernel and rbf_width are the fields of its KernelSpec, kept flat so
    that every field is one record of the model file.
    """

    kernel: str
    rbf_width: float | None
    alphas: np.ndarray
    train_features: np.ndarray
    c_neg_hat: float
    c_pos_hat: float
    l_hat: float
    lam: float
    sigma: float
    epsilons: np.ndarray

    FIELDS = (("kernel", "word"), ("rbf_width", "float?"),
              ("alphas", "floats"), ("train_features", "matrix"),
              ("c_neg_hat", "float"), ("c_pos_hat", "float"),
              ("l_hat", "float"), ("lam", "float"), ("sigma", "float"),
              ("epsilons", "floats"))

    def __post_init__(self) -> None:
        KernelSpec(self.kernel, self.rbf_width)  # validates both
        _freeze(self, np.float64, "alphas", "train_features", "epsilons")
        if self.train_features.ndim != 2 or \
                self.alphas.shape != self.train_features.shape[:1]:
            raise TrainingError("need one alpha per stored training row")

    @property
    def spec(self) -> KernelSpec:
        return KernelSpec(self.kernel, self.rbf_width)

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]

    def transform(self, X) -> np.ndarray:
        """Projected value of each row, from kernel values of PREDICT_BLOCK
        rows at a time, so that memory stays flat in the number of rows."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.concatenate([
            kernel_eval(self.spec, X[start:start + PREDICT_BLOCK],
                        self.train_features) @ self.alphas
            for start in range(0, X.shape[0] or 1, PREDICT_BLOCK)])


def assemble_klcc_lp(train: Dataset, spec: KernelSpec, lam: float,
                     sigma: float) -> LpProblem:
    """The linear program over Gram rows instead of features: exactly
    m + 1 rows and 2m variables."""
    return _centralization_lp(lambda f: gram(spec, f), train, lam,
                              sigma)[0](sigma)


def klcc_path(train: Dataset, spec: KernelSpec,
              lam: float = DEFAULT_LAMBDA):
    """fit(sigma) -> KernelLccModel on train, from one Gram matrix, as
    lcc._centralization_path warm-starts it."""
    return _centralization_path(
        lambda f: gram(spec, f), train, lam, solve,
        lambda alphas, *rest: KernelLccModel(spec.kind, spec.rbf_width,
                                             alphas, train.features, *rest))


def train_klcc(train: Dataset, spec: KernelSpec,
               lam: float = DEFAULT_LAMBDA,
               sigma: float = DEFAULT_SIGMA) -> KernelLccModel:
    """Fit the kernel classifier by solving its linear program."""
    return klcc_path(train, spec, lam)(sigma)
