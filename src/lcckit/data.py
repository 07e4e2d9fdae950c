"""Dataset handling: CSV ingestion, z-score normalization, column pruning,
and deterministic synthetic generators.

Labels are always -1 / +1 internally.  Files using 0 / 1 are remapped on
ingestion.  All returned arrays are read-only so that datasets, once built,
cannot drift under the feet of a trained model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Variance at or below this is treated as "no signal" both when pruning
# columns and when refusing to fit a normalizer.  Keeping the two thresholds
# identical means every column the pruner keeps is normalizable.
VARIANCE_TOLERANCE = 1e-12

# Parameters of the bundled 2-D demonstration pair: class -1 is a spread
# cloud near (4, 5), class +1 sits near (-7, -1).  The raw matrices are not
# symmetric PSD; gen_gaussian_pair projects them (see _psd_factor).
DEMO_MEAN_NEG = (4.0, 5.0)
DEMO_COV_NEG = ((0.94, 0.34), (-0.34, 3.76))
DEMO_MEAN_POS = (-7.0, -1.0)
DEMO_COV_POS = ((-2.57, -0.77), (0.767, -0.64))

SHAPE_NAMES = ("circles", "spiral", "jain_like", "flame_like")


class DataError(ValueError):
    """Malformed input data or an impossible data request."""


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only copy of a, converted to dtype when one is given."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """An (m, n) float feature matrix plus m labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D array")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise DataError("labels must be 1-D with one entry per row")
        if feats.size and not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if labs.size and not np.all(np.isin(labs, (-1, 1))):
            raise DataError("labels must be -1 or +1")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labs))

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])

    def features_of(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]

    def class_counts(self) -> tuple[int, int]:
        """(count of -1, count of +1)."""
        return int(np.sum(self.labels == -1)), int(np.sum(self.labels == 1))


def require_both_classes(data: Dataset, context: str) -> None:
    neg, pos = data.class_counts()
    if neg == 0 or pos == 0:
        raise DataError(f"{context} needs instances of both classes "
                        f"(got {neg} of class -1, {pos} of class +1)")


def _parse_label(raw: float, line_no: int) -> float:
    if raw != int(raw):
        raise DataError(f"line {line_no}: label {raw!r} is not an integer")
    return raw


def load_csv(path: str, label_column: int = -1,
             has_header: bool = False) -> Dataset:
    """Read a delimited text file into a Dataset.

    label_column indexes the label field (negative indices count from the
    end).  Labels may be -1/+1 or 0/1; the latter pair is remapped so that
    0 becomes -1.  Any unparseable or non-finite cell raises DataError
    naming the offending line and column (both 1-based, counting the header
    line if present).
    """
    rows: list[list[float]] = []
    raw_labels: list[float] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, cells in enumerate(reader, start=1):
            if has_header and line_no == 1:
                continue
            if not cells or all(c.strip() == "" for c in cells):
                continue
            if width is None:
                width = len(cells)
                if width < 2:
                    raise DataError(
                        f"line {line_no}: need at least one feature column "
                        "and one label column")
                try:
                    label_idx = range(width).index(
                        range(width)[label_column])
                except IndexError:
                    raise DataError(
                        f"label column {label_column} out of range for "
                        f"{width} columns") from None
            elif len(cells) != width:
                raise DataError(
                    f"line {line_no}: expected {width} cells, got {len(cells)}")
            parsed = []
            for col_no, cell in enumerate(cells, start=1):
                text = cell.strip()
                if text == "":
                    raise DataError(
                        f"line {line_no}, column {col_no}: empty cell")
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"line {line_no}, column {col_no}: "
                        f"cannot parse {cell!r}") from None
                if not np.isfinite(value):
                    raise DataError(
                        f"line {line_no}, column {col_no}: "
                        f"non-finite value {cell!r}")
                parsed.append(value)
            raw_labels.append(_parse_label(parsed[label_idx], line_no))
            del parsed[label_idx]
            rows.append(parsed)
    if not rows:
        return Dataset(np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
    values = set(raw_labels)
    if values <= {-1.0, 1.0}:
        labels = [int(v) for v in raw_labels]
    elif values <= {0.0, 1.0}:
        labels = [-1 if v == 0.0 else 1 for v in raw_labels]
    else:
        raise DataError(
            f"labels must be -1/+1 or 0/1, found {sorted(values)}")
    return Dataset(np.array(rows, dtype=np.float64),
                   np.array(labels, dtype=np.int64))


@dataclass(frozen=True)
class Normalizer:
    """Per-column z-score parameters fitted on a training split."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", _frozen(self.means, np.float64))
        object.__setattr__(self, "stds", _frozen(self.stds, np.float64))
        if not np.all(self.stds > 0):
            raise DataError("normalizer standard deviations must be positive")


def fit_normalizer(train: Dataset) -> Normalizer:
    """Column means and standard deviations of the training features.

    A column whose variance is at or below VARIANCE_TOLERANCE cannot be
    z-scored; the error tells the caller to run drop_zero_variance first.
    """
    if train.m == 0:
        raise DataError("cannot fit a normalizer on an empty dataset")
    means = train.features.mean(axis=0)
    variances = train.features.var(axis=0)
    dead = np.nonzero(variances <= VARIANCE_TOLERANCE)[0]
    if dead.size:
        raise DataError(
            f"column(s) {dead.tolist()} have (near-)zero variance; "
            "apply drop_zero_variance before fitting the normalizer")
    return Normalizer(means, np.sqrt(variances))


def apply_normalizer(norm: Normalizer, data: Dataset) -> Dataset:
    if data.n != norm.means.shape[0]:
        raise DataError(
            f"normalizer was fitted on {norm.means.shape[0]} columns, "
            f"dataset has {data.n}")
    feats = (data.features - norm.means) / norm.stds
    return Dataset(feats, data.labels)


def normalize_features(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != norm.means.shape[0]:
        raise DataError(
            f"normalizer was fitted on {norm.means.shape[0]} columns, "
            f"input has {features.shape[-1]}")
    return (features - norm.means) / norm.stds


def denormalize_features(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    return np.asarray(features, dtype=np.float64) * norm.stds + norm.means


def drop_zero_variance(data: Dataset) -> tuple[Dataset, np.ndarray]:
    """Remove columns whose variance over the whole dataset is negligible.

    Returns the pruned dataset plus the indices of the kept columns.
    Idempotent: running it twice keeps the same columns.
    """
    if data.m == 0:
        raise DataError("cannot prune an empty dataset")
    variances = data.features.var(axis=0)
    kept = np.nonzero(variances > VARIANCE_TOLERANCE)[0]
    if kept.size == 0:
        raise DataError("every column has (near-)zero variance; "
                        "nothing would remain after pruning")
    return Dataset(data.features[:, kept], data.labels), _frozen(kept)


def _psd_factor(cov) -> np.ndarray:
    """Symmetric square root of the nearest PSD matrix to (M + M^T) / 2.

    Raw covariance requests are first symmetrized, then negative
    eigenvalues are clamped to zero.  The returned factor F satisfies
    F @ F.T == projected covariance, so standard normal draws mapped
    through F have exactly the projected covariance.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DataError("covariance must be a square matrix")
    sym = (cov + cov.T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(sym)
    clamped = np.maximum(eigenvalues, 0.0)
    return (vectors * np.sqrt(clamped)) @ vectors.T


def projected_covariance(cov) -> np.ndarray:
    """The PSD matrix actually used when sampling from a raw request."""
    factor = _psd_factor(cov)
    return factor @ factor.T


def gen_gaussian_pair(mean_neg, cov_neg, mean_pos, cov_pos,
                      m_per_class: int, seed: int) -> Dataset:
    """Two Gaussian clouds, class -1 rows first, then class +1.

    Covariances are symmetrized and PSD-projected before sampling, so
    indefinite requests degrade gracefully (a fully negative-definite
    request collapses its class onto the mean point).
    """
    if m_per_class < 1:
        raise DataError("m_per_class must be at least 1")
    mean_neg = np.asarray(mean_neg, dtype=np.float64)
    mean_pos = np.asarray(mean_pos, dtype=np.float64)
    if mean_neg.shape != mean_pos.shape or mean_neg.ndim != 1:
        raise DataError("means must be 1-D and of equal length")
    f_neg = _psd_factor(cov_neg)
    f_pos = _psd_factor(cov_pos)
    if f_neg.shape[0] != mean_neg.shape[0] or f_pos.shape[0] != mean_pos.shape[0]:
        raise DataError("covariance size must match the mean length")
    rng = np.random.default_rng(seed)
    x_neg = mean_neg + rng.standard_normal((m_per_class, mean_neg.size)) @ f_neg
    x_pos = mean_pos + rng.standard_normal((m_per_class, mean_pos.size)) @ f_pos
    features = np.vstack([x_neg, x_pos])
    labels = np.concatenate([np.full(m_per_class, -1, dtype=np.int64),
                             np.full(m_per_class, 1, dtype=np.int64)])
    return Dataset(features, labels)


def demo_gaussian_pair(m_per_class: int = 200, seed: int = 42) -> Dataset:
    return gen_gaussian_pair(DEMO_MEAN_NEG, DEMO_COV_NEG,
                             DEMO_MEAN_POS, DEMO_COV_POS,
                             m_per_class, seed)


def _ring(rng, count, radius, noise):
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    pts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return pts + rng.normal(0.0, noise, (count, 2)) if noise > 0 else pts


def _gen_circles(rng, m_neg, m_pos, noise):
    # inner ring radius 1, outer ring radius 2: separable by radius at
    # noise 0, still cleanly ring-shaped at moderate noise
    return _ring(rng, m_neg, 1.0, noise), _ring(rng, m_pos, 2.0, noise)


def _spiral_arm(rng, count, rotation, noise):
    t = np.linspace(0.0, 1.0, count)
    theta = 0.5 * np.pi + 3.5 * np.pi * t + rotation
    radius = 0.4 + 2.0 * t
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    return pts + rng.normal(0.0, noise, (count, 2)) if noise > 0 else pts


def _gen_spiral(rng, m_neg, m_pos, noise):
    return (_spiral_arm(rng, m_neg, 0.0, noise),
            _spiral_arm(rng, m_pos, np.pi, noise))


def _gen_jain_like(rng, m_neg, m_pos, noise):
    # two offset crescents facing each other
    t_neg = np.linspace(0.0, np.pi, m_neg)
    t_pos = np.linspace(0.0, np.pi, m_pos)
    neg = np.column_stack([np.cos(t_neg), np.sin(t_neg)])
    pos = np.column_stack([1.0 - np.cos(t_pos), 0.5 - np.sin(t_pos)])
    if noise > 0:
        neg = neg + rng.normal(0.0, noise, neg.shape)
        pos = pos + rng.normal(0.0, noise, pos.shape)
    return neg, pos


def _gen_flame_like(rng, m_neg, m_pos, noise):
    # compact blob nested in the cup of an arc that wraps past a half
    # circle; no straight line cleanly splits the two
    center = np.array([0.0, 0.35])
    blob = center + rng.normal(0.0, 0.25, (m_neg, 2))
    phi = np.linspace(-1.15 * np.pi, 0.15 * np.pi, m_pos)
    arc = center + 1.3 * np.column_stack([np.cos(phi), np.sin(phi)])
    if noise > 0:
        blob = blob + rng.normal(0.0, noise, blob.shape)
        arc = arc + rng.normal(0.0, noise, arc.shape)
    return blob, arc


_SHAPE_BUILDERS = {
    "circles": _gen_circles,
    "spiral": _gen_spiral,
    "jain_like": _gen_jain_like,
    "flame_like": _gen_flame_like,
}


def gen_shape(shape: str, m: int, noise: float, seed: int) -> Dataset:
    """Deterministic 2-D two-class point patterns.

    shape is one of "circles" (concentric rings), "spiral" (two interleaved
    arms), "jain_like" (two offset crescents), "flame_like" (a blob nested
    against an arc).  Class -1 rows come first.
    """
    if shape not in _SHAPE_BUILDERS:
        raise DataError(f"unknown shape {shape!r}; "
                        f"choose one of {', '.join(SHAPE_NAMES)}")
    if m < 4:
        raise DataError("shape generators need m >= 4")
    if noise < 0:
        raise DataError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    m_neg = m // 2
    m_pos = m - m_neg
    neg, pos = _SHAPE_BUILDERS[shape](rng, m_neg, m_pos, float(noise))
    features = np.vstack([neg, pos])
    labels = np.concatenate([np.full(m_neg, -1, dtype=np.int64),
                             np.full(m_pos, 1, dtype=np.int64)])
    return Dataset(features, labels)
