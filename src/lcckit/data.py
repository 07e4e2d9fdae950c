"""Dataset handling: CSV ingestion, z-score normalization, column pruning,
and deterministic synthetic generators.

read_blocks is the one numeric-CSV reader: `predict` takes its blocks
one at a time, `train` and `benchmark --data` their concatenation through
load_csv, whose last column holds the labels, always -1 / +1 internally
(as_labels remaps 0 / 1).  Datasets are read-only so that, once built,
they cannot drift under the feet of a trained model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Variance at or below this is treated as "no signal" both when pruning
# columns and when refusing to fit a normalizer.  Keeping the two thresholds
# identical means every column the pruner keeps is normalizable.
VARIANCE_TOLERANCE = 1e-12

# rows per block read from a CSV or decided by model_io.predict_saved, and
# the most rows of a klcc model's kernel matrix; `lcckit predict` holds one
# block at a time
PREDICT_BLOCK = 4096

# Parameters of the bundled 2-D demonstration pair: class -1 is a spread
# cloud near (4, 5), class +1 sits near (-7, -1).  The raw matrices are not
# symmetric PSD; gen_gaussian_pair projects them (see _psd_factor).
DEMO_MEAN_NEG = (4.0, 5.0)
DEMO_COV_NEG = ((0.94, 0.34), (-0.34, 3.76))
DEMO_MEAN_POS = (-7.0, -1.0)
DEMO_COV_POS = ((-2.57, -0.77), (0.767, -0.64))


class DataError(ValueError):
    """Malformed input data or an impossible data request."""


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only copy of a, converted to dtype when one is given."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _freeze(record, dtype, *names) -> None:
    """Set each named field of a frozen dataclass, unless None, to
    _frozen(field, dtype)."""
    for name in names:
        if (value := getattr(record, name)) is not None:
            object.__setattr__(record, name, _frozen(value, dtype))


@dataclass(frozen=True)
class Dataset:
    """An (m, n) float feature matrix plus m labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "features")
        labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if labels.ndim != 1 or labels.shape[0] != self.m:
            raise DataError("labels must be 1-D with one entry per row")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        # checked before the int64 cast, which would truncate -1.5 to -1
        if not np.all((labels == -1) | (labels == 1)):
            raise DataError("labels must be -1 or +1")
        _freeze(self, np.int64, "labels")

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


# a line made of these characters alone has no cell: separators, quotes
# and whitespace (the 29 characters str.strip() removes)
_BLANK = (',"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002'
          '\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f'
          '\u205f\u3000')


def _numbers(lines, usecols=None) -> np.ndarray | None:
    """The lines' comma-separated cells (those in usecols, if given) as a
    float matrix, or None if the reader rejects them."""
    try:
        return np.loadtxt(lines, dtype=np.float64, delimiter=",",
                          quotechar='"', comments=None, ndmin=2,
                          usecols=usecols)
    except ValueError:
        return None


def _cell_lines(fh):
    """(line number, line) for each line of the file that has a cell, up
    to a line with an odd number of quotes, which ends them as (its
    number, None): a quoted cell never spans lines."""
    for line_no, line in enumerate(fh, start=1):
        if '"' in line and line.count('"') % 2:
            yield line_no, None
            return
        if line.strip(_BLANK):
            yield line_no, line


def _check_line(line_no: int, line: str | None, width: int) -> None:
    """Raise DataError if the line breaks the rows: an unbalanced quote
    (line None), a cell that is not a number, a non-finite value, or a
    width unlike the first row's."""
    at = f"line {line_no}"
    if line is None:
        raise DataError(f"{at}: unbalanced quote")
    row = _numbers([line])
    if row is None:
        # the first rejected column comes before any index past the end
        col = next(c for c in itertools.count()
                   if _numbers([line], usecols=c) is None)
        raise DataError(f"{at}, column {col + 1}: non-numeric cell")
    bad = np.flatnonzero(~np.isfinite(row[0]))
    if bad.size:
        raise DataError(f"{at}, column {bad[0] + 1}: non-finite value")
    if row.shape[1] != width:
        raise DataError(f"{at}: expected {width} cells, got {row.shape[1]}")


def read_blocks(path: str, rows: int):
    """The file's rows of comma-separated numbers as float matrices of up
    to rows rows each.  Blank lines (only separators, quotes and
    whitespace) are skipped, and so is every line before the first row of
    numbers, as a header.  Cells may be quoted, the quote closing on its
    line, and padded.  A block with a bad row raises DataError naming its
    first bad line, counting every line from 1, and for a bad cell its
    column."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        lines = _cell_lines(fh)
        for line_no, line in lines:
            first = None if line is None else _numbers([line])
            if line is None or first is not None:
                break
        else:
            return
        width = 0 if first is None else first.shape[1]
        block = [(line_no, line), *itertools.islice(lines, rows - 1)]
        while block:
            # a quote error ends the lines; the lines before it come first
            matrix = (None if block[-1][1] is None
                      else _numbers([line for _, line in block]))
            if matrix is None or matrix.shape[1] != width or \
                    not np.isfinite(matrix).all():
                for line_no, line in block:
                    _check_line(line_no, line, width)
                raise DataError("rows are not comma-separated numbers")
            yield matrix
            block = list(itertools.islice(lines, rows))


def read_matrix(path: str) -> np.ndarray:
    """read_blocks' rows as one float matrix, (0, 0) without a row of
    numbers."""
    blocks = list(read_blocks(path, PREDICT_BLOCK))
    return np.concatenate(blocks) if blocks else np.zeros((0, 0))


def as_labels(column) -> np.ndarray | None:
    """-1/+1 labels from a float array of -1/+1 or 0/1 values (0 becomes
    -1), or None if the array holds any other value."""
    values = set(np.unique(column).tolist())
    if values <= {-1.0, 1.0} or values <= {0.0, 1.0}:
        return np.where(column <= 0.0, -1, 1)
    return None


def load_csv(path: str) -> Dataset:
    """A Dataset from read_matrix's rows: the last column holds the labels,
    -1/+1 or 0/1 (0 becomes -1), the others the features.  A file without
    a row of numbers gives an empty Dataset."""
    matrix = read_matrix(path)
    if matrix.size == 0:
        return Dataset(np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
    if matrix.shape[1] < 2:
        raise DataError("need at least one feature column and one label "
                        "column")
    labels = as_labels(matrix[:, -1])
    if labels is None:
        raise DataError("labels must be -1/+1 or 0/1, found "
                        f"{np.unique(matrix[:, -1]).tolist()}")
    return Dataset(matrix[:, :-1], labels)


@dataclass(frozen=True)
class Normalizer:
    """Per-column z-score parameters fitted on a training split."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "means", "stds")
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
    return Dataset(normalize_features(norm, data.features), data.labels)


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
SHAPE_NAMES = tuple(_SHAPE_BUILDERS)


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
