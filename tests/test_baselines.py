import tracemalloc

import numpy as np
import pytest

from lcckit.baselines import (
    _polish,
    hinge_objective,
    train_lda,
    train_linear_svm,
)
from lcckit.data import Dataset, demo_gaussian_pair
from lcckit.discriminators import solve_svm_1d, svm_1d_objective
from lcckit.lcc import TrainingError


def isotropic_pair(d=1.0, offset=(4.0, 1.0)):
    """Per-class scatter exactly d^2/2 * I: four points on axis crosses."""
    cross = np.array([[d, 0.0], [-d, 0.0], [0.0, d], [0.0, -d]])
    feats = np.vstack([cross, cross + np.asarray(offset)])
    labels = np.array([-1] * 4 + [1] * 4)
    return Dataset(feats, labels)


# -------------------------------------------------------------------- LDA

def test_lda_isotropic_weight_parallel_to_center_gap():
    ds = isotropic_pair()
    model = train_lda(ds, lambda_reg=1.0)
    gap = np.array([4.0, 1.0])
    cos = model.weight @ gap / (np.linalg.norm(model.weight)
                                * np.linalg.norm(gap))
    assert np.arccos(min(cos, 1.0)) < 1e-6


def test_lda_reg_zero_weight_equals_center_gap():
    ds = demo_gaussian_pair(m_per_class=30, seed=0)
    model = train_lda(ds, lambda_reg=0.0)
    gap = ds.features_of(1).mean(axis=0) - ds.features_of(-1).mean(axis=0)
    np.testing.assert_allclose(model.weight, gap, atol=1e-12)


def test_lda_default_reg():
    ds = demo_gaussian_pair(m_per_class=30, seed=1)
    assert train_lda(ds).lambda_reg == 0.5


def test_lda_degenerate_spread_needs_shrinkage():
    ds = Dataset([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]],
                 [-1, -1, 1, 1])
    with pytest.raises(TrainingError, match="lambda_reg < 1"):
        train_lda(ds, lambda_reg=1.0)
    train_lda(ds, lambda_reg=0.5)  # shrinkage rescues it


def test_lda_reg_out_of_range():
    ds = demo_gaussian_pair(m_per_class=10, seed=2)
    with pytest.raises(TrainingError):
        train_lda(ds, lambda_reg=1.5)
    with pytest.raises(TrainingError):
        train_lda(ds, lambda_reg=-0.1)


def test_lda_separates_demo_pair():
    ds = demo_gaussian_pair(m_per_class=80, seed=3)
    model = train_lda(ds)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_lda_prediction_invariant_to_common_rescale():
    from lcckit.baselines import LdaModel
    ds = demo_gaussian_pair(m_per_class=40, seed=4)
    model = train_lda(ds)
    base = model.predict(ds.features)
    for factor in (0.01, 3.0, 1000.0):
        scaled = LdaModel(model.weight * factor, model.k * factor,
                          model.lambda_reg)
        np.testing.assert_array_equal(scaled.predict(ds.features), base)


def test_lda_score_shapes():
    ds = demo_gaussian_pair(m_per_class=10, seed=5)
    model = train_lda(ds)
    one = model.score(ds.features[:1])
    assert one.shape == (1,)
    assert model.score(ds.features).shape == (ds.m,)


# -------------------------------------------------------------------- SVM

def test_svm_separable_pair_boundary_inside_gap():
    ds = Dataset([[-1.0], [1.0]], [-1, 1])
    model = train_linear_svm(ds, seed=0)
    assert model.weight[0] > 0
    assert -1.0 < -model.intercept / model.weight[0] < 1.0


def test_svm_deterministic_given_seed():
    ds = demo_gaussian_pair(m_per_class=25, seed=6)
    a = train_linear_svm(ds, seed=9)
    b = train_linear_svm(ds, seed=9)
    np.testing.assert_array_equal(a.weight, b.weight)
    assert a.intercept == b.intercept


def test_svm_objective_non_increasing_in_epochs():
    ds = demo_gaussian_pair(m_per_class=30, seed=7)
    values = []
    for epochs in (1, 2, 4, 8, 16, 32):
        model = train_linear_svm(ds, epochs=epochs, seed=2)
        values.append(hinge_objective(ds, model.lam, model.weight,
                                      model.intercept))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_svm_1d_agrees_with_exact_solver():
    rng = np.random.default_rng(42)
    for _ in range(12):
        m = int(rng.integers(6, 40))
        v = rng.normal(0.0, 2.0, m)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        lam = float(rng.uniform(0.05, 3.0))
        model = train_linear_svm(Dataset(v[:, None], y), lam=lam, seed=0)
        ours = hinge_objective(Dataset(v[:, None], y), lam, model.weight,
                               model.intercept)
        w_e, r_e = solve_svm_1d(v, y, lam)
        exact = svm_1d_objective(v, y, lam, w_e, r_e)
        assert ours <= exact * 1.02 + 1e-12


def test_polish_memory_is_linear_in_rows():
    """The flat-intercept step on 5,000 rows: an m x m matrix of hinge
    values would take 200 MB."""
    ds = demo_gaussian_pair(m_per_class=2500, seed=3)
    tracemalloc.start()
    try:
        w, r = _polish(ds, 1.0, np.array([1.0, -0.5]), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.all(np.isfinite(w)) and np.isfinite(r)


def test_svm_validation():
    ds = demo_gaussian_pair(m_per_class=5, seed=8)
    with pytest.raises(TrainingError):
        train_linear_svm(ds, lam=0.0)
    with pytest.raises(TrainingError):
        train_linear_svm(ds, epochs=0)


def test_svm_separates_demo_pair():
    ds = demo_gaussian_pair(m_per_class=60, seed=9)
    model = train_linear_svm(ds, seed=1)
    assert np.mean(model.predict(ds.features) == ds.labels) >= 0.99


def test_svm_score_sign_drives_predict():
    ds = demo_gaussian_pair(m_per_class=20, seed=10)
    model = train_linear_svm(ds, seed=3)
    s = model.score(ds.features)
    np.testing.assert_array_equal(model.predict(ds.features),
                                  np.where(s < 0, -1, 1))
