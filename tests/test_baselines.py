import tracemalloc

import numpy as np
import pytest

from lcckit import baselines
from lcckit.baselines import hinge_objective, train_lda, train_linear_svm
from lcckit.data import Dataset, demo_gaussian_pair
from lcckit.discriminators import solve_svm_1d
from lcckit.evaluation import BenchmarkConfig, run_benchmark
from lcckit.lcc import TrainingError

from tests.helpers import svm_1d_enumeration


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
    model = train_linear_svm(ds)
    assert model.weight[0] > 0
    assert -1.0 < -model.intercept / model.weight[0] < 1.0


def test_svm_deterministic():
    ds = demo_gaussian_pair(m_per_class=25, seed=6)
    a = train_linear_svm(ds)
    b = train_linear_svm(ds)
    np.testing.assert_array_equal(a.weight, b.weight)
    assert a.intercept == b.intercept


def test_svm_1d_agrees_with_exact_solver():
    rng = np.random.default_rng(42)
    for _ in range(12):
        m = int(rng.integers(6, 40))
        v = rng.normal(0.0, 2.0, m)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        lam = float(rng.uniform(0.05, 3.0))
        ds = Dataset(v[:, None], y)
        model = train_linear_svm(ds, lam=lam)
        ours = hinge_objective(ds, lam, model.weight, model.intercept)
        w_e, r_e = svm_1d_enumeration(v, y, lam)
        exact = hinge_objective(ds, lam, np.array([w_e]), r_e)
        assert ours <= exact * (1.0 + 1e-12)


def tie_heavy_1d_problems(rng, count):
    """1-D problems full of ties: values rounded to a few digits, rows
    drawn with replacement from a handful of values (so the same value
    carries both labels), and some constant columns; lam in 1e-3..10."""
    for case in range(count):
        m = int(rng.integers(2, 301)) if case % 4 else int(rng.integers(2, 25))
        if case % 3 == 0:
            v = rng.choice(np.round(rng.normal(0.0, 2.0, rng.integers(1, 6)),
                                    1), m)
        else:
            v = np.round(rng.normal(0.0, 10.0 ** rng.uniform(-1, 1), m),
                         int(rng.integers(0, 2)))
        shift = rng.normal(0.0, 1.0) * (case % 2)
        y = np.where(rng.random(m) < 1.0 / (1.0 + np.exp(-shift * v)), 1, -1)
        y[:2] = (-1, 1)
        yield v, y, float(10.0 ** rng.uniform(-3.0, 1.0))


def test_svm_1d_matches_enumeration_on_ties():
    """solve_svm_1d (SMO at one feature) reaches the enumerated optimum
    to rounding on tie-heavy and duplicate-row samples, and SMO never
    hits its step cap.  Case 52 of this set has its optimum at w = 0
    exactly, where SMO's own w is about 1e-14."""
    for case, (v, y, lam) in enumerate(
            tie_heavy_1d_problems(np.random.default_rng(21), 60)):
        ds = Dataset(v[:, None], y)
        train_linear_svm(ds, lam=lam)     # raises TrainingError at its cap
        w, r = solve_svm_1d(v, y, lam)
        ours = hinge_objective(ds, lam, np.array([w]), r)
        w_e, r_e = svm_1d_enumeration(v, y, lam)
        exact = hinge_objective(ds, lam, np.array([w_e]), r_e)
        assert abs(ours - exact) <= 1e-15 * max(1.0, abs(exact)), \
            (case, ours, exact)


def _dual_optimum(X, y, lam):
    """Primal optimum through the dual, by scipy's SLSQP:
    max sum(a) - ||sum a_i y_i x_i||^2 / (4 lam), 0 <= a <= 1/m,
    sum a_i y_i = 0."""
    optimize = pytest.importorskip("scipy.optimize")
    m = y.size
    yx = y[:, None] * X
    gram = yx @ yx.T
    res = optimize.minimize(
        lambda a: a @ gram @ a / (4.0 * lam) - a.sum(), np.zeros(m),
        jac=lambda a: gram @ a / (2.0 * lam) - 1.0, method="SLSQP",
        bounds=[(0.0, 1.0 / m)] * m,
        constraints=[{"type": "eq", "fun": lambda a: a @ y,
                      "jac": lambda a: y}],
        options={"ftol": 1e-15, "maxiter": 2000})
    # status 8 stops at the line search's precision limit, feasible and
    # within 1e-10 of the optimum on these problems
    assert res.status in (0, 8), res.message
    return -res.fun


def test_svm_matches_dual_oracle():
    rng = np.random.default_rng(2024)
    for case in range(30):
        m = int(rng.integers(8, 51))
        n = int(rng.integers(1, 6))
        lam = float(10.0 ** rng.uniform(-2.0, 1.5))
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        X = rng.normal(size=(m, n)) + 0.8 * y[:, None]
        ds = Dataset(X, y.astype(np.int64))
        model = train_linear_svm(ds, lam=lam)
        ours = hinge_objective(ds, lam, model.weight, model.intercept)
        oracle = _dual_optimum(X, y, lam)
        assert ours <= oracle + 1e-9 * max(1.0, oracle), case


@pytest.mark.parametrize("features, labels", [
    ([[1.0, 2.0]] * 6, [1, -1, 1, -1, -1, -1]),
    ([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [2.0, 2.0]],
     [1, -1, 1, -1, 1]),
], ids=["all-rows-identical", "duplicates-opposite-labels"])
def test_svm_degenerate_rows_converge(features, labels):
    model = train_linear_svm(Dataset(features, labels), lam=0.5)
    assert np.all(np.isfinite(model.weight))
    assert np.isfinite(model.intercept)


def _overlapping(m_per_class=40):
    rng = np.random.default_rng(5)
    feats = np.vstack([rng.normal(0.0, 1.0, (m_per_class, 2)),
                       rng.normal(0.5, 1.0, (m_per_class, 2))])
    return Dataset(feats, [-1] * m_per_class + [1] * m_per_class)


def test_svm_step_cap_raises_and_fails_the_run(monkeypatch):
    """With the cap at 1 step per row, overlapping classes cannot reach
    the tolerance; the fit raises, and procedure 1 records a failure."""
    ds = _overlapping()
    monkeypatch.setattr(baselines, "SMO_STEPS_PER_ROW", 1)
    with pytest.raises(TrainingError, match="did not converge"):
        train_linear_svm(ds, lam=0.01)
    report = run_benchmark(BenchmarkConfig(
        ds, ("svm",), runs=2, seed=0, params={"svm_lambda": 0.01}))
    assert all(r.error.startswith("TrainingError: SMO did not converge")
               for r in report.records)


def test_svm_memory_is_linear_in_rows():
    """A fit on 5,000 rows: an m x m dual matrix would take 200 MB."""
    ds = demo_gaussian_pair(m_per_class=2500, seed=3)
    tracemalloc.start()
    try:
        model = train_linear_svm(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.all(np.isfinite(model.weight)) and np.isfinite(model.intercept)


def test_svm_validation():
    ds = demo_gaussian_pair(m_per_class=5, seed=8)
    with pytest.raises(TrainingError):
        train_linear_svm(ds, lam=0.0)
    with pytest.raises(TrainingError):
        train_linear_svm(ds, lam=np.inf)


def test_svm_separates_demo_pair():
    ds = demo_gaussian_pair(m_per_class=60, seed=9)
    model = train_linear_svm(ds)
    assert np.mean(model.predict(ds.features) == ds.labels) >= 0.99


def test_svm_score_sign_drives_predict():
    ds = demo_gaussian_pair(m_per_class=20, seed=10)
    model = train_linear_svm(ds)
    s = model.score(ds.features)
    np.testing.assert_array_equal(model.predict(ds.features),
                                  np.where(s < 0, -1, 1))
