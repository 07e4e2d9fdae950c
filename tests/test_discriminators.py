import tracemalloc

import numpy as np
import pytest

from lcckit import discriminators
from lcckit.baselines import _sweep_min, hinge_objective
from lcckit.data import Dataset, demo_gaussian_pair
from lcckit.discriminators import (
    DEFAULT_H,
    Discriminator,
    DiscriminatorError,
    discriminate,
    discriminator_score,
    fit_discriminator,
    solve_svm_1d,
)
from lcckit.lcc import train_lcc

from tests.helpers import (
    one_nn_broadcast,
    svm_1d_enumeration,
    svm_1d_grid_oracle,
    sweep_min_loop,
)


def projected_demo(seed, m_per_class=30):
    ds = demo_gaussian_pair(m_per_class=m_per_class, seed=seed)
    model = train_lcc(ds)
    return ds, model, model.transform(ds.features)


# ---------------------------------------------------------------- 1-D SVM

def test_svm_symmetric_pair():
    # one point per class, mirrored: the flat stretch of optimal
    # intercepts is centered on zero
    w, r = solve_svm_1d(np.array([-1.0, 1.0]), np.array([-1, 1]))
    assert w > 0
    assert r == pytest.approx(0.0, abs=1e-12)
    assert -r / w == pytest.approx(0.0, abs=1e-12)


def test_svm_label_flip_mirrors_solution():
    rng = np.random.default_rng(7)
    v = np.concatenate([rng.normal(-3.0, 0.5, 12), rng.normal(3.0, 0.5, 12)])
    y = np.array([-1] * 12 + [1] * 12)
    w1, r1 = solve_svm_1d(v, y)
    w2, r2 = solve_svm_1d(v, -y)
    assert w2 == pytest.approx(-w1, abs=1e-12)
    assert r2 == pytest.approx(-r1, abs=1e-12)


def test_svm_identical_values_majority():
    w, r = solve_svm_1d(np.array([2.0, 2.0, 2.0]), np.array([1, 1, -1]))
    assert w == 0.0 and r == 1.0
    w, r = solve_svm_1d(np.array([2.0, 2.0, 2.0]), np.array([-1, -1, 1]))
    assert w == 0.0 and r == -1.0


def test_svm_objective_never_beaten_by_grid():
    rng = np.random.default_rng(42)
    for trial in range(25):
        m = int(rng.integers(4, 21))
        v = rng.normal(0.0, 3.0, m)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        lam = float(rng.uniform(0.05, 5.0))
        ds = Dataset(v[:, None], y)
        grid = svm_1d_grid_oracle(v, y, lam)
        for solver in (svm_1d_enumeration, solve_svm_1d):
            w, r = solver(v, y, lam)
            ours = hinge_objective(ds, lam, np.array([w]), r)
            assert ours <= grid + 1e-9, f"trial {trial}: {ours} vs grid {grid}"
            assert abs(ours - grid) < 1e-4


def test_svm_separable_classifies_cleanly():
    v = np.array([-4.0, -3.5, -3.0, 3.0, 3.5, 4.0])
    y = np.array([-1, -1, -1, 1, 1, 1])
    w, r = solve_svm_1d(v, y, lam=0.01)
    assert np.all(np.sign(w * v + r) == y)


def test_svm_input_validation():
    with pytest.raises(DiscriminatorError):
        solve_svm_1d(np.array([1.0, 2.0]), np.array([1, 1]))  # one class
    with pytest.raises(DiscriminatorError):
        solve_svm_1d(np.array([1.0]), np.array([1, -1]))      # length mismatch
    with pytest.raises(DiscriminatorError):
        solve_svm_1d(np.array([np.inf, 2.0]), np.array([1, -1]))
    with pytest.raises(DiscriminatorError):
        solve_svm_1d(np.array([1.0, 2.0]), np.array([1, -1]), lam=0.0)


def test_sweep_matches_breakpoint_loop_bit_for_bit():
    """The sort-and-cumsum sweep returns the loop's (argmin, min) to the
    bit on tie-heavy piecewise linear hinge sums."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(0, 30))
        digits = int(rng.integers(0, 2))
        a = np.round(rng.normal(0.0, 2.0, m), digits)
        b = np.round(rng.normal(0.0, 2.0, m), digits)
        if rng.random() < 0.3:
            b = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        if not (np.any(b > 0) and np.any(b < 0)):
            continue
        scale = float(rng.choice([1.0, float(max(m, 1)), 3.7]))
        expected = [x.hex() for x in sweep_min_loop(0.0, a, b, scale)]
        got = [float(x).hex() for x in _sweep_min(a, b, scale)[:2]]
        assert got == expected, (a.tolist(), b.tolist(), scale)
        checked += 1


# ------------------------------------------------------------ fitted rules

def test_dist_rule_uses_model_threshold():
    ds, model, values = projected_demo(seed=0)
    d = fit_discriminator("dist", values, ds.labels, model)
    assert d.threshold == model.l_hat
    np.testing.assert_array_equal(discriminate(d, values),
                                  model.predict(ds.features))


def test_dist_tie_is_positive():
    ds, model, values = projected_demo(seed=0)
    d = fit_discriminator("dist", values, ds.labels, model)
    assert discriminate(d, d.threshold) == 1
    assert discriminate(d, d.threshold - 1e-9) == -1


def test_one_nn_matches_stored_points():
    values = np.array([0.0, 1.0, 10.0, 11.0])
    labels = np.array([-1, -1, 1, 1])
    ds, model, _ = projected_demo(seed=1)
    d = fit_discriminator("one_nn", values, labels, model)
    assert discriminate(d, 0.4) == -1
    assert discriminate(d, 10.6) == 1
    got = discriminate(d, np.array([-5.0, 5.4, 5.6, 20.0]))
    np.testing.assert_array_equal(got, [-1, -1, 1, 1])


def test_one_nn_tie_takes_lower_stored_index():
    ds, model, _ = projected_demo(seed=1)
    # query 5.0 is equidistant from 4 (label +1, stored first) and
    # 6 (label -1): the earlier stored point wins
    d = fit_discriminator("one_nn", np.array([4.0, 6.0]),
                          np.array([1, -1]), model)
    assert discriminate(d, 5.0) == 1
    d = fit_discriminator("one_nn", np.array([4.0, 6.0]),
                          np.array([-1, 1]), model)
    assert discriminate(d, 5.0) == -1


def test_one_nn_matches_distance_matrix_on_ties():
    """Labels and scores equal the query-by-value distance matrix's, to
    the bit, with duplicate values of both labels, queries at stored
    values and at midpoints, and distinct values at one rounded
    distance."""
    rng = np.random.default_rng(12)
    ds, model, _ = projected_demo(seed=1)
    for trial in range(600):
        m = int(rng.integers(2, 30))
        digits = int(rng.integers(0, 2))
        values = np.round(rng.normal(0.0, 2.0, m), digits)
        if trial % 10 == 0:
            values = values * 1e-17 + 10.0
        labels = np.where(rng.random(m) < 0.5, -1, 1)
        labels[:2] = (-1, 1)
        d = fit_discriminator("one_nn", values, labels, model)
        queries = np.concatenate([
            np.round(rng.normal(0.0, 2.5, 40), digits), d.values,
            (d.values[:-1] + d.values[1:]) / 2.0, [1e20, -1e20, 0.0, -0.0]])
        want_labels, want_scores = one_nn_broadcast(d.values, d.labels,
                                                    queries)
        np.testing.assert_array_equal(discriminate(d, queries), want_labels)
        assert (discriminator_score(d, queries).tobytes()
                == want_scores.tobytes())


def test_one_nn_rounded_distance_tie_takes_lower_index():
    # 1 - (0.5 - 2^-60) rounds to 0.5 = 1 - 0.5: the lower index wins
    d = Discriminator("one_nn", values=np.array([0.5 - 2.0 ** -60, 0.5]),
                      labels=np.array([-1, 1]))
    assert discriminate(d, 1.0) == -1
    d = Discriminator("one_nn", values=np.array([1.0, 1.0, 1.0]),
                      labels=np.array([1, -1, 1]))
    assert discriminate(d, 1.0) == 1 and discriminate(d, 0.0) == 1


def test_one_nn_needs_ascending_values():
    with pytest.raises(DiscriminatorError, match="ascending"):
        Discriminator("one_nn", values=np.array([2.0, 1.0]),
                      labels=np.array([-1, 1]))


def test_one_nn_memory_grows_with_queries_not_queries_times_values():
    """5,000 queries against 800 stored values: a distance matrix would
    take 32 MB."""
    rng = np.random.default_rng(13)
    ds, model, _ = projected_demo(seed=1)
    d = fit_discriminator("one_nn", rng.normal(0.0, 1.0, 800),
                          np.where(rng.random(800) < 0.5, -1, 1), model)
    queries = rng.normal(0.0, 1.0, 5000)
    tracemalloc.start()
    try:
        discriminate(d, queries)
        discriminator_score(d, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_one_sv_scale_comes_from_centers():
    ds, model, values = projected_demo(seed=2)
    d = fit_discriminator("one_sv", values, ds.labels, model)
    assert d.h == DEFAULT_H
    assert d.scale == pytest.approx(DEFAULT_H
                                    / (model.c_pos_hat - model.c_neg_hat))


def test_one_sv_sign_tie_is_positive():
    # exactly representable zero of the decision value
    d = Discriminator(kind="one_sv", scale=1.0, weight=1.0,
                      intercept=-2.0, h=10.0)
    assert discriminate(d, 2.0) == 1
    assert discriminate(d, 2.0 - 1e-9) == -1


def test_one_sv_h_invariance_on_separable_data(monkeypatch):
    """Rescaling the projected axis rescales w and leaves every decision
    unchanged when the classes separate cleanly."""
    ds, model, values = projected_demo(seed=3)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0
    outputs = []
    for h in (1.0, 10.0, 100.0):
        monkeypatch.setattr(discriminators, "DEFAULT_H", h)
        d = fit_discriminator("one_sv", values, ds.labels, model)
        outputs.append(discriminate(d, values))
    np.testing.assert_array_equal(outputs[0], outputs[1])
    np.testing.assert_array_equal(outputs[1], outputs[2])


def test_one_sv_boundary_between_class_extremes():
    ds, model, values = projected_demo(seed=4)
    d = fit_discriminator("one_sv", values, ds.labels, model)
    boundary = -d.intercept / (d.weight * d.scale)
    neg_vals = values[ds.labels == -1]
    pos_vals = values[ds.labels == 1]
    lo = min(neg_vals.max(), pos_vals.max())
    hi = max(neg_vals.min(), pos_vals.min())
    assert min(lo, hi) < boundary < max(lo, hi)


@pytest.mark.parametrize("kind", ["dist", "one_nn", "one_sv"])
def test_all_rules_perfect_on_separable_projection(kind):
    ds, model, values = projected_demo(seed=5, m_per_class=40)
    d = fit_discriminator(kind, values, ds.labels, model)
    np.testing.assert_array_equal(discriminate(d, values), ds.labels)


@pytest.mark.parametrize("kind", ["dist", "one_nn", "one_sv"])
def test_scores_sign_tracks_labels(kind):
    ds, model, values = projected_demo(seed=6, m_per_class=40)
    d = fit_discriminator(kind, values, ds.labels, model)
    s = discriminator_score(d, values)
    hard = discriminate(d, values)
    # where the score is strictly signed it must agree with the label rule
    nz = s != 0
    np.testing.assert_array_equal(np.sign(s[nz]), hard[nz])


def test_fit_validation():
    ds, model, values = projected_demo(seed=7)
    with pytest.raises(DiscriminatorError):
        fit_discriminator("nope", values, ds.labels, model)
    with pytest.raises(DiscriminatorError):
        discriminate(fit_discriminator("dist", values, ds.labels, model),
                     np.nan)


@pytest.mark.parametrize("kind", ["dist", "one_nn", "one_sv"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_rules_return_the_query_shape(kind, shape):
    ds, model, values = projected_demo(seed=8)
    d = fit_discriminator(kind, values, ds.labels, model)
    query = np.linspace(values.min(), values.max(), 6)[:int(np.prod(shape))]
    query = query.reshape(shape)
    labels = discriminate(d, query)
    scores = discriminator_score(d, query)
    for out in (labels, scores):
        assert isinstance(out, (np.ndarray, np.generic))
        assert np.shape(out) == shape
    np.testing.assert_array_equal(
        np.ravel(labels), discriminate(d, np.ravel(query)))
    np.testing.assert_array_equal(
        np.ravel(scores), discriminator_score(d, np.ravel(query)))


@pytest.mark.parametrize("kind, fields", [
    ("dist", {}),
    ("dist", {"threshold": 0.0, "weight": 3.0}),
    ("one_nn", {"values": [1.0, 2.0]}),
    ("one_nn", {"values": [1.0, 2.0], "labels": [-1, 1], "threshold": 0.0}),
    ("one_sv", {"scale": 1.0, "weight": 1.0, "intercept": 0.0}),
    ("one_sv", {"scale": 1.0, "weight": 1.0, "intercept": 0.0, "h": 10.0,
                "values": [1.0]}),
], ids=["dist-missing", "dist-extra", "one_nn-missing", "one_nn-extra",
        "one_sv-missing", "one_sv-extra"])
def test_discriminator_sets_exactly_its_kinds_fields(kind, fields):
    with pytest.raises(DiscriminatorError, match="sets exactly"):
        Discriminator(kind, **fields)
