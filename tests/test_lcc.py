import re
import warnings

import numpy as np
import pytest

from lcckit import lcc
from lcckit.cli import parse_gen_spec
from lcckit.data import Dataset, demo_gaussian_pair, gen_shape
from lcckit.evaluation import (GRID_SIGMA, METHODS, PARAM_DEFAULTS,
                               TRAIN_FRACTION, _grid_aucs, _normalized,
                               stratified_split)
from lcckit.lcc import (
    DEFAULT_LAMBDA,
    DEFAULT_SIGMA,
    FQCC_ITERATIONS,
    FQCC_RESTARTS,
    TrainingError,
    assemble_lcc_lp,
    class_centers,
    fqcc_epsilons,
    fqcc_objective,
    lcc_path,
    model_from_beta,
    train_fqcc,
    train_lcc,
)
from tests.helpers import (count_calls, fqcc_bits, fqcc_full_loop,
                           fqcc_serial_oracle, grid_refusals,
                           procedure_two_folds)


def toy_1d():
    # class -1 at {0, 1}, class +1 at {4, 5}: separable with a wide gap
    return Dataset([[0.0], [1.0], [4.0], [5.0]], [-1, -1, 1, 1])


def test_class_centers():
    c_neg, c_pos = class_centers(toy_1d())
    assert c_neg[0] == 0.5 and c_pos[0] == 4.5


def test_lp_dimensions_exact():
    ds = demo_gaussian_pair(m_per_class=15, seed=0)
    prob = assemble_lcc_lp(ds, 2.0, -0.01)
    m, n = ds.m, ds.n
    assert prob.A.shape == (m + 1, m + n)
    assert prob.c.shape == (m + n,)
    assert all(rel == "<=" for rel in prob.relations)
    # instance rows: slack block is minus the identity
    np.testing.assert_array_equal(prob.A[:m, n:], -np.eye(m))
    # projection coefficients live in a unit box, slacks start at sigma
    np.testing.assert_array_equal(prob.lower[:n], [-1.0] * n)
    np.testing.assert_array_equal(prob.upper[:n], [1.0] * n)
    np.testing.assert_array_equal(prob.lower[n:], [-0.01] * m)
    assert np.all(np.isinf(prob.upper[n:]))


def test_lp_gap_row_matches_objective_center_terms():
    ds = demo_gaussian_pair(m_per_class=10, seed=2)
    prob = assemble_lcc_lp(ds, 3.0, -0.5)
    c_neg, c_pos = class_centers(ds)
    np.testing.assert_allclose(prob.A[-1, :ds.n], c_neg - c_pos)
    np.testing.assert_allclose(prob.c[:ds.n], c_neg - c_pos)
    np.testing.assert_array_equal(prob.c[ds.n:], [3.0] * ds.m)
    assert prob.b[-1] == -0.5


def test_parameter_validation():
    ds = toy_1d()
    with pytest.raises(TrainingError):
        train_lcc(ds, lam=0.0)
    with pytest.raises(TrainingError):
        train_lcc(ds, sigma=0.1)  # sigma must be negative


def test_separable_1d_solution_is_sharp():
    """With a clean gap the box binds: beta = 1 and every slack sits at
    its lower bound sigma, so the optimum value is the center gap term
    plus lam * m * sigma exactly."""
    ds = toy_1d()
    model = train_lcc(ds)
    assert model.beta[0] == pytest.approx(1.0)
    np.testing.assert_allclose(model.epsilons, DEFAULT_SIGMA, atol=1e-9)
    assert model.c_neg_hat == pytest.approx(0.5)
    assert model.c_pos_hat == pytest.approx(4.5)
    assert model.l_hat == pytest.approx(2.5)


def test_midpoint_sits_between_projected_centers():
    ds = demo_gaussian_pair(m_per_class=40, seed=4)
    model = train_lcc(ds)
    lo, hi = sorted([model.c_neg_hat, model.c_pos_hat])
    assert lo <= model.l_hat <= hi
    assert model.l_hat == pytest.approx((model.c_neg_hat + model.c_pos_hat) / 2)


def test_center_gap_honors_sigma():
    ds = demo_gaussian_pair(m_per_class=40, seed=4)
    for sig in (-0.01, -1.0, -3.0):
        model = train_lcc(ds, sigma=sig)
        assert model.c_neg_hat - model.c_pos_hat <= sig + 1e-7


def test_transform_score_predict_shapes():
    model = train_lcc(toy_1d())
    assert model.transform(np.array([[2.0]])).shape == (1,)
    batch = np.array([[0.0], [2.5], [5.0]])
    s = model.score(batch)
    assert s.shape == (3,)
    p = model.predict(batch)
    np.testing.assert_array_equal(p, [-1, 1, 1])  # tie at the threshold -> +1
    assert model.predict(np.array([[2.5 - 1e-9]])).tolist() == [-1]


def test_tie_at_threshold_is_positive():
    model = train_lcc(toy_1d())
    v = np.array([[model.l_hat]])  # exactly on the line
    assert model.score(v).tolist() == [0.0]
    assert model.predict(v).tolist() == [1]


def test_infeasible_identical_centers():
    ds = Dataset([[1.0], [1.0], [1.0], [1.0]], [-1, -1, 1, 1])
    with pytest.raises(TrainingError, match="identical centers"):
        train_lcc(ds)


def test_infeasible_sigma_too_large(monkeypatch):
    ds = toy_1d()  # center gap is 4
    solves = count_calls(monkeypatch, lcc, "solve")
    # both sides print to full precision, so a sigma just past the gap
    # reads as past it
    for sigma, printed in ((-5.0, "5"),
                           (-4.0 * (1 + 1e-9), "4.0000000040000003")):
        with pytest.raises(TrainingError, match=re.escape(
                f"(L1 gap 4 < {printed})")):
            train_lcc(ds, sigma=sigma)
        assert printed != "4" and float(printed) == -sigma
    assert solves == []  # refused in closed form, before a solve
    for sigma in (-3.9, -4.0 * (1 - 1e-9)):  # still inside the gap bound
        assert train_lcc(ds, sigma=sigma).sigma == sigma
    assert len(solves) == 2


def test_a_procedure_two_path_builds_its_program_once(monkeypatch):
    [(train, test)] = procedure_two_folds(
        gen_shape("jain_like", 150, 0.1, 0), 5, 0)[:1]
    builds = count_calls(monkeypatch, lcc, "_centralization_lp")
    aucs = _grid_aucs(METHODS["lcc"], dict(PARAM_DEFAULTS), train, test, 0)
    assert len(builds) == 1
    # the grid holds refused values (NaN) and fitted ones
    assert 0 < np.isnan(aucs).sum() < len(aucs)


def test_refusals_are_the_infeasible_grid_programs():
    for train, _ in procedure_two_folds(
            gen_shape("jain_like", 150, 0.1, 0), 5, 0)[:3]:
        refused, infeasible = grid_refusals(
            lcc_path(train),
            lambda s: assemble_lcc_lp(train, DEFAULT_LAMBDA, s), GRID_SIGMA)
        assert refused == infeasible and refused


def test_model_from_beta_matches_training_geometry():
    ds = demo_gaussian_pair(m_per_class=25, seed=6)
    trained = train_lcc(ds)
    rebuilt = model_from_beta(ds, trained.beta, trained.lam, trained.sigma)
    assert rebuilt.l_hat == pytest.approx(trained.l_hat)
    np.testing.assert_allclose(rebuilt.epsilons >= trained.sigma - 1e-12, True)


def test_demo_pair_trains_clean():
    ds = demo_gaussian_pair(m_per_class=100, seed=42)
    model = train_lcc(ds)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_scale_invariance_of_labels():
    """Scaling beta by any positive factor scales scores but moves no
    label, because the threshold is built from the same projection."""
    rng = np.random.default_rng(0)
    ds = demo_gaussian_pair(m_per_class=30, seed=8)
    model = train_lcc(ds)
    base = model.predict(ds.features)
    for _ in range(10):
        k = float(rng.uniform(0.1, 50.0))
        scaled = model_from_beta(ds, model.beta * k, model.lam, model.sigma)
        np.testing.assert_array_equal(scaled.predict(ds.features), base)


def test_fqcc_epsilons_floor_at_sigma():
    ds = toy_1d()
    eps = fqcc_epsilons(ds.features @ np.array([1.0]), ds.labels,
                        0.5, 4.5, -0.01)
    assert np.all(eps >= -0.01)
    # the -1 point at 0 is much closer to its own center
    assert eps[0] == -0.01


def test_fqcc_objective_matches_hand_value():
    ds = toy_1d()
    beta = np.array([1.0])
    # centers 0.5 / 4.5, every instance strictly centralized -> all
    # slacks at sigma: F = -4 + lam * 4 * sigma
    expected = -4.0 + DEFAULT_LAMBDA * 4 * DEFAULT_SIGMA
    assert fqcc_objective(ds, beta, DEFAULT_LAMBDA, DEFAULT_SIGMA) == \
        pytest.approx(expected)


def test_fqcc_trains_and_descends():
    ds = demo_gaussian_pair(m_per_class=40, seed=10)
    model = train_fqcc(ds, seed=3)
    # the returned objective is the best ever seen, so re-evaluating
    # the stored projection reproduces it
    assert fqcc_objective(ds, model.beta, model.lam, model.sigma) == \
        pytest.approx(model.objective)
    start = np.clip(class_centers(ds)[1] - class_centers(ds)[0], -1.0, 1.0)
    assert model.objective <= fqcc_objective(ds, start, model.lam,
                                             model.sigma) + 1e-12


def test_fqcc_equal_centers_stop_at_the_first_start():
    # equal class centers: the first start is beta = 0, every projected
    # center gap is 0 and so is every subgradient, so each restart stops
    # at step 0 with value 0, and the tie goes to the first start
    ds = Dataset([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 [-1, -1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_fqcc(ds, seed=4)
    beta, value = fqcc_serial_oracle(ds.features, ds.labels, DEFAULT_LAMBDA,
                                     DEFAULT_SIGMA, 4, FQCC_RESTARTS,
                                     FQCC_ITERATIONS)
    np.testing.assert_array_equal(model.beta, [0.0, 0.0])
    np.testing.assert_array_equal(model.beta, beta)
    assert model.objective == value == 0.0


def test_fqcc_stopped_restart_keeps_its_iterate(monkeypatch):
    # restart 2's subgradient is forced below the 1e-15 stop: it stops at
    # step 0 and keeps its start, while the seeded starts inside the box
    # step on
    real_step, seen = lcc._fqcc_step, []

    def step(train, B, *args):
        seen.append(B.copy())
        values, grads = real_step(train, B, *args)
        grads[2] = 1e-17
        return values, grads

    monkeypatch.setattr(lcc, "_fqcc_step", step)
    data = demo_gaussian_pair(m_per_class=20, seed=3)
    model = train_fqcc(data, seed=1)
    assert len(seen) <= FQCC_ITERATIONS + 1
    for B in seen[1:]:
        np.testing.assert_array_equal(B[2], seen[0][2])
    others = [r for r in range(1, FQCC_RESTARTS) if r != 2]
    assert np.all(np.any(seen[1][others] != seen[0][others], axis=1))
    assert fqcc_bits(model) == fqcc_bits(fqcc_full_loop(
        data, DEFAULT_LAMBDA, DEFAULT_SIGMA, 1))


def p1_train(seed):
    """Procedure 1's normalized 70/30 train part of the demo Gaussians."""
    return _normalized(*stratified_split(parse_gen_spec("gaussian", seed),
                                         TRAIN_FRACTION, seed))[0]


def test_fqcc_stop_matches_the_full_loop():
    # procedure 1's splits, most of which stop within a dozen steps, and
    # the demo pair with a zero and a constant column, whose subgradients
    # are 0 there
    demo = demo_gaussian_pair()
    flat = Dataset(np.column_stack([demo.features, np.zeros(demo.m),
                                    np.full(demo.m, 3.0)]), demo.labels)
    for train, seed in [(p1_train(seed), seed) for seed in range(10)] + [
            (flat, 0)]:
        assert fqcc_bits(train_fqcc(train, seed=seed)) == fqcc_bits(
            fqcc_full_loop(train, DEFAULT_LAMBDA, DEFAULT_SIGMA, seed)), seed


def test_fqcc_stops_only_at_a_fixed_point(monkeypatch):
    # separable splits reach box corners within a dozen steps; on
    # overlapping circles no step leaves the batch as it was
    calls = count_calls(monkeypatch, lcc, "_fqcc_step")
    train_fqcc(p1_train(0), seed=0)
    assert len(calls) <= 20
    calls.clear()
    train_fqcc(parse_gen_spec("circles:m=100", 0), seed=0)
    assert len(calls) == FQCC_ITERATIONS + 1


def test_fqcc_predicts_demo_pair():
    ds = demo_gaussian_pair(m_per_class=60, seed=12)
    model = train_fqcc(ds, seed=1)
    assert np.mean(model.predict(ds.features) == ds.labels) >= 0.99


def test_fqcc_tie_goes_negative():
    ds = toy_1d()
    model = train_fqcc(ds, seed=0)
    mid = (model.c_neg_hat + model.c_pos_hat) / 2.0
    # equidistant from both centers in 1-D projection space
    v = np.array([[mid / model.beta[0]]]) if model.beta[0] != 0 else None
    assert v is not None
    assert model.score(v)[0] == pytest.approx(0.0, abs=1e-12)
    assert model.predict(v).tolist() == [-1]


def test_fqcc_deterministic_given_seed():
    ds = demo_gaussian_pair(m_per_class=30, seed=14)
    a = train_fqcc(ds, seed=5)
    b = train_fqcc(ds, seed=5)
    np.testing.assert_array_equal(a.beta, b.beta)
    assert a.objective == b.objective
