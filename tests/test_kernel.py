import re
import tracemalloc

import numpy as np
import pytest

import lcckit.kernel
from lcckit import lcc
from lcckit.data import (
    DataError,
    Dataset,
    demo_gaussian_pair,
    fit_normalizer,
    apply_normalizer,
    gen_shape,
    normalize_features,
)
from lcckit.kernel import (
    KernelSpec,
    assemble_klcc_lp,
    gram,
    kernel_eval,
    klcc_path,
    median_pairwise_distance,
    train_klcc,
)
from lcckit.evaluation import GRID_SIGMA, METHODS, PARAM_DEFAULTS, _grid_aucs
from lcckit.lcc import (ParameterError, TrainingError, assemble_lcc_lp,
                        train_lcc)
from lcckit.model_io import SavedClassifier, predict_saved
from tests.helpers import count_calls, grid_refusals, procedure_two_folds


def test_kernel_spec_validation():
    KernelSpec("linear")
    KernelSpec("rbf", 0.5)
    with pytest.raises(TrainingError):
        KernelSpec("poly")
    with pytest.raises(TrainingError):
        KernelSpec("rbf")
    with pytest.raises(TrainingError):
        KernelSpec("rbf", -1.0)


def test_linear_kernel_is_dot_product():
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    z = np.array([[3.0, 1.0]])
    np.testing.assert_allclose(kernel_eval(KernelSpec("linear"), x, z),
                               [[5.0], [-1.0]])


def test_rbf_kernel_values():
    spec = KernelSpec("rbf", 2.0)
    x = np.array([[0.0, 0.0]])
    z = np.array([[0.0, 0.0], [2.0, 0.0]])
    got = kernel_eval(spec, x, z)
    np.testing.assert_allclose(got, [[1.0, np.exp(-4.0 / 8.0)]])


def test_gram_symmetric_psd_unit_diagonal():
    ds = demo_gaussian_pair(m_per_class=25, seed=0)
    width = median_pairwise_distance(ds.features)
    K = gram(KernelSpec("rbf", width), ds.features)
    np.testing.assert_allclose(K, K.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)
    assert np.linalg.eigvalsh((K + K.T) / 2).min() > -1e-10


def test_median_pairwise_distance_hand_case():
    pts = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> median 2
    assert median_pairwise_distance(pts) == pytest.approx(2.0)


def test_median_pairwise_distance_degenerate():
    with pytest.raises(TrainingError):
        median_pairwise_distance(np.array([[1.0]]))
    with pytest.raises(TrainingError):
        median_pairwise_distance(np.ones((5, 2)))


def test_lp_dimensions():
    ds = demo_gaussian_pair(m_per_class=8, seed=1)
    prob = assemble_klcc_lp(ds, KernelSpec("linear"), 2.0, -0.01)
    assert prob.A.shape == (ds.m + 1, 2 * ds.m)
    np.testing.assert_array_equal(prob.lower[:ds.m], [-1.0] * ds.m)
    np.testing.assert_array_equal(prob.upper[:ds.m], [1.0] * ds.m)


def test_linear_kernel_agrees_with_plain_lcc_1d():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(6, 24))
        x = rng.normal(size=(m, 1)) + rng.choice([-2.0, 2.0], size=(m, 1))
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        ds = Dataset(x, y)
        lin = train_lcc(ds)
        ker = train_klcc(ds, KernelSpec("linear"))
        probe = rng.normal(scale=3.0, size=(40, 1))
        np.testing.assert_array_equal(lin.predict(probe), ker.predict(probe))


def test_linear_kernel_agrees_with_plain_lcc_2d():
    for seed in range(5):
        train = demo_gaussian_pair(m_per_class=40, seed=seed)
        probe = demo_gaussian_pair(m_per_class=80, seed=seed + 100).features
        lin = train_lcc(train)
        ker = train_klcc(train, KernelSpec("linear"))
        np.testing.assert_array_equal(lin.predict(train.features),
                                      ker.predict(train.features))
        np.testing.assert_array_equal(lin.predict(probe), ker.predict(probe))


def test_ktransform_scalar_and_batch():
    ds = demo_gaussian_pair(m_per_class=10, seed=2)
    model = train_klcc(ds, KernelSpec("linear"))
    one = model.transform(ds.features[:1])
    assert one.shape == (1,)
    batch = model.transform(ds.features[:3])
    assert batch.shape == (3,)
    assert batch[0] == pytest.approx(one[0])


def test_kscore_sign_drives_kpredict():
    ds = demo_gaussian_pair(m_per_class=20, seed=3)
    model = train_klcc(ds, KernelSpec("linear"))
    s = model.score(ds.features)
    p = model.predict(ds.features)
    np.testing.assert_array_equal(p, np.where(s < 0, -1, 1))


def test_rbf_separates_rings():
    ds = gen_shape("circles", m=120, noise=0.03, seed=0)
    norm = fit_normalizer(ds)
    nds = apply_normalizer(norm, ds)
    width = median_pairwise_distance(nds.features)
    model = train_klcc(nds, KernelSpec("rbf", width))
    # the model file carries the normalizer, so raw rows predict the same
    labels, _ = predict_saved(SavedClassifier(model, norm), ds.features)
    np.testing.assert_array_equal(labels, model.predict(nds.features))
    acc = np.mean(labels == ds.labels)
    assert acc >= 0.98


def test_rbf_generalizes_on_rings():
    ds = gen_shape("circles", m=120, noise=0.03, seed=1)
    norm = fit_normalizer(ds)
    nds = apply_normalizer(norm, ds)
    width = median_pairwise_distance(nds.features)
    model = train_klcc(nds, KernelSpec("rbf", width))
    fresh = gen_shape("circles", m=120, noise=0.03, seed=99)
    acc = np.mean(model.predict(normalize_features(norm, fresh.features))
                  == fresh.labels)
    assert acc >= 0.98


def test_infeasible_in_kernel_space():
    # both classes identical point sets: no alpha separates the centers
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    ds = Dataset(pts, np.array([-1, -1, 1, 1]))
    with pytest.raises(TrainingError, match="centers"):
        train_klcc(ds, KernelSpec("linear"))


def test_infeasible_sigma_beyond_gram_row_gap(monkeypatch):
    # the klcc program's centers are the mean Gram rows of each class, so
    # it is feasible exactly when |sigma| is at most their L1 gap
    ds = demo_gaussian_pair(m_per_class=15, seed=4)
    spec = KernelSpec("linear")
    K = gram(spec, ds.features)
    gap = float(np.abs(K[ds.labels == 1].mean(axis=0)
                       - K[ds.labels == -1].mean(axis=0)).sum())
    solves = count_calls(monkeypatch, lcckit.kernel, "solve")
    for past in (1.01, 1 + 1e-9):
        with pytest.raises(TrainingError, match="identical centers") as info:
            train_klcc(ds, spec, sigma=-past * gap)
        printed = re.search(r"\(L1 gap (\S+) < (\S+)\)$", str(info.value))
        # both sides print to full precision, so they differ
        assert printed.groups() == (f"{gap:.17g}", f"{past * gap:.17g}")
        assert float(printed[1]) == gap < float(printed[2]) == past * gap
    assert solves == []  # refused in closed form, before a solve
    for sigma in (-0.99 * gap, -(1 - 1e-9) * gap):  # still inside the bound
        assert train_klcc(ds, spec, sigma=sigma).sigma == sigma
    assert len(solves) == 2


def test_a_procedure_two_path_builds_one_gram_matrix_and_program(
        monkeypatch):
    [(train, test)] = procedure_two_folds(
        gen_shape("jain_like", 150, 0.1, 0), 5, 0)[:1]
    builds = count_calls(monkeypatch, lcc, "_centralization_lp")
    grams = count_calls(monkeypatch, lcckit.kernel, "gram")
    aucs = _grid_aucs(METHODS["klcc"], dict(PARAM_DEFAULTS), train, test, 0)
    assert len(builds) == len(grams) == 1
    # the grid holds refused values (NaN) and fitted ones
    assert 0 < np.isnan(aucs).sum() < len(aucs)


def test_every_program_of_a_sigma_path_shares_one_read_only_matrix(
        monkeypatch):
    [(train, test)] = procedure_two_folds(
        gen_shape("jain_like", 150, 0.1, 0), 5, 0)[:1]
    for method, module in (("lcc", lcc), ("klcc", lcckit.kernel)):
        solves = count_calls(monkeypatch, module, "solve")
        _grid_aucs(METHODS[method], dict(PARAM_DEFAULTS), train, test, 0)
        first = solves[0][0].A
        assert len(solves) > 1 and not first.flags.writeable
        assert all(problem.A is first for problem, _ in solves), method


@pytest.mark.parametrize("method", ["lcc", "klcc"])
def test_building_a_program_holds_little_beyond_its_matrix(method):
    # the matrix is written in place, with no m x m temporary beside it
    rng = np.random.default_rng(0)
    labels = np.where(np.arange(1000) % 2, 1, -1)
    train = Dataset(rng.normal(size=(1000, 10)) + 0.3 * labels[:, None],
                    labels)
    spec = KernelSpec("rbf", median_pairwise_distance(train.features))
    tracemalloc.start()
    try:
        problem = (assemble_lcc_lp(train, 2.0, -2.0 ** -7) if method == "lcc"
                   else assemble_klcc_lp(train, spec, 2.0, -2.0 ** -7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = problem.A.nbytes + (0 if method == "lcc" else 8 * train.m ** 2)
    assert peak <= 1.25 * held, peak / held


def test_refusals_are_the_infeasible_grid_programs():
    for train, _ in procedure_two_folds(
            gen_shape("jain_like", 150, 0.1, 0), 5, 0)[:3]:
        spec = KernelSpec("rbf", median_pairwise_distance(train.features))
        refused, infeasible = grid_refusals(
            klcc_path(train, spec),
            lambda s: assemble_klcc_lp(train, spec, lcc.DEFAULT_LAMBDA, s),
            GRID_SIGMA)
        assert refused == infeasible and refused


def test_kernel_eval_width_mismatch():
    with pytest.raises(TrainingError):
        kernel_eval(KernelSpec("linear"), np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("labels, lam, sigma, error", [
    ([-1, -1, 1, 1], 2.0, 0.5, ParameterError),
    ([-1, -1, 1, 1], 0.0, -0.01, ParameterError),
    ([1, 1, 1, 1], 2.0, -0.01, DataError),
], ids=["sigma", "lam", "one-class"])
@pytest.mark.parametrize("build", [train_klcc, assemble_klcc_lp],
                         ids=["train", "assemble"])
def test_klcc_checks_before_the_gram_matrix(monkeypatch, build, labels, lam,
                                            sigma, error):
    def no_gram(*args):
        raise AssertionError("the Gram matrix was built")

    monkeypatch.setattr(lcckit.kernel, "gram", no_gram)
    data = Dataset(np.array([[0.0], [1.0], [4.0], [5.0]]), labels)
    with pytest.raises(error):
        build(data, KernelSpec("rbf", 1.0), lam, sigma)
