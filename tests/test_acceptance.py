"""Package-level acceptance checks, one test per guarantee.

Each test states a contract the library ships with: oracle agreement
for the LP solver, the AUC computation, and the rank-sum test; exact
structural and invariance properties of the centralization program;
desk-scale reproductions of the two-Gaussian example, the kernel shape
experiments, and the LP-versus-quadratic equivalence; and an optional
real-data reference score.  Run with -v for one pass/fail line each.
"""

import math
import os
import time

import numpy as np
import pytest

from lcckit.data import (Dataset, apply_normalizer, demo_gaussian_pair,
                         fit_normalizer, gen_gaussian_pair, gen_shape,
                         load_csv)
from lcckit.evaluation import (BenchmarkConfig, rank_sum_test, roc_auc,
                               run_benchmark, stratified_split)
from lcckit.kernel import (KernelSpec, assemble_klcc_lp,
                           median_pairwise_distance, train_klcc)
from lcckit.lcc import (assemble_lcc_lp, model_from_beta, train_fqcc,
                        train_lcc)
from lcckit.lp import LpProblem, solve

from tests.helpers import auc_brute_force, lp_brute_force, random_box_lp, \
    rank_sum_exact


def normalized_split(data, seed, fraction=0.7):
    train, test = stratified_split(data, fraction, seed)
    norm = fit_normalizer(train)
    return apply_normalizer(norm, train), apply_normalizer(norm, test)


def random_two_class(rng, m, n):
    features = rng.normal(0.0, 2.0, (m, n))
    labels = np.where(rng.random(m) < 0.5, -1, 1)
    labels[0], labels[1] = -1, 1
    return Dataset(features, labels)


def test_lp_solver_matches_vertex_enumeration_on_200_programs():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        raw = random_box_lp(rng)
        status, best = lp_brute_force(*raw)
        if status != "optimal":
            continue
        sol = solve(LpProblem(*raw))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - best) <= 1e-6
        checked += 1
    assert time.perf_counter() - start < 5.0


def test_closer_to_first_center_means_below_the_midpoint():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 3.0, 10_000)
    pair = rng.normal(0.0, 3.0, (10_000, 2))
    b = np.minimum(pair[:, 0], pair[:, 1])
    c = np.maximum(pair[:, 0], pair[:, 1])
    keep = b < c
    a, b, c = a[keep], b[keep], c[keep]
    closer = np.abs(a - b) < np.abs(a - c)
    below = a < (b + c) / 2.0
    assert np.array_equal(closer, below)


def test_assembled_programs_have_exact_row_and_variable_counts():
    rng = np.random.default_rng(12)
    for m, n in ((4, 1), (10, 3), (33, 7), (8, 2)):
        data = random_two_class(rng, m, n)
        problem = assemble_lcc_lp(data, 2.0, -0.01)
        assert problem.num_rows == m + 1
        assert problem.num_vars == m + n
        kernel_problem = assemble_klcc_lp(data, KernelSpec("linear"),
                                          2.0, -0.01)
        assert kernel_problem.num_rows == m + 1
        assert kernel_problem.num_vars == 2 * m


def test_positive_rescaling_of_coefficients_never_changes_labels():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = int(rng.integers(6, 40))
        n = int(rng.integers(1, 7))
        data = random_two_class(rng, m, n)
        beta = rng.uniform(-1.0, 1.0, n)
        if not np.any(beta):
            beta[0] = 0.5
        factor = float(rng.uniform(0.05, 50.0))
        base = model_from_beta(data, beta, 2.0, -0.01)
        scaled = model_from_beta(data, factor * beta, 2.0, -0.01)
        probe = rng.normal(0.0, 3.0, (25, n))
        assert np.array_equal(base.predict(probe), scaled.predict(probe))


def test_gaussian_example_reaches_mean_test_auc_099():
    start = time.perf_counter()
    data = demo_gaussian_pair()
    aucs = []
    for seed in range(20):
        train, test = normalized_split(data, seed)
        model = train_lcc(train)
        aucs.append(roc_auc(model.score(test.features), test.labels).auc)
    assert np.mean(aucs) >= 0.99
    assert time.perf_counter() - start < 10.0


def test_rbf_training_separates_rings_spiral_and_jain_shapes():
    start = time.perf_counter()
    floors = {"circles": (0.98, 0.98), "spiral": (0.98, 0.98),
              "jain_like": (0.0, 0.95)}
    for shape, (train_floor, test_floor) in floors.items():
        for seed in range(10):
            data = gen_shape(shape, 300, 0.03, seed=seed)
            train, test = normalized_split(data, seed)
            width = median_pairwise_distance(train.features) / 8.0
            model = train_klcc(train, KernelSpec("rbf", width))
            train_acc = np.mean(model.predict(train.features) == train.labels)
            test_acc = np.mean(model.predict(test.features) == test.labels)
            assert train_acc >= train_floor, (shape, seed, train_acc)
            assert test_acc >= test_floor, (shape, seed, test_acc)
    assert time.perf_counter() - start < 60.0


def test_quadratic_variant_ties_lp_variant_on_auc_but_trains_slower():
    I2 = np.eye(2)
    datasets = (
        demo_gaussian_pair(m_per_class=60, seed=10),
        gen_gaussian_pair((0, 0), I2, (1.6, 1.2), [[1, 0.3], [0.3, 1]],
                          60, seed=11),
        gen_gaussian_pair(np.zeros(4), np.eye(4), 0.9 * np.ones(4),
                          1.5 * np.eye(4), 60, seed=12),
        gen_gaussian_pair([0.0], [[1.0]], [2.0], [[1.0]], 70, seed=13),
        gen_gaussian_pair(np.zeros(3), np.diag([2.0, 1.0, 0.5]),
                          [1.2, 0.8, 0.5], np.eye(3), 60, seed=14),
    )
    lp_times, quad_times = [], []
    for data in datasets:
        lp_aucs, quad_aucs = [], []
        for seed in range(20):
            train, test = normalized_split(data, 100 + seed)
            t = time.perf_counter()
            lp_model = train_lcc(train)
            lp_times.append(time.perf_counter() - t)
            t = time.perf_counter()
            quad_model = train_fqcc(train, seed=100 + seed)
            quad_times.append(time.perf_counter() - t)
            lp_aucs.append(roc_auc(lp_model.score(test.features),
                                   test.labels).auc)
            quad_aucs.append(roc_auc(quad_model.score(test.features),
                                     test.labels).auc)
        assert rank_sum_test(lp_aucs, quad_aucs) > 0.05
    assert np.median(lp_times) < np.median(quad_times)


def test_auc_matches_pairwise_counting_on_1000_vectors():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        labels = np.where(rng.random(m) < 0.5, -1, 1)
        labels[0], labels[1] = -1, 1
        scores = rng.normal(0.0, 1.0, m)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        assert abs(roc_auc(scores, labels).auc
                   - auc_brute_force(scores, labels)) <= 1e-12


def test_rank_sum_p_matches_enumeration_at_every_small_size():
    rng = np.random.default_rng(17)
    for n_a in range(1, 12):
        for n_b in range(1, 13 - n_a):
            for _ in range(3):
                a = rng.normal(0.0, 1.0, n_a)
                b = rng.normal(0.3, 1.0, n_b)
                if rng.random() < 0.4:
                    a = np.round(a, 0)
                    b = np.round(b, 0)
                assert abs(rank_sum_test(a, b)
                           - rank_sum_exact(a, b)) <= 0.03


BC_PATHS = (os.environ.get("LCCKIT_BC_CSV", ""),
            os.path.join(os.path.dirname(__file__), "data",
                         "breast_cancer.csv"),
            "data/breast_cancer.csv")
BC_FILE = next((p for p in BC_PATHS if p and os.path.exists(p)), None)


@pytest.mark.skipif(BC_FILE is None,
                    reason="breast-cancer CSV not present; set LCCKIT_BC_CSV")
def test_breast_cancer_reference_auc():
    start = time.perf_counter()
    data = load_csv(BC_FILE)
    config = BenchmarkConfig(data=data, methods=("lcc",), runs=50, seed=42)
    report = run_benchmark(config)
    aucs = [r.test_auc for r in report.records if r.error is None]
    assert len(aucs) == 50
    assert abs(float(np.mean(aucs)) - 0.9558) <= 0.03
    assert time.perf_counter() - start < 120.0
