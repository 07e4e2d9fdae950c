import math

import numpy as np
import pytest

from lcckit.data import Dataset, demo_gaussian_pair, gen_shape
from lcckit.evaluation import (
    GRID_LDA_REG,
    GRID_SIGMA,
    GRID_SVM_LAMBDA,
    BenchmarkConfig,
    EvalError,
    EvalReport,
    GridRecord,
    METHOD_NAMES,
    RunRecord,
    aggregate_ranks,
    check_methods,
    rank_sum_test,
    report_to_csv,
    roc_auc,
    run_benchmark,
    stratified_kfold,
    stratified_split,
    summary_table,
    _normalized,
    _ranks_from_scores,
)

from tests.helpers import (auc_brute_force, procedure_two_cold,
                           rank_sum_exact)


def two_class(m_neg, m_pos, seed=0):
    rng = np.random.default_rng(seed)
    feats = np.vstack([rng.normal(0.0, 1.0, (m_neg, 2)),
                       rng.normal(4.0, 1.0, (m_pos, 2))])
    labels = np.array([-1] * m_neg + [1] * m_pos)
    return Dataset(feats, labels)


# ------------------------------------------------------------------ splits

def test_split_counts_70():
    tr, te = stratified_split(two_class(10, 10), 0.7, seed=0)
    assert tr.class_counts() == (7, 7)
    assert te.class_counts() == (3, 3)


def test_split_counts_half_of_four():
    tr, te = stratified_split(two_class(4, 4), 0.5, seed=1)
    assert tr.class_counts() == (2, 2)
    assert te.class_counts() == (2, 2)


def test_split_deterministic():
    ds = two_class(12, 9, seed=2)
    a = stratified_split(ds, 0.7, seed=3)
    b = stratified_split(ds, 0.7, seed=3)
    np.testing.assert_array_equal(a[0].features, b[0].features)
    np.testing.assert_array_equal(a[1].features, b[1].features)


def test_split_rejects_empty_side():
    with pytest.raises(EvalError, match="empty train or test"):
        stratified_split(two_class(2, 10), 0.3, seed=0)  # floor(0.6) = 0
    with pytest.raises(EvalError):
        stratified_split(two_class(5, 5), 1.2, seed=0)


def test_split_partitions_dataset():
    ds = two_class(11, 7, seed=4)
    tr, te = stratified_split(ds, 0.6, seed=5)
    assert tr.m + te.m == ds.m
    rows = {tuple(r) for r in tr.features} | {tuple(r) for r in te.features}
    assert len(rows) == ds.m


def test_kfold_balanced():
    folds = stratified_kfold(two_class(100, 100, seed=6), 10, seed=7)
    assert len(folds) == 10
    ds = two_class(100, 100, seed=6)
    for fold in folds:
        labels = ds.labels[fold]
        assert (labels == -1).sum() == 10
        assert (labels == 1).sum() == 10


def test_kfold_partition_and_spread():
    ds = two_class(23, 17, seed=8)
    folds = stratified_kfold(ds, 5, seed=9)
    union = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(union, np.arange(ds.m))
    for label in (-1, 1):
        sizes = [(ds.labels[f] == label).sum() for f in folds]
        assert max(sizes) - min(sizes) <= 1


def test_kfold_class_too_small():
    with pytest.raises(EvalError, match="fewer than k"):
        stratified_kfold(two_class(3, 40), 5, seed=0)


# --------------------------------------------------------------------- AUC

def test_auc_perfect_separation():
    r = roc_auc([1.0, 2.0, 10.0, 11.0], [-1, -1, 1, 1])
    assert r.auc == 1.0


def test_auc_all_tied():
    r = roc_auc([3.0, 3.0, 3.0, 3.0], [-1, 1, -1, 1])
    assert r.auc == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(4, 51))
        s = np.round(rng.normal(size=m), 1)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        assert abs(roc_auc(s, y).auc - auc_brute_force(s, y)) < 1e-12


def test_auc_curve_shape_and_area():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(50):
        m = int(rng.integers(6, 40))
        s = np.round(rng.normal(size=m), 1)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        cases.append((s, y))
    # a NaN score ranks highest in the AUC, and so in the curve
    cases.append((np.array([np.nan, 0.1, 0.2, 0.3]),
                  np.array([1, -1, 1, -1])))
    for s, y in cases:
        r = roc_auc(s, y)
        assert tuple(r.curve[0]) == (0.0, 0.0)
        assert tuple(r.curve[-1]) == (1.0, 1.0)
        assert np.all(np.diff(r.curve[:, 0]) >= 0)
        assert np.all(np.diff(r.curve[:, 1]) >= 0)
        area = np.trapezoid(r.curve[:, 1], r.curve[:, 0])
        assert abs(area - r.auc) < 1e-9


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(12)
    s = rng.normal(size=30)
    y = np.where(rng.random(30) < 0.5, -1, 1)
    y[:2] = [-1, 1]
    base = roc_auc(s, y).auc
    assert roc_auc(np.exp(s), y).auc == pytest.approx(base, abs=1e-15)
    assert roc_auc(3.0 * s + 7.0, y).auc == pytest.approx(base, abs=1e-15)


def test_auc_negation_symmetry():
    rng = np.random.default_rng(13)
    s = np.round(rng.normal(size=25), 1)
    y = np.where(rng.random(25) < 0.5, -1, 1)
    y[:2] = [-1, 1]
    assert roc_auc(-s, -y).auc == pytest.approx(roc_auc(s, y).auc, abs=1e-15)


def test_auc_needs_both_classes():
    with pytest.raises(EvalError):
        roc_auc([1.0, 2.0], [1, 1])


def test_auc_against_sklearn():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(14)
    for _ in range(50):
        m = int(rng.integers(4, 60))
        s = np.round(rng.normal(size=m), 1)
        y = np.where(rng.random(m) < 0.5, -1, 1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        assert roc_auc(s, y).auc == pytest.approx(
            sklearn.roc_auc_score(y, s), abs=1e-12)


# ---------------------------------------------------------------- rank sum

def test_rank_sum_identical_samples():
    a = np.arange(10.0)
    assert rank_sum_test(a, a) >= 0.99


def test_rank_sum_disjoint_samples():
    assert rank_sum_test(np.arange(1.0, 11), np.arange(11.0, 21)) < 0.01


def test_rank_sum_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(15)
    for _ in range(60):
        n_a = int(rng.integers(1, 7))
        n_b = int(rng.integers(1, 13 - n_a))
        a = np.round(rng.normal(size=n_a), 1)
        b = np.round(rng.normal(size=n_b), 1)
        assert rank_sum_test(a, b) == pytest.approx(rank_sum_exact(a, b),
                                                    abs=1e-12)


def test_rank_sum_symmetric_in_arguments():
    rng = np.random.default_rng(16)
    a = rng.normal(size=20)
    b = rng.normal(size=25)
    assert rank_sum_test(a, b) == pytest.approx(rank_sum_test(b, a),
                                                abs=1e-12)


def test_rank_sum_handles_heavy_ties():
    a = np.ones(20)
    b = np.ones(20)
    assert rank_sum_test(a, b) == 1.0
    a = np.concatenate([np.zeros(10), np.ones(10)])
    b = np.ones(20)
    assert rank_sum_test(a, b) < 0.05


def test_rank_sum_approximation_tracks_exact_at_moderate_sizes():
    """Above the exact cutoff the normal approximation should sit close
    to enumeration; sizes 7+6 are just beyond the cutoff and still small
    enough to enumerate here."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.normal(size=7)
        b = rng.normal(size=6)
        approx = rank_sum_test(a, b)
        exact = rank_sum_exact(a, b)
        assert abs(approx - exact) < 0.03


def test_rank_sum_empty_rejected():
    with pytest.raises(EvalError):
        rank_sum_test([], [1.0])


# -------------------------------------------------------------- benchmark

def test_check_methods_validation():
    with pytest.raises(EvalError, match="unknown method"):
        check_methods(["forest"], {})
    with pytest.raises(EvalError, match="lcc or klcc"):
        check_methods(["lda"], {"discriminator": "dist"})
    with pytest.raises(EvalError, match="unknown discriminator"):
        check_methods(["lcc"], {"discriminator": "2nn"})
    with pytest.raises(EvalError, match="unknown parameter"):
        check_methods(["lcc"], {"gamma": 1.0})
    ds = demo_gaussian_pair(m_per_class=10, seed=1)
    with pytest.raises(EvalError, match="lcc or klcc"):
        run_benchmark(BenchmarkConfig(ds, ("lcc", "lda"), runs=1,
                                      params={"discriminator": "one_nn"}))


def test_grid_definitions():
    assert len(GRID_SIGMA) == 15
    assert GRID_SIGMA[0] == -(2.0 ** -7)
    assert GRID_SIGMA[-1] == -(2.0 ** 7)
    assert len(GRID_LDA_REG) == 15
    assert GRID_LDA_REG[0] == pytest.approx(1 / 15)
    assert GRID_LDA_REG[-1] == 1.0
    assert len(GRID_SVM_LAMBDA) == 15
    assert GRID_SVM_LAMBDA[0] == pytest.approx(10.0 ** -2)
    assert GRID_SVM_LAMBDA[-1] == pytest.approx(10.0 ** (26 / 15))


def test_prepare_split_normalizes_train_only():
    ds = demo_gaussian_pair(m_per_class=40, seed=20)
    train, test = _normalized(*stratified_split(ds, 0.7, seed=21))
    np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)
    # the test side borrows training statistics, so it is off (0, 1)
    assert abs(test.features.mean(axis=0)).max() > 1e-6


def _rare_column(seed):
    """60 rows: two class-shifted Gaussian features plus a column that
    is 1 on two rows and 0 elsewhere, so many training sides hold it
    constant."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([-1, 1], 30)
    rare = np.zeros(60)
    rare[rng.choice(60, 2, replace=False)] = 1.0
    feats = np.column_stack([rng.normal(0.0, 1.0, (60, 2))
                             + labels[:, None], rare])
    return Dataset(feats, labels)


@pytest.mark.parametrize("procedure", [1, 2])
def test_column_constant_on_a_training_side_is_dropped(procedure):
    for seed in range(20):
        report = run_benchmark(BenchmarkConfig(
            _rare_column(seed), ("lcc", "lda"), runs=5, folds=5, seed=seed,
            procedure=procedure))
        assert all(r.error is None for r in report.records), seed
        assert all(g.best_auc > 0.5 for g in report.grid_records), seed


def test_normalized_drops_the_training_sides_constant_columns():
    train = Dataset([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [-1, 1, 1])
    test = Dataset([[4.0, 1.0]], [1])
    train_n, test_n = _normalized(train, test)
    assert train_n.n == test_n.n == 1
    assert test_n.features[0, 0] == (4.0 - 2.0) / np.sqrt(2.0 / 3.0)


def test_procedure_one_record_counts_and_shared_splits():
    ds = demo_gaussian_pair(m_per_class=20, seed=22)
    cfg = BenchmarkConfig(ds, ("lcc", "lda"), runs=4, seed=23)
    report = run_benchmark(cfg)
    assert len(report.records) == 8
    by_method = {}
    for r in report.records:
        by_method.setdefault(r.method, []).append(r)
    assert sorted(by_method) == ["lcc", "lda"]
    assert [r.run for r in by_method["lcc"]] == [0, 1, 2, 3]


def test_procedure_one_times_each_fit():
    ds = demo_gaussian_pair(m_per_class=10, seed=2)
    report = run_benchmark(BenchmarkConfig(ds, ("lcc", "fqcc"), runs=2))
    assert len(report.records) == 4
    assert all(math.isfinite(r.train_ms) and r.train_ms >= 0.0
               for r in report.records)


def test_procedure_one_failures_recorded_not_raised():
    ds = demo_gaussian_pair(m_per_class=15, seed=24)
    # sigma far beyond the attainable center gap: lcc fails, lda works
    cfg = BenchmarkConfig(ds, ("lcc", "lda"), runs=2, seed=25,
                          params={"sigma": -1e6})
    report = run_benchmark(cfg)
    lcc_records = [r for r in report.records if r.method == "lcc"]
    lda_records = [r for r in report.records if r.method == "lda"]
    assert all(r.error is not None for r in lcc_records)
    assert all(math.isnan(r.test_auc) for r in lcc_records)
    assert all(r.error is None for r in lda_records)


def test_procedure_one_reproducible_modulo_time():
    ds = demo_gaussian_pair(m_per_class=15, seed=26)
    cfg = BenchmarkConfig(ds, ("lcc", "lda"), runs=3, seed=27)
    def strip_time(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:4] + row[5:] for row in rows]
    a = report_to_csv(run_benchmark(cfg))
    b = report_to_csv(run_benchmark(cfg))
    assert strip_time(a) == strip_time(b)


def test_procedure_one_pvalues_against_reference():
    ds = demo_gaussian_pair(m_per_class=20, seed=28)
    cfg = BenchmarkConfig(ds, ("lcc", "lda", "svm"), runs=4, seed=29)
    report = run_benchmark(cfg)
    assert set(report.p_test) == {"lda", "svm"}
    for p in report.p_test.values():
        assert 0.0 <= p <= 1.0
    table = summary_table(report)
    assert "lcc" in table and "lda" in table


def test_procedure_one_reference_is_first_method_without_lcc():
    ds = demo_gaussian_pair(m_per_class=15, seed=35)
    report = run_benchmark(BenchmarkConfig(ds, ("lda", "svm"), runs=3,
                                           seed=36))
    assert report.reference == "lda"
    assert set(report.p_train) == set(report.p_test) == \
        set(report.p_time) == {"svm"}


def test_procedure_two_grid_and_ranks():
    ds = demo_gaussian_pair(m_per_class=25, seed=30)
    cfg = BenchmarkConfig(ds, ("lcc", "lda"), seed=31, procedure=2, folds=5)
    report = run_benchmark(cfg)
    assert len(report.grid_records) == 2
    for g in report.grid_records:
        assert g.method in ("lcc", "lda")
        grid = GRID_SIGMA if g.method == "lcc" else GRID_LDA_REG
        assert g.best_param in grid
        assert len(g.fold_aucs) == 5
    assert set(report.ranks) == {"lcc", "lda"}
    csv = report_to_csv(report)
    assert csv.startswith("method,param_name")
    assert summary_table(report)


def test_procedure_two_matches_the_cold_loop_for_every_method():
    """Each method's fits on one fold give what a fresh fit per grid value
    gives: lcc's and klcc's chains as well as fqcc's, lda's and svm's."""
    config = BenchmarkConfig(gen_shape("jain_like", 60, 0.03, 0),
                             METHOD_NAMES, seed=0, procedure=2, folds=3)
    _, records = procedure_two_cold(config)
    assert run_benchmark(config).grid_records == tuple(records)


def test_summary_table_procedure_one_text():
    # lcc is the reference; lda has a failed run and the flags +, * and -;
    # fqcc and klcc are missing from the p-values, and klcc never fitted
    nan = math.nan
    records = [RunRecord(*row) for row in (
        ("lda", 0, 0.91, 0.88, 2.5), ("lcc", 0, 0.9, 0.85, 12.0),
        ("svm", 0, 0.8, 0.9, 30.0),
        ("fqcc", 0, nan, nan, nan, "TrainingError: no fit"),
        ("lda", 1, nan, nan, nan, "LinAlgError: singular"),
        ("lcc", 1, 0.8, 0.75, 10.0), ("svm", 1, 0.7, 0.95, 31.5),
        ("fqcc", 1, 0.6, 0.6, 400.0),
        ("lda", 2, 0.95, 0.7, 1.5), ("lcc", 2, 0.85, 0.8, 11.0),
        ("svm", 2, 0.75, 0.8, 29.0),
        ("klcc", 0, nan, nan, nan, "CyclingError: stuck"))]
    report = EvalReport(1, "lcc", tuple(records),
                        p_train={"lda": 0.01, "svm": 0.04},
                        p_test={"lda": 0.02, "svm": 0.049},
                        p_time={"lda": 0.5, "svm": 0.001})
    assert summary_table(report) == (
        "method          train AUC         test AUC      time ms  failures\n"
        "lda       0.9300±0.0200+  0.7900±0.0900*        2.0-         1\n"
        "lcc       0.8500±0.0408   0.8000±0.0408        11.0          0\n"
        "svm       0.7500±0.0408*  0.8833±0.0624+       30.2*         0\n"
        "fqcc      0.6000±0.0000   0.6000±0.0000       400.0          1\n"
        "klcc         nan±nan         nan±nan            nan          1\n")


def test_summary_table_procedure_two_text_with_tied_ranks():
    grid = (GridRecord("lda", "lambda_reg", 0.2, 0.875, (0.8, 0.95)),
            GridRecord("lcc", "sigma", -0.0078125, 0.9125, (0.9, 0.925)),
            GridRecord("klcc", "sigma", -128.0, 0.9125, (0.925, 0.9)),
            GridRecord("svm", "lambda", 1e-06, 0.5, (0.5, 0.5)))
    report = EvalReport(2, "lcc", grid_records=grid,
                        ranks={"lda": 2.0, "lcc": 0.5, "klcc": 0.5,
                               "svm": 3.0})
    assert summary_table(report) == (
        "method   parameter      best value   best AUC   rank\n"
        "lcc      sigma          -0.0078125     0.9125    0.5\n"
        "klcc     sigma                -128     0.9125    0.5\n"
        "lda      lambda_reg            0.2     0.8750    2.0\n"
        "svm      lambda              1e-06     0.5000    3.0\n")


def test_ranks_zero_indexed_with_tie_correction():
    ranks = _ranks_from_scores({"a": 0.9, "b": 0.8, "c": 0.9})
    assert ranks == {"a": 0.5, "c": 0.5, "b": 2.0}


def test_aggregate_ranks():
    mean = aggregate_ranks([{"a": 0.0, "b": 1.0}, {"a": 1.0, "b": 0.0},
                            {"a": 0.0, "b": 1.0}])
    assert mean["a"] == pytest.approx(1 / 3)
    assert mean["b"] == pytest.approx(2 / 3)
    with pytest.raises(EvalError):
        aggregate_ranks([{"a": 0.0}, {"b": 0.0}])
    with pytest.raises(EvalError):
        aggregate_ranks([])


def test_benchmark_config_validation():
    ds = demo_gaussian_pair(m_per_class=10, seed=32)
    with pytest.raises(EvalError):
        run_benchmark(BenchmarkConfig(ds, ()))
    with pytest.raises(EvalError):
        run_benchmark(BenchmarkConfig(ds, ("lcc",), runs=0))
    with pytest.raises(EvalError):
        run_benchmark(BenchmarkConfig(ds, ("lcc",), procedure=3))


def test_benchmark_drops_dead_columns():
    rng = np.random.default_rng(33)
    feats = np.column_stack([rng.normal(size=30), np.full(30, 5.0),
                             np.concatenate([np.zeros(15), np.ones(15) * 4])])
    ds = Dataset(feats, np.array([-1] * 15 + [1] * 15))
    cfg = BenchmarkConfig(ds, ("lcc",), runs=2, seed=34)
    report = run_benchmark(cfg)  # would fail in fit_normalizer otherwise
    assert all(r.error is None for r in report.records)
