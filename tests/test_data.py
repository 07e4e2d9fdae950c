import numpy as np
import pytest

from lcckit.data import (
    DataError,
    Dataset,
    Normalizer,
    SHAPE_NAMES,
    apply_normalizer,
    demo_gaussian_pair,
    denormalize_features,
    drop_zero_variance,
    fit_normalizer,
    gen_gaussian_pair,
    gen_shape,
    load_csv,
    normalize_features,
    projected_covariance,
    require_both_classes,
)


def test_dataset_basic_properties():
    ds = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [-1, 1, 1])
    assert ds.m == 3 and ds.n == 2
    assert ds.class_counts() == (1, 2)
    np.testing.assert_array_equal(ds.features_of(-1), [[1.0, 2.0]])


def test_dataset_arrays_are_read_only():
    ds = Dataset([[1.0], [2.0]], [-1, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_rejects_bad_input():
    with pytest.raises(DataError):
        Dataset([1.0, 2.0], [-1, 1])            # 1-D features
    with pytest.raises(DataError):
        Dataset([[1.0], [2.0]], [-1])           # label count mismatch
    with pytest.raises(DataError):
        Dataset([[np.nan], [2.0]], [-1, 1])     # non-finite
    with pytest.raises(DataError):
        Dataset([[1.0], [2.0]], [0, 1])         # labels not in {-1, +1}


@pytest.mark.parametrize("labels", [[-1.9, -1.2, 1.5, 1.99],
                                    [-1.0, np.nan, 1.0, 1.0]])
def test_dataset_refuses_labels_the_int_cast_would_mangle(labels):
    # -1.9 would truncate to -1; NaN has no integer at all
    with pytest.raises(DataError, match=r"labels must be -1 or \+1"):
        Dataset(np.zeros((4, 1)), labels)


def test_take_selects_rows():
    ds = Dataset([[0.0], [1.0], [2.0]], [-1, -1, 1])
    sub = ds.take([2, 0])
    np.testing.assert_array_equal(sub.features[:, 0], [2.0, 0.0])
    np.testing.assert_array_equal(sub.labels, [1, -1])


def test_require_both_classes():
    ds = Dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(DataError, match="both classes"):
        require_both_classes(ds, "training")


def test_load_csv_plain(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,-1\n3.0,4.0,1\n")
    ds = load_csv(str(p))
    assert ds.m == 2 and ds.n == 2
    np.testing.assert_array_equal(ds.labels, [-1, 1])


def test_load_csv_header_and_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,lab\n0.5,0.25,1\n1.5,2.5,0\n")
    ds = load_csv(str(p))
    np.testing.assert_array_equal(ds.labels, [1, -1])  # 0/1 remapped
    np.testing.assert_allclose(ds.features, [[0.5, 0.25], [1.5, 2.5]])


def test_load_csv_errors_name_line_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,-1\noops,1\n")
    with pytest.raises(DataError, match="line 2, column 1"):
        load_csv(str(p))
    p.write_text("1.0,-1\n2.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(str(p))
    p.write_text("1.0,3\n")
    with pytest.raises(DataError, match="labels"):
        load_csv(str(p))


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    ds = load_csv(str(p))
    assert ds.m == 0


def test_normalizer_round_trip():
    ds = Dataset([[1.0, 10.0], [2.0, 20.0], [3.0, 60.0]], [-1, 1, 1])
    norm = fit_normalizer(ds)
    scaled = apply_normalizer(norm, ds)
    np.testing.assert_allclose(scaled.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.features.std(axis=0), 1.0, atol=1e-12)
    back = denormalize_features(norm, scaled.features)
    np.testing.assert_allclose(back, ds.features, atol=1e-12)


def test_normalize_features_matches_apply():
    ds = demo_gaussian_pair(m_per_class=20, seed=1)
    norm = fit_normalizer(ds)
    np.testing.assert_array_equal(apply_normalizer(norm, ds).features,
                                  normalize_features(norm, ds.features))


def test_normalizer_rejects_dead_column():
    ds = Dataset([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], [-1, 1, 1])
    with pytest.raises(DataError, match="drop_zero_variance"):
        fit_normalizer(ds)


def test_drop_zero_variance():
    ds = Dataset([[1.0, 5.0, 0.0], [2.0, 5.0, 1.0]], [-1, 1])
    pruned, kept = drop_zero_variance(ds)
    np.testing.assert_array_equal(kept, [0, 2])
    assert pruned.n == 2
    # idempotent
    again, kept2 = drop_zero_variance(pruned)
    np.testing.assert_array_equal(kept2, [0, 1])
    np.testing.assert_array_equal(again.features, pruned.features)


def test_normalizer_dimension_mismatch():
    norm = Normalizer([0.0], [1.0])
    with pytest.raises(DataError, match="columns"):
        normalize_features(norm, np.zeros((3, 2)))


def test_projected_covariance_is_psd_and_fixed_point():
    raw = [[1.0, 2.0], [0.0, -3.0]]
    proj = projected_covariance(raw)
    np.testing.assert_allclose(proj, proj.T, atol=1e-12)
    assert np.linalg.eigvalsh(proj).min() >= -1e-12
    # a PSD input passes through unchanged
    psd = [[2.0, 0.5], [0.5, 1.0]]
    np.testing.assert_allclose(projected_covariance(psd), psd, atol=1e-12)


def test_negative_definite_covariance_collapses_to_point():
    proj = projected_covariance([[-1.0, 0.0], [0.0, -2.0]])
    np.testing.assert_array_equal(proj, np.zeros((2, 2)))
    ds = gen_gaussian_pair([0.0, 0.0], [[-1.0, 0.0], [0.0, -2.0]],
                           [5.0, 5.0], [[1.0, 0.0], [0.0, 1.0]],
                           m_per_class=8, seed=0)
    np.testing.assert_array_equal(ds.features_of(-1), np.zeros((8, 2)))


def test_gen_gaussian_pair_layout_and_determinism():
    a = gen_gaussian_pair([0.0], [[1.0]], [4.0], [[1.0]], 6, seed=7)
    b = gen_gaussian_pair([0.0], [[1.0]], [4.0], [[1.0]], 6, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, [-1] * 6 + [1] * 6)


def test_gen_gaussian_pair_moments():
    # population check with a generous sample
    ds = gen_gaussian_pair([1.0, -2.0], [[2.0, 0.0], [0.0, 0.5]],
                           [10.0, 10.0], [[1.0, 0.0], [0.0, 1.0]],
                           m_per_class=20000, seed=3)
    neg = ds.features_of(-1)
    np.testing.assert_allclose(neg.mean(axis=0), [1.0, -2.0], atol=0.05)
    np.testing.assert_allclose(np.cov(neg.T), [[2.0, 0.0], [0.0, 0.5]],
                               atol=0.08)


def test_demo_pair_defaults():
    ds = demo_gaussian_pair()
    assert ds.m == 400 and ds.n == 2
    assert ds.class_counts() == (200, 200)


def test_gen_shape_names_and_validation():
    with pytest.raises(DataError, match="unknown shape"):
        gen_shape("blob", m=10, noise=0.0, seed=0)
    with pytest.raises(DataError):
        gen_shape("circles", m=3, noise=0.0, seed=0)
    with pytest.raises(DataError):
        gen_shape("circles", m=10, noise=-0.1, seed=0)


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_gen_shape_contract(shape):
    ds = gen_shape(shape, m=41, noise=0.02, seed=5)
    assert ds.m == 41 and ds.n == 2
    neg, pos = ds.class_counts()
    assert neg == 20 and pos == 21
    again = gen_shape(shape, m=41, noise=0.02, seed=5)
    np.testing.assert_array_equal(ds.features, again.features)


def test_circles_noise_free_radii_separate():
    ds = gen_shape("circles", m=60, noise=0.0, seed=1)
    r_inner = np.linalg.norm(ds.features_of(-1), axis=1)
    r_outer = np.linalg.norm(ds.features_of(1), axis=1)
    assert r_inner.max() < r_outer.min()


def test_spiral_reproduction():
    a = gen_shape("spiral", m=200, noise=0.05, seed=11)
    b = gen_shape("spiral", m=200, noise=0.05, seed=11)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
