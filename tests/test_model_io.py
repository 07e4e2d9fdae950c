"""Saved-model round trips: a loaded model predicts bit-for-bit identically."""

import numpy as np
import pytest

from lcckit.data import (apply_normalizer, demo_gaussian_pair,
                         drop_zero_variance, fit_normalizer, gen_shape)
from lcckit.discriminators import fit_discriminator
from lcckit.kernel import KernelSpec, median_pairwise_distance, train_klcc
from lcckit.lcc import LccModel, train_fqcc, train_lcc
from lcckit.baselines import train_lda, train_linear_svm
from lcckit.evaluation import Discriminated
from lcckit.model_io import (ModelIoError, SavedClassifier, load_classifier,
                             predict_saved, save_classifier)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def prepared(data):
    pruned, kept = drop_zero_variance(data)
    norm = fit_normalizer(pruned)
    return apply_normalizer(norm, pruned), norm, kept, data.n


def roundtrip(tmp_path, saved, raw_features):
    path = str(tmp_path / "model.txt")
    save_classifier(path, saved)
    loaded = load_classifier(path)
    before = predict_saved(saved, raw_features)
    after = predict_saved(loaded, raw_features)
    assert np.array_equal(before[0], after[0])
    assert bits(before[1]) == bits(after[1])
    return loaded


def test_lcc_round_trip_bit_exact(tmp_path):
    data = demo_gaussian_pair(m_per_class=40, seed=3)
    ready, norm, kept, n = prepared(data)
    model = train_lcc(ready)
    saved = SavedClassifier(model, norm, kept, n)
    loaded = roundtrip(tmp_path, saved, data.features)
    assert bits(loaded.model.beta) == bits(model.beta)
    assert bits([loaded.model.l_hat]) == bits([model.l_hat])


def test_fqcc_round_trip_bit_exact(tmp_path):
    data = demo_gaussian_pair(m_per_class=30, seed=5)
    ready, norm, kept, n = prepared(data)
    model = train_fqcc(ready, seed=5)
    saved = SavedClassifier(model, norm, kept, n)
    roundtrip(tmp_path, saved, data.features)


def test_klcc_round_trip_bit_exact(tmp_path):
    data = gen_shape("circles", 60, 0.05, seed=2)
    ready, norm, kept, n = prepared(data)
    width = median_pairwise_distance(ready.features) / 2.0
    model = train_klcc(ready, KernelSpec("rbf", width))
    saved = SavedClassifier(model, norm, kept, n)
    loaded = roundtrip(tmp_path, saved, data.features)
    assert bits(loaded.model.train_features) == bits(model.train_features)
    assert loaded.model.spec.rbf_width == width


def test_klcc_linear_kernel_round_trip(tmp_path):
    data = demo_gaussian_pair(m_per_class=25, seed=9)
    ready, norm, kept, n = prepared(data)
    model = train_klcc(ready, KernelSpec("linear"))
    saved = SavedClassifier(model, norm, kept, n)
    loaded = roundtrip(tmp_path, saved, data.features)
    assert loaded.model.spec.kind == "linear"
    assert loaded.model.spec.rbf_width is None


def test_lda_round_trip_bit_exact(tmp_path):
    data = demo_gaussian_pair(m_per_class=40, seed=7)
    ready, norm, kept, n = prepared(data)
    saved = SavedClassifier(train_lda(ready), norm, kept, n)
    roundtrip(tmp_path, saved, data.features)


def test_svm_round_trip_bit_exact(tmp_path):
    data = demo_gaussian_pair(m_per_class=40, seed=11)
    ready, norm, kept, n = prepared(data)
    model = train_linear_svm(ready)
    saved = SavedClassifier(model, norm, kept, n)
    roundtrip(tmp_path, saved, data.features)


@pytest.mark.parametrize("kind", ["dist", "one_nn", "one_sv"])
def test_discriminator_round_trip(tmp_path, kind):
    data = demo_gaussian_pair(m_per_class=30, seed=13)
    ready, norm, kept, n = prepared(data)
    model = train_lcc(ready)
    rule = fit_discriminator(kind, model.transform(ready.features),
                             ready.labels, model)
    saved = SavedClassifier(Discriminated(model, rule), norm, kept, n)
    loaded = roundtrip(tmp_path, saved, data.features)
    assert loaded.model.rule.kind == kind


def test_awkward_floats_survive(tmp_path):
    model = LccModel(beta=[np.nextafter(1.0, 2.0), -1e-300, -0.0],
                     c_neg_hat=-0.0, c_pos_hat=5e-324,
                     l_hat=np.nextafter(0.0, -1.0), lam=2.0, sigma=-0.01,
                     epsilons=[1e308, 2.0 ** -1074])
    saved = SavedClassifier(model, None, None, 3)
    path = str(tmp_path / "model.txt")
    save_classifier(path, saved)
    loaded = load_classifier(path)
    assert bits(loaded.model.beta) == bits(model.beta)
    assert bits([loaded.model.c_neg_hat, loaded.model.c_pos_hat,
                 loaded.model.l_hat]) == \
        bits([model.c_neg_hat, model.c_pos_hat, model.l_hat])
    assert bits(loaded.model.epsilons) == bits(model.epsilons)


def test_dead_column_pruned_on_predict(tmp_path):
    base = demo_gaussian_pair(m_per_class=30, seed=17)
    wide = np.column_stack([base.features[:, :1],
                            np.full(base.m, 7.0),
                            base.features[:, 1:]])
    data = type(base)(wide, base.labels)
    ready, norm, kept, n = prepared(data)
    assert list(kept) == [0, 2] and n == 3
    model = train_lcc(ready)
    saved = SavedClassifier(model, norm, kept, n)
    labels, _ = predict_saved(saved, wide)
    loaded = roundtrip(tmp_path, saved, wide)
    assert np.array_equal(predict_saved(loaded, wide)[0], labels)


def test_predict_saved_empty_input():
    data = demo_gaussian_pair(m_per_class=20, seed=19)
    ready, norm, kept, n = prepared(data)
    saved = SavedClassifier(train_lcc(ready), norm, kept, n)
    labels, scores = predict_saved(saved, np.zeros((0, 2)))
    assert labels.shape == (0,) and scores.shape == (0,)


def test_predict_saved_dimension_mismatch_names_expected_n():
    data = demo_gaussian_pair(m_per_class=20, seed=23)
    ready, norm, kept, n = prepared(data)
    saved = SavedClassifier(train_lcc(ready), norm, kept, n)
    with pytest.raises(ModelIoError, match="expects 2"):
        predict_saved(saved, np.zeros((4, 5)))


def write_good_file(tmp_path):
    data = demo_gaussian_pair(m_per_class=20, seed=29)
    ready, norm, kept, n = prepared(data)
    saved = SavedClassifier(train_lcc(ready), norm, kept, n)
    path = str(tmp_path / "model.txt")
    save_classifier(path, saved)
    return path


def test_load_rejects_bad_header(tmp_path):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    lines[0] = "something-else 1"
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match="header"):
        load_classifier(path)


def test_load_rejects_future_version(tmp_path):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    lines[0] = "lcckit-model 99"
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match="version"):
        load_classifier(path)


def test_load_rejects_truncated_file(tmp_path):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]))
    with pytest.raises(ModelIoError, match="expected field"):
        load_classifier(path)


def test_load_rejects_trailing_garbage(tmp_path):
    path = write_good_file(tmp_path)
    with open(path, "a") as fh:
        fh.write("mystery 1 2 3\n")
    with pytest.raises(ModelIoError, match="trailing"):
        load_classifier(path)


def test_load_rejects_unknown_kind(tmp_path):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    lines[1] = "kind forest"
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match="kind"):
        load_classifier(path)


@pytest.mark.parametrize("key, value, match", [
    ("original_n", "two", "bad int field"),
    ("kept_columns", "0 2", "kept_columns"),
    ("beta", "0x1p+0", "feature"),
    ("kept_columns", "0 1 x", "bad ints field"),
    ("original_n", None, "kept_columns need original_n"),
    ("beta", "nan 0x1p+0", "non-finite"),
    ("l_hat", "inf", "non-finite"),
    ("epsilons", "-inf", "non-finite"),
])
def test_load_rejects_malformed_field(tmp_path, key, value, match):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
    if value is None:
        del lines[idx]
    else:
        lines[idx] = f"{key} {value}"
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match=match):
        load_classifier(path)


def test_load_rejects_one_nn_labels_shorter_than_values(tmp_path):
    data = demo_gaussian_pair(m_per_class=10, seed=31)
    ready, norm, kept, n = prepared(data)
    model = train_lcc(ready)
    rule = fit_discriminator("one_nn", model.transform(ready.features),
                             ready.labels, model)
    path = str(tmp_path / "model.txt")
    save_classifier(path, SavedClassifier(Discriminated(model, rule), norm,
                                          kept, n))
    lines = open(path).read().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1])
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match="one label per value"):
        load_classifier(path)


def test_load_rejects_bad_float(tmp_path):
    path = write_good_file(tmp_path)
    lines = open(path).read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("l_hat"))
    lines[idx] = "l_hat not-a-number"
    open(path, "w").write("\n".join(lines))
    with pytest.raises(ModelIoError, match="float"):
        load_classifier(path)
