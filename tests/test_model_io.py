"""Saved-model round trips: a loaded model predicts bit-for-bit identically."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcckit.data import (apply_normalizer, demo_gaussian_pair,
                         drop_zero_variance, fit_normalizer, gen_shape,
                         normalize_features)
from lcckit.discriminators import fit_discriminator
from lcckit.kernel import (KernelLccModel, KernelSpec,
                           median_pairwise_distance, train_klcc)
from lcckit.lcc import LccModel, train_fqcc, train_lcc
from lcckit.baselines import train_lda, train_linear_svm
from lcckit.evaluation import Discriminated
from lcckit.model_io import (PREDICT_BLOCK, ModelIoError, SavedClassifier,
                             load_classifier, predict_saved, save_classifier)


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


TRAINERS = {
    "lcc": lambda ready: train_lcc(ready),
    "fqcc": lambda ready: train_fqcc(ready, seed=3),
    "klcc": lambda ready: train_klcc(ready, KernelSpec("rbf", 1.0)),
    "lda": lambda ready: train_lda(ready),
    "svm": lambda ready: train_linear_svm(ready),
    "lcc+1nn": lambda ready: Discriminated(model := train_lcc(ready),
                                          fit_discriminator(
                                              "one_nn", model.transform(
                                                  ready.features),
                                              ready.labels, model)),
}


def blocked_mismatches() -> list:
    """The kinds whose predict_saved over three blocks and a part gives
    some row other label or score bits than one decide on every row."""
    data = demo_gaussian_pair(m_per_class=30, seed=29)
    ready, norm, kept, n = prepared(data)
    rows = np.random.default_rng(1).normal(
        0.0, 4.0, (3 * PREDICT_BLOCK + 77, 2))
    mismatched = []
    for kind, trainer in TRAINERS.items():
        saved = SavedClassifier(trainer(ready), norm, kept, n)
        labels, scores = predict_saved(saved, rows)
        whole = saved.model.decide(normalize_features(norm, rows[:, kept]))
        if not (np.array_equal(labels, whole[0])
                and bits(scores) == bits(whole[1])):
            mismatched.append(kind)
    return mismatched


def rbf_model_800(rng) -> KernelLccModel:
    """An RBF model on 800 stored rows, drawn from rng."""
    return KernelLccModel("rbf", 1.0, rng.uniform(-1.0, 1.0, 800),
                          rng.normal(0.0, 1.0, (800, 2)), -0.1, 0.1, 0.0,
                          2.0, -0.01, np.zeros(800))


def direct_klcc_decide() -> tuple:
    """(tracemalloc peak, whether every row's bits equal predict_saved's)
    of one direct decide of 2e4 rows by rbf_model_800: one kernel matrix
    over all of them would take 128 MB."""
    rng = np.random.default_rng(2)
    model = rbf_model_800(rng)
    rows = rng.normal(0.0, 1.0, (20_000, 2))
    tracemalloc.start()
    try:
        labels, scores = model.decide(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    saved = predict_saved(SavedClassifier(model), rows)
    return peak, (np.array_equal(labels, saved[0])
                  and bits(scores) == bits(saved[1]))


def test_predict_saved_in_blocks_as_one_decide():
    """Run with BLAS on one thread, as perfbench runs it.  A threaded
    BLAS splits one call's rows among its threads, and the order of sums
    can change next to a split: with OpenBLAS on two threads, klcc's one
    kernel evaluation over these 12365 rows gave rows 6180, 6181, 12363
    and 12364 other last bits than on one thread, while the blocks give
    the one-thread bits on every row.  A direct klcc decide evaluates its
    kernel in the same blocks, within the memory bound predict_saved
    keeps."""
    code = ("from tests.test_model_io import blocked_mismatches, "
            "direct_klcc_decide; "
            "print((blocked_mismatches(), *direct_klcc_decide()))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        str(root)]),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                            capture_output=True, text=True, check=True)
    mismatches, peak, same_bits = ast.literal_eval(result.stdout)
    assert mismatches == []
    assert peak <= 100e6
    assert same_bits


def test_klcc_predict_memory_is_bounded_in_rows():
    """An RBF model on 800 stored rows decides 1e5 rows: one kernel
    matrix over all of them would take 640 MB."""
    rng = np.random.default_rng(2)
    model = rbf_model_800(rng)
    rows = rng.normal(0.0, 1.0, (100_000, 2))
    tracemalloc.start()
    try:
        labels, scores = predict_saved(SavedClassifier(model), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6
    assert labels.shape == scores.shape == (100_000,)


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
