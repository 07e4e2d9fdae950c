"""End-to-end checks of the command line through main()."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcckit import cli
from lcckit.cli import main, parse_gen_spec
from lcckit.data import _BLANK, as_labels, demo_gaussian_pair, read_matrix
from lcckit.evaluation import METHODS
from lcckit.model_io import PREDICT_BLOCK, load_classifier, predict_saved


def write_labeled_csv(path, data, header=True, label_map=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"x{i}" for i in range(data.n)) + ",label\n")
        for row, lab in zip(data.features, data.labels):
            cells = [repr(float(v)) for v in row]
            lab = int(lab) if label_map is None else label_map[int(lab)]
            fh.write(",".join(cells + [str(lab)]) + "\n")


def write_feature_csv(path, features):
    with open(path, "w", encoding="utf-8") as fh:
        for row in features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def train_dir(tmp_path, *extra):
    out = tmp_path / "model"
    rc = main(["train", "--gen", "gaussian:m_per_class=40",
               "--method", "lcc", "--out", str(out), *extra])
    assert rc == 0
    return out


def test_train_writes_model_and_summary(tmp_path, capsys):
    out = train_dir(tmp_path)
    text = capsys.readouterr().out
    assert (out / "model.txt").exists()
    assert "objective" in text
    assert "epsilons min/mean/max" in text
    assert "center gap" in text
    assert "train accuracy" in text


def test_train_then_predict_reproduces_accuracy(tmp_path, capsys):
    data = demo_gaussian_pair(m_per_class=50, seed=3)
    csv_path = tmp_path / "train.csv"
    write_labeled_csv(csv_path, data)
    out = tmp_path / "run"
    assert main(["train", "--data", str(csv_path), "--method", "lcc",
                 "--out", str(out)]) == 0
    train_line = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("train accuracy")][0]
    assert main(["predict", "--model", str(out / "model.txt"),
                 "--data", str(csv_path), "--out", str(out)]) == 0
    predict_line = [ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("accuracy")][0]
    assert train_line.split()[-1] == predict_line.split()[-1]
    rows = (out / "predictions.csv").read_text().splitlines()
    assert rows[0] == "label,score"
    assert len(rows) == data.m + 1


def test_predict_deterministic_output(tmp_path, capsys):
    out = train_dir(tmp_path)
    capsys.readouterr()
    feats = demo_gaussian_pair(m_per_class=20, seed=9).features
    csv_path = tmp_path / "query.csv"
    write_feature_csv(csv_path, feats)
    outputs = []
    for _ in range(2):
        assert main(["predict", "--model", str(out / "model.txt"),
                     "--data", str(csv_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_predict_empty_input_emits_header_only(tmp_path, capsys):
    out = train_dir(tmp_path)
    capsys.readouterr()
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["predict", "--model", str(out / "model.txt"),
                 "--data", str(empty)]) == 0
    assert capsys.readouterr().out == "label,score\n"
    only_header = tmp_path / "header.csv"
    only_header.write_text("a,b\n")
    assert main(["predict", "--model", str(out / "model.txt"),
                 "--data", str(only_header)]) == 0
    assert capsys.readouterr().out == "label,score\n"


def test_predict_shuffled_rows_shuffle_outputs(tmp_path):
    out = train_dir(tmp_path)
    feats = demo_gaussian_pair(m_per_class=25, seed=11).features
    perm = np.random.default_rng(4).permutation(feats.shape[0])
    write_feature_csv(tmp_path / "orig.csv", feats)
    write_feature_csv(tmp_path / "shuf.csv", feats[perm])
    for name in ("orig", "shuf"):
        assert main(["predict", "--model", str(out / "model.txt"),
                     "--data", str(tmp_path / f"{name}.csv"),
                     "--out", str(tmp_path / name)]) == 0
    orig = (tmp_path / "orig" / "predictions.csv").read_text().splitlines()
    shuf = (tmp_path / "shuf" / "predictions.csv").read_text().splitlines()
    assert [orig[1 + i] for i in perm] == shuf[1:]


def test_predict_dimension_mismatch_names_expected_n(tmp_path, capsys):
    out = train_dir(tmp_path)
    write_feature_csv(tmp_path / "wide.csv", np.zeros((3, 5)))
    rc = main(["predict", "--model", str(out / "model.txt"),
               "--data", str(tmp_path / "wide.csv")])
    assert rc == 1
    assert "expects 2" in capsys.readouterr().err


def test_predict_01_labels_scored_for_accuracy(tmp_path, capsys):
    data = demo_gaussian_pair(m_per_class=30, seed=5)
    csv_path = tmp_path / "train.csv"
    write_labeled_csv(csv_path, data, header=False,
                      label_map={-1: 0, 1: 1})
    out = tmp_path / "run"
    assert main(["train", "--data", str(csv_path), "--method", "lda",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(out / "model.txt"),
                 "--data", str(csv_path), "--out", str(out)]) == 0
    assert "accuracy" in capsys.readouterr().out


# what `lcckit train --gen gaussian --seed 0` prints for fqcc (its slack
# range) and svm (its hinge objective); the model-file line follows
TRAIN_STDOUT = {
    "fqcc": ["method fqcc",
             "trained on 400 instances, 2 of 2 feature(s) kept",
             "objective -11.52300113",
             "epsilons min/mean/max -0.01 / -0.01 / -0.01",
             "center gap 3.523 (c_neg_hat -1.7615, c_pos_hat 1.7615)",
             "train accuracy 1.0000"],
    "svm": ["method svm",
            "trained on 400 instances, 2 of 2 feature(s) kept",
            "objective 0.5552802524",
            "train accuracy 0.9950"],
}


@pytest.mark.parametrize("method", TRAIN_STDOUT)
def test_train_prints_the_pinned_summary(method, tmp_path, capsys):
    assert main(["train", "--gen", "gaussian", "--seed", "0", "--method",
                 method, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == TRAIN_STDOUT[method] + [
        f"model written to {tmp_path / 'model.txt'}"]


def test_train_infeasible_sigma_exits_2_citing_bound(tmp_path, capsys):
    rc = main(["train", "--gen", "gaussian", "--method", "lcc",
               "--sigma=-1e6", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "L1 gap" in err


def test_train_klcc_infeasible_sigma_exits_2_citing_bound(tmp_path, capsys):
    rc = main(["train", "--gen", "gaussian", "--method", "klcc",
               "--kernel", "linear", "--sigma=-1e6", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "identical centers" in err
    assert "L1 gap" in err


def test_train_usage_errors_exit_1(tmp_path, capsys):
    assert main(["train", "--gen", "gaussian", "--method", "forest",
                 "--out", str(tmp_path)]) == 1
    assert main(["train", "--gen", "gaussian", "--method", "lda",
                 "--discriminator", "dist", "--out", str(tmp_path)]) == 1
    assert main(["train", "--gen", "shrub", "--method", "lcc",
                 "--out", str(tmp_path)]) == 1
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--method", "lcc", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["train", "--method", "lcc", "--sigma", "0.5"],
    ["train", "--method", "lcc", "--lambda", "-1"],
    ["train", "--method", "lda", "--lambda", "2"],
    ["train", "--method", "klcc", "--rbf-width", "-1"],
    ["benchmark", "--method", "lcc,lda", "--lambda", "2", "--runs", "2"],
])
def test_bad_hyperparameter_values_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--gen", "gaussian:m_per_class=30",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"lcckit {argv[0]}: error:" in err
    assert "numeric failure" not in err
    assert not (out / "report.csv").exists()
    assert not (out / "model.txt").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--method", "fqcc"],
    ["benchmark", "--method", "lcc,lda", "--runs", "2"],
    ["demo"],
])
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, argv):
    # numpy's generators take no negative seed; argparse refuses it first
    data = tmp_path / "train.csv"
    write_labeled_csv(data, demo_gaussian_pair(20, seed=0))
    extra = [] if argv == ["demo"] else ["--data", str(data)]
    out = tmp_path / "out"
    assert main([*argv, *extra, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method, flag, value, name", [
    ("fqcc", "--lambda", "inf", "lam"),
    ("fqcc", "--sigma", "-inf", "sigma"),
    ("lcc", "--lambda", "inf", "lam"),
    ("lcc", "--sigma", "-inf", "sigma"),
    ("klcc", "--rbf-width", "inf", "rbf_width"),
    ("svm", "--lambda", "inf", "lam"),
])
def test_non_finite_hyperparameter_exits_1(tmp_path, capsys, method, flag,
                                           value, name):
    out = tmp_path / "out"
    assert main(["train", "--method", method, f"{flag}={value}",
                 "--gen", "gaussian:m_per_class=30", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "lcckit train: error:" in err and name in err
    assert not (out / "model.txt").exists()


def test_predict_width_check_without_original_n(tmp_path, capsys):
    from lcckit.lcc import train_lcc
    from lcckit.model_io import SavedClassifier, save_classifier
    model_path = tmp_path / "model.txt"
    save_classifier(str(model_path),
                    SavedClassifier(train_lcc(demo_gaussian_pair(20))))
    csv_path = tmp_path / "wide.csv"
    write_feature_csv(csv_path, np.ones((3, 5)))
    assert main(["predict", "--model", str(model_path),
                 "--data", str(csv_path)]) == 1
    assert "input has 5 columns, model expects 2" in capsys.readouterr().err


def test_predict_writes_shortest_round_trip_scores(tmp_path, capsys,
                                                   monkeypatch):
    """predictions.csv holds each label and the repr of each score:
    signed zeros, subnormals, huge and tied scores are written exactly,
    in row order across the blocks predict reads and decides."""
    from lcckit import cli
    from lcckit.baselines import SvmModel
    from lcckit.model_io import SavedClassifier, save_classifier
    scores = np.tile([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                      0.1, 0.1, -2.5, -2.5], 500)
    labels = np.where(scores < 0, -1, 1)
    served = [0]   # rows handed out so far: predict calls once per block

    def stub(saved, feats):
        start, served[0] = served[0], served[0] + feats.shape[0]
        return labels[start:served[0]], scores[start:served[0]]

    monkeypatch.setattr(cli, "predict_saved", stub)
    model_path = tmp_path / "model.txt"
    save_classifier(str(model_path), SavedClassifier(
        SvmModel(np.array([1.0]), 0.0, 1.0)))
    csv_path = tmp_path / "query.csv"
    write_feature_csv(csv_path, np.zeros((scores.size, 1)))
    assert main(["predict", "--model", str(model_path),
                 "--data", str(csv_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "predictions.csv").read_text() == "label,score\n" + (
        "1,-0.0\n1,0.0\n1,5e-324\n-1,-5e-324\n1,1e+308\n"
        "-1,-1e+308\n1,0.1\n1,0.1\n-1,-2.5\n-1,-2.5\n") * 500


def test_train_1sv_exit_codes(tmp_path, capsys, monkeypatch):
    """The 1sv rule's SMO failing to converge exits 2; rescaled values
    it cannot use exit 1."""
    from lcckit import baselines, discriminators
    argv = ["train", "--gen", "gaussian:m_per_class=40", "--method", "lcc",
            "--discriminator", "1sv", "--out", str(tmp_path)]
    monkeypatch.setattr(baselines, "SMO_STEPS_PER_ROW", 0)
    assert main(argv) == 2
    assert "SMO did not converge" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr(discriminators, "DEFAULT_H", np.inf)
    assert main(argv) == 1
    assert "values must be nonempty and finite" in capsys.readouterr().err


def test_runtime_imports_no_test_extras():
    code = ("import sys, lcckit, lcckit.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'scipy', 'sklearn'}))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_missing_required_flags_exit_1(capsys):
    assert main(["train"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_gen_spec_parsing_and_errors():
    data = parse_gen_spec("circles:m=80,noise=0.1", seed=1)
    assert data.m == 80
    from lcckit.cli import UsageError
    for bad in ("circles:m=80.5", "circles:m", "gaussian:m=3",
                "spiral:noise=abc"):
        with pytest.raises(UsageError):
            parse_gen_spec(bad, seed=1)


GEN_SPEC_ERRORS = {
    # non-finite values, each named by its option
    "circles:m=nan": "generator option 'm' must be finite",
    "gaussian:m_per_class=inf": "generator option 'm_per_class' must be "
                                "finite",
    "spiral:noise=nan": "generator option 'noise' must be finite",
    "circles:noise=-inf": "generator option 'noise' must be finite",
    "circles:m=nan,x=1": "generator option 'm' must be finite",
    # the options are read in table order, counts before unknown names
    "circles:m=2.5,x=1": "generator option 'm' must be an integer",
    "circles:noise=nan,m=2.5": "generator option 'm' must be an integer",
    "gaussian:m_per_class=2.5,x=1": "generator option 'm_per_class' must "
                                    "be an integer",
    "gaussian:m=2.5": "unknown gaussian option(s): m",
    "flame_like:m=10,zz=2,aa=1": "unknown flame_like option(s): aa, zz",
    "circles:x=nan": "unknown circles option(s): x",
    # the spec is parsed before the generator is looked up
    "shrub:x": "generator option 'x' is not key=val",
    "spiral:noise=abc": "generator option 'noise' has non-numeric value "
                        "'abc'",
    "shrub:m=nan": "unknown generator 'shrub'; choose from gaussian, "
                   "circles, spiral, jain_like, flame_like",
    # values the generators themselves refuse
    "circles:m=2": "shape generators need m >= 4",
    "circles:noise=-1": "noise must be non-negative",
    "gaussian:m_per_class=0": "m_per_class must be at least 1",
}


@pytest.mark.parametrize("spec", GEN_SPEC_ERRORS)
def test_gen_spec_errors_exit_1_naming_the_problem(spec, tmp_path, capsys):
    assert main(["benchmark", "--gen", spec, "--method", "lda",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"lcckit benchmark: error: "
                                       f"{GEN_SPEC_ERRORS[spec]}\n")


@pytest.mark.parametrize("spec, option", [("circles:m=1e20", "m"),
                                          ("gaussian:m_per_class=1e30",
                                           "m_per_class")])
def test_gen_count_numpy_cannot_shape_exits_1(spec, option, tmp_path,
                                              capsys):
    # numpy refuses these shapes before it allocates anything
    assert main(["benchmark", "--gen", spec, "--method", "lda",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"lcckit benchmark: error: generator option {option!r} is too "
        f"large: Maximum allowed dimension exceeded\n")


def test_gen_count_past_memory_exits_1(tmp_path, capsys, monkeypatch):
    # circles:m=1e12 asks numpy for 3.64 TiB; the generator stands in for
    # that allocation, so the test allocates nothing
    def out_of_memory(shape, m, noise, seed):
        assert (shape, m) == ("circles", 10 ** 12)
        raise MemoryError("Unable to allocate 3.64 TiB")

    monkeypatch.setattr(cli, "gen_shape", out_of_memory)
    assert main(["benchmark", "--gen", "circles:m=1e12", "--method", "lda",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "lcckit benchmark: error: generator option 'm' is too large: "
        "Unable to allocate 3.64 TiB\n")


def test_train_klcc_rbf_circles_reports_high_accuracy(tmp_path, capsys):
    rc = main(["train", "--gen", "circles:m=300,noise=0.03",
               "--method", "klcc", "--kernel", "rbf",
               "--out", str(tmp_path)])
    assert rc == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("train accuracy")][0]
    assert float(line.split()[-1]) >= 0.98


def test_train_discriminator_roundtrip(tmp_path, capsys):
    out = train_dir(tmp_path, "--discriminator", "1nn")
    assert "discriminator one_nn" in capsys.readouterr().out
    feats = demo_gaussian_pair(m_per_class=10, seed=2).features
    write_feature_csv(tmp_path / "q.csv", feats)
    assert main(["predict", "--model", str(out / "model.txt"),
                 "--data", str(tmp_path / "q.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == feats.shape[0] + 1


def test_benchmark_three_methods_emits_3xR_records(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--gen", "gaussian:m_per_class=30",
               "--method", "lcc,lda,svm", "--runs", "4",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "method,run,train_auc,test_auc,train_ms,error"
    assert len(rows) == 1 + 3 * 4
    assert "report written" in capsys.readouterr().out


def test_benchmark_reproducible_ignoring_wall_time(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["benchmark", "--gen", "gaussian:m_per_class=30",
                     "--method", "lcc,lda", "--runs", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        stripped = [",".join(c for i, c in enumerate(r.split(","))
                             if i != 4) for r in rows]
        reports.append(stripped)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec, methods, folds", [
    ("gaussian:m_per_class=30", "lcc,lda", 5),
    ("gaussian:m_per_class=60", "lcc,svm", 3),
    ("jain_like:m=80", "lcc,klcc,lda", 3),
    ("spiral:m=80", "lcc,klcc", 3), ("circles:m=80", "lcc,klcc", 3),
])
def test_benchmark_procedure_2_grid_report(spec, methods, folds, tmp_path,
                                           capsys):
    """Procedure 2 through main, lcc and klcc as warm-started sigma
    chains: one grid row per method, its best value taken from its grid,
    ranked by best AUC."""
    out = tmp_path / "bench2"
    rc = main(["benchmark", "--gen", spec, "--method", methods,
               "--procedure", "2", "--folds", str(folds), "--out", str(out)])
    assert rc == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "method,param_name,best_param,best_auc,rank"
    assert "rank" in capsys.readouterr().out
    rows = [row.split(",") for row in rows[1:]]
    assert [r[0] for r in rows] == methods.split(",")
    for name, param_name, best, auc, _ in rows:
        assert param_name == METHODS[name].param_name
        assert float(best) in METHODS[name].grid
        assert 0.0 <= float(auc) <= 1.0, (name, auc)
    # 0-based ranks by best AUC, highest first, ties sharing their mean
    aucs = [float(r[3]) for r in rows]
    assert [float(r[4]) for r in rows] == [
        sum(b > a for b in aucs) + (aucs.count(a) - 1) / 2 for a in aucs]


def test_benchmark_rejects_bad_method_list(tmp_path, capsys):
    base = ["benchmark", "--gen", "gaussian:m_per_class=20",
            "--out", str(tmp_path)]
    assert main(base + ["--method", "lcc,lcc"]) == 1
    assert main(base + ["--method", "lcc,forest"]) == 1
    assert main(base + ["--method", ","]) == 1
    capsys.readouterr()


def after_stage_bins(path):
    rows = [ln.split(",") for ln in path.read_text().splitlines()
            if ln.startswith("after,")]
    neg = [i for i, r in enumerate(rows) if int(r[3]) > 0]
    pos = [i for i, r in enumerate(rows) if int(r[4]) > 0]
    return neg, pos


def test_demo_histograms_separate_classes(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    text = (out / "demo_histograms.csv").read_text()
    assert "beta0" in text and "max-norm" in text
    neg, pos = after_stage_bins(out / "demo_histograms.csv")
    assert not set(neg) & set(pos)
    assert max(neg) < min(pos)
    printed = capsys.readouterr().out
    assert "overlap after training: no" in printed
    roc = (out / "demo_roc.csv").read_text().splitlines()
    assert roc[0] == "fpr,tpr"
    assert roc[1] == "0.0,0.0" and roc[-1] == "1.0,1.0"


def test_demo_deterministic(tmp_path):
    texts = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert main(["demo", "--seed", "6", "--out", str(out)]) == 0
        texts.append((out / "demo_histograms.csv").read_text()
                     + (out / "demo_roc.csv").read_text())
    assert texts[0] == texts[1]


def test_predict_malformed_model_exits_1(tmp_path, capsys):
    out = train_dir(tmp_path)
    path = out / "model.txt"
    path.write_text(path.read_text().replace("original_n 2", "original_n two"))
    write_feature_csv(tmp_path / "q.csv", np.zeros((2, 2)))
    assert main(["predict", "--model", str(path),
                 "--data", str(tmp_path / "q.csv")]) == 1
    assert "lcckit predict: error: bad int field" in capsys.readouterr().err


# (file text, expected matrix) for the CSV reader: leading
# non-numeric lines are headers, blank lines (cells all whitespace) are
# skipped, cells may be quoted and padded, line endings may be \r\n or \r
READ_CASES = {
    "header": ("x0,x1\n1,2\n3.5,-4e-3\n", [[1.0, 2.0], [3.5, -4e-3]]),
    "two headers": ("name,value\nunits,cm\n1,2\n", [[1.0, 2.0]]),
    "blank lines": ("\n1,2\n\n , \n,\n3,4\n\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    "quoted cells": ('"1.5",2\n3,"4e-1"\n" 5 ", 6 \n',
                     [[1.5, 2.0], [3.0, 0.4], [5.0, 6.0]]),
    "line endings": ("a,b\r\n1,2\r\n3,4\r5,6", [[1.0, 2.0], [3.0, 4.0],
                                                [5.0, 6.0]]),
    "signs and forms": ("0x0,a\n+1,-0,.5,1E2\n-1.,1e-320,2.,7\n",
                        [[1.0, -0.0, 0.5, 100.0], [-1.0, 1e-320, 2.0, 7.0]]),
}


def test_read_matrix_parses_bit_for_bit(tmp_path):
    for name, (text, expected) in READ_CASES.items():
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got = read_matrix(str(path))
        want = np.array(expected, dtype=np.float64)
        assert got.dtype == np.float64, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_blank_characters_are_separators_quotes_and_whitespace():
    whitespace = {ch for ch in map(chr, range(sys.maxunicode + 1))
                  if ch.isspace()}
    assert len(_BLANK) == len(set(_BLANK))
    assert set(_BLANK) == whitespace | {",", '"'}


def test_read_matrix_round_trips_repr_of_random_floats(tmp_path):
    rng = np.random.default_rng(8)
    values = np.concatenate([rng.normal(0.0, 1.0, 600),
                             rng.normal(0.0, 1e-300, 100),
                             rng.normal(0.0, 1e300, 100),
                             np.round(rng.normal(0.0, 9.0, 200), 3)])
    values = values.reshape(-1, 5)
    lines = [",".join(fmt(float(v)) for v in row)
             for row, fmt in zip(values, [repr, "{:.17g}".format,
                                          "{:.6e}".format] * 400)]
    (tmp_path / "in.csv").write_text("h0,h1,h2,h3,h4\n" + "\n".join(lines))
    got = read_matrix(str(tmp_path / "in.csv"))
    want = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\nc,d\n \n"])
def test_read_matrix_without_data_rows_is_empty(tmp_path, text):
    (tmp_path / "in.csv").write_text(text)
    got = read_matrix(str(tmp_path / "in.csv"))
    assert got.shape == (0, 0) and got.dtype == np.float64


# file text -> the error `lcckit predict` reports (exit 1); line numbers
# count every line, headers and blank lines included
READ_ERRORS = {
    "1,2\n3\n": "line 2: expected 2 cells, got 1",
    "a,b\n\n1,2\n3,4,5\n": "line 4: expected 2 cells, got 3",
    "1,2\nx,3\n": "line 2, column 1: non-numeric cell",
    "a,b\n1,2\n3,4\nc,d\n": "line 4, column 1: non-numeric cell",
    "1,2\n1,,2\n": "line 2, column 2: non-numeric cell",
    '1,2\n"1,5",2\n': "line 2, column 1: non-numeric cell",
    "1,2\nnan,3\n": "line 2, column 1: non-finite value",
    "h\n1,2\n3,inf\n": "line 3, column 2: non-finite value",
    "1,2\n3,-Infinity\n": "line 2, column 2: non-finite value",
    "1,2\n3,4\n5,nan,6\n7\n": "line 3, column 2: non-finite value",
    "1,2\n5\nnan,1\n": "line 2: expected 2 cells, got 1",
    "1,2\nx\n3\n": "line 2, column 1: non-numeric cell",
    '1,2\n1,"2\n': "line 2: unbalanced quote",
    '1,2\n"3\n4",5\n': "line 2: unbalanced quote",
    # the first bad line wins, whatever the kind of fault after it
    '1,2\nx,3\n4,"5\n': "line 2, column 1: non-numeric cell",
}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert main(["train", "--gen", "gaussian:m_per_class=40",
                 "--method", "lcc", "--out", str(out)]) == 0
    return out / "model.txt"


@pytest.mark.parametrize("text", list(READ_ERRORS))
def test_predict_reports_bad_csv_line(tmp_path, capsys, saved_model, text):
    capsys.readouterr()
    path = tmp_path / "in.csv"
    path.write_text(text)
    rc = main(["predict", "--model", str(saved_model), "--data", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lcckit predict: error: {READ_ERRORS[text]}\n"


LONG_ROWS = 3 * PREDICT_BLOCK + 200


def long_csv_lines(label_of=None):
    """The lines of a file of more than three blocks of 2-feature rows
    (plus a label label_of(row), if given), with a header and a blank
    line after every 1,000th row; and the index in them of each row."""
    rng = np.random.default_rng(21)
    lines = ["x0,x1" + (",label" if label_of else "")]
    row_at = []
    for i, row in enumerate(rng.normal(0.0, 3.0, (LONG_ROWS, 2))):
        row_at.append(len(lines))
        lines.append(",".join([repr(float(v)) for v in row]
                              + ([str(label_of(i))] if label_of else [])))
        if i % 1000 == 999:
            lines.append(" , ")
    return lines, row_at


# lines put in place of rows of the third block -> the error, by the
# number of the first of them
LATER_FAULTS = {
    ("1.5,abc",): "line {}, column 2: non-numeric cell",
    ("inf,1",): "line {}, column 1: non-finite value",
    ("2.5",): "line {}: expected 2 cells, got 1",
    ('1,"2',): "line {}: unbalanced quote",
    ("x,3", '4,"5'): "line {}, column 1: non-numeric cell",
}


def predict_to(tmp_path, model, lines, out):
    """Exit code and captured output of predicting the lines' file, to
    stdout (out None), to a fresh directory or over an existing file."""
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["predict", "--model", str(model), "--data", str(path)]
    if out is not None:
        (tmp_path / "out").mkdir()
        if out == "existing":
            (tmp_path / "out" / "predictions.csv").write_text("old\n")
        argv += ["--out", str(tmp_path / "out")]
    return main(argv)


@pytest.mark.parametrize("out", [None, "fresh", "existing"])
@pytest.mark.parametrize("bad", list(LATER_FAULTS), ids=[
    "bad cell", "non-finite", "short row", "quote", "cell before quote"])
def test_predict_fault_in_a_later_block_writes_nothing(
        tmp_path, capsys, saved_model, bad, out):
    lines, row_at = long_csv_lines()
    at = row_at[2 * PREDICT_BLOCK + 100]
    lines[at:at + len(bad)] = bad
    capsys.readouterr()
    assert predict_to(tmp_path, saved_model, lines, out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lcckit predict: error: "
                            + LATER_FAULTS[bad].format(at + 1) + "\n")
    written = tmp_path / "out" / "predictions.csv"
    if out == "existing":
        assert written.read_text() == "old\n"
    else:
        assert not written.exists()


@pytest.mark.parametrize("label_of", [
    lambda i: 2 if i == 2 * PREDICT_BLOCK + 7 else i % 2 * 2 - 1,
    lambda i: 0 if i >= 2 * PREDICT_BLOCK else i % 2 * 2 - 1,
], ids=["not a label", "-1 then 0"])
def test_predict_labels_are_checked_over_every_block(
        tmp_path, capsys, saved_model, label_of):
    """A last column that stops being -1/+1 or 0/1 only in a later block
    is a fourth column, as it would be in the first."""
    lines, _ = long_csv_lines(label_of)
    capsys.readouterr()
    assert predict_to(tmp_path, saved_model, lines, "fresh") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lcckit predict: error: input has 3 columns, "
                            "model expects 2\n")
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_predict_accuracy_of_labels_split_over_blocks(tmp_path, capsys,
                                                      saved_model):
    """0/1 labels, {0, 1} in the first block and only 1 after it: the
    accuracy of a whole-file read."""
    lines, _ = long_csv_lines(lambda i: i % 2 if i < PREDICT_BLOCK else 1)
    assert predict_to(tmp_path, saved_model, lines, "fresh") == 0
    matrix = read_matrix(str(tmp_path / "in.csv"))
    labels, _ = predict_saved(load_classifier(str(saved_model)),
                              matrix[:, :-1])
    accuracy = np.mean(labels == as_labels(matrix[:, -1]))
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"accuracy {accuracy:.4f}"
    assert len((tmp_path / "out" / "predictions.csv").read_text()
               .splitlines()) == LONG_ROWS + 1


@pytest.mark.parametrize("method, rule", [("lcc", "1sv"), ("klcc", "1nn")])
def test_predict_file_and_stdout_are_the_same_bytes(tmp_path, capsys, method,
                                                    rule):
    """More than three blocks of labelled rows: predictions.csv under --out
    holds byte for byte what predict prints without it."""
    assert main(["train", "--gen", "gaussian:m_per_class=60", "--method",
                 method, "--discriminator", rule, "--seed", "0", "--out",
                 str(tmp_path / "model")]) == 0
    model = tmp_path / "model" / "model.txt"
    lines, _ = long_csv_lines(lambda i: i % 2 * 2 - 1)
    capsys.readouterr()
    assert predict_to(tmp_path, model, lines, None) == 0
    printed = capsys.readouterr().out.encode()
    assert predict_to(tmp_path, model, lines, "fresh") == 0
    written = (tmp_path / "out" / "predictions.csv").read_bytes()
    assert written == printed
    assert written.count(b"\n") == LONG_ROWS + 1


def test_predict_memory_is_flat_in_rows(tmp_path, saved_model):
    """Predicting 1e5 rows peaks within 2 MB of predicting 2e4: a block
    at a time is read, decided and written."""
    rng = np.random.default_rng(5)
    peaks = []
    for rows in (20_000, 100_000):
        path = tmp_path / f"{rows}.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in
                                rng.normal(0.0, 3.0, (rows, 2)).tolist()))
        tracemalloc.start()
        try:
            assert main(["predict", "--model", str(saved_model), "--data",
                         str(path), "--out", str(tmp_path / str(rows))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2e6


# the same labelled rows written each way the CSV reader accepts; training
# on any of them must write the plain file's model byte for byte
def _train_variants():
    data = demo_gaussian_pair(m_per_class=20, seed=3)
    rows = [([repr(float(v)) for v in row], str(int(lab)))
            for row, lab in zip(data.features, data.labels)]
    plain = [",".join(cells + [lab]) for cells, lab in rows]
    quoted = [f'"{cells[0]}", {cells[1]} ,"{lab}"' for cells, lab in rows]
    zero_one = [",".join(cells + ["0" if lab == "-1" else "1"])
                for cells, lab in rows]
    blank = [ln + "\n , \n,\n" if i % 3 == 0 else ln
             for i, ln in enumerate(plain)]
    return {
        "plain": "\n".join(plain) + "\n",
        "header": "x0,x1,label\n" + "\n".join(plain) + "\n",
        "two headers": "name,value,class\nunits,cm,-\n" + "\n".join(plain),
        "blank lines": "\n\n" + "\n".join(blank) + "\n\n",
        "quoted and padded": "\n".join(quoted) + "\n",
        "crlf": "a,b,c\r\n" + "\r\n".join(plain) + "\r\n",
        "cr": "\r".join(plain) + "\r",
        "0/1 labels": "\n".join(zero_one) + "\n",
    }


TRAIN_VARIANTS = _train_variants()


def _train_model(directory, text):
    (directory / "in.csv").write_bytes(text.encode())
    assert main(["train", "--data", str(directory / "in.csv"), "--method",
                 "lcc", "--out", str(directory)]) == 0
    return (directory / "model.txt").read_bytes()


@pytest.fixture(scope="module")
def plain_model(tmp_path_factory):
    return _train_model(tmp_path_factory.mktemp("plain"),
                        TRAIN_VARIANTS["plain"])


@pytest.mark.parametrize("name", [n for n in TRAIN_VARIANTS if n != "plain"])
def test_train_reads_every_csv_variant_alike(tmp_path, capsys, plain_model,
                                             name):
    assert _train_model(tmp_path, TRAIN_VARIANTS[name]) == plain_model
    capsys.readouterr()


# file text -> the error `lcckit train --data` reports (exit 1)
TRAIN_ERRORS = {
    "1,-1\nx,1\n": "line 2, column 1: non-numeric cell",
    "a,b\n1,-1\n2,\n": "line 3, column 2: non-numeric cell",
    "": "training data is empty",
    "x,label\n\n": "training data is empty",
    "1,-1\n2,inf\n": "line 2, column 2: non-finite value",
    "1,2,-1\n3,1\n": "line 2: expected 3 cells, got 2",
    "1,-1\n2,0.5\n": "labels must be -1/+1 or 0/1, found [-1.0, 0.5]",
    "1,0\n2,-1\n3,1\n": "labels must be -1/+1 or 0/1, "
                         "found [-1.0, 0.0, 1.0]",
    "1\n2\n": "need at least one feature column and one label column",
    '1,-1\n2,"1\n': "line 2: unbalanced quote",
    '1,-1\n"3\n4",1\n': "line 2: unbalanced quote",
}


@pytest.mark.parametrize("text", list(TRAIN_ERRORS))
def test_train_reports_bad_csv(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    rc = main(["train", "--data", str(path), "--method", "lcc",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lcckit train: error: {TRAIN_ERRORS[text]}\n"
    assert not (tmp_path / "out").exists()
