"""bench/record.py: its statistics (sign test, quartiles, pair verdicts),
what it selects to run, and its snapshot of the working tree."""

import importlib.util
import math
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "record.py"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def load_script():
    spec = importlib.util.spec_from_file_location("record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load_script()


def test_sign_test_two_sided():
    # P(X <= 1) for X ~ Bin(10, 1/2) is 11/1024; doubled, 0.0215
    assert record.sign_test(9, 1) == pytest.approx(22 / 1024, rel=1e-12)
    assert round(record.sign_test(9, 1), 4) == 0.0215
    assert record.sign_test(1, 9) == record.sign_test(9, 1)
    assert record.sign_test(10, 0) == pytest.approx(2 / 1024, rel=1e-12)
    assert record.sign_test(5, 5) == 1.0
    assert record.sign_test(0, 0) == 1.0


def test_quartiles_interpolate_linearly():
    assert record.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (3, 5, 7)
    # numpy's default: positions 0.75, 1.5 and 2.25 of the sorted list
    assert record.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert record.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_counts_wins_and_resolves_a_gain():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [b * 0.6 for b in base[:-1]] + [2.0]
    result = record.compare(base, change, "lower", 0.25)
    assert (result["wins"], result["losses"], result["ties"]) == (9, 1, 0)
    assert result["sign_test_p"] == pytest.approx(22 / 1024)
    assert result["base_iqr"] == pytest.approx(1.675 - 1.225)
    assert result["median_ratio"] == pytest.approx(0.6)
    assert result["gain_resolves"] and not result["regresses"]


def test_compare_counts_a_missing_value_as_a_loss():
    result = record.compare([0.9, 0.8, None], [None, 0.8, 0.7], "higher",
                            0.1)
    assert (result["wins"], result["losses"], result["ties"]) == (1, 1, 1)
    assert result["median_ratio"] == 1.0
    assert not result["gain_resolves"]


def test_compare_flags_a_regression_past_the_bound():
    result = record.compare([1.0] * 4, [1.3] * 4, "lower", 0.25)
    assert result["losses"] == 4 and result["regresses"]
    assert not record.compare([1.0] * 4, [1.2] * 4, "lower",
                              0.25)["regresses"]
    assert math.isclose(result["median_gain"], -0.3)


def test_three_pairs_cannot_resolve_a_gain():
    # 3 of 3 wins gives p = 0.25, however large the gain
    result = record.compare([1.0, 1.1, 1.2], [0.1, 0.2, 0.3], "lower",
                            math.inf)
    assert result["wins"] == 3 and result["sign_test_p"] == 0.25
    assert not result["gain_resolves"]
    assert result["verdict"] == "not enough pairs"


def test_six_pairs_all_won_resolve_a_gain():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    result = record.compare(base, [b / 2 for b in base], "lower", math.inf)
    assert result["sign_test_p"] == pytest.approx(2 / 64)
    assert result["gain_resolves"] and result["verdict"] == "gain resolves"
    # five of five gives p = 0.0625: not enough
    assert record.compare(base[:5], [b / 2 for b in base[:5]], "lower",
                          math.inf)["verdict"] == "not enough pairs"


def test_a_case_losing_nine_of_ten_pairs_reads_slower():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [b * 2 for b in base[:-1]] + [1.0]
    result = record.compare(base, change, "lower", math.inf)
    assert (result["wins"], result["losses"]) == (1, 9)
    assert result["slower"] and not result["regresses"]
    assert result["verdict"] == "slower"
    # the same pairs, mirrored, are a gain and not slower
    mirrored = record.compare(change, base, "lower", math.inf)
    assert mirrored["gain_resolves"] and not mirrored["slower"]


def test_a_peak_rss_step_is_not_a_verdict():
    # peak RSS moves about 0.13 MB with any source edit, in every pair
    base = [51.89 + 0.01 * (i % 3) for i in range(10)]

    def read(change, name="peak_rss_mb"):
        runs = [{"side": side, "failed": False, name: value}
                for pair in zip(base, change)
                for side, value in zip(("base", "change"), pair)]
        return record.summarize(runs, [(name, "lower", math.inf)],
                                [])["metrics"][name]
    worse = read([b + 0.13 for b in base])
    assert worse["losses"] == 10 and worse["sign_test_p"] < 0.01
    assert worse["verdict"] == "no resolved change"
    assert read([b - 5.0 for b in base])["verdict"] == "gain resolves"
    # the step is peak RSS's alone: the same pairs in seconds read slower
    assert read([b + 0.13 for b in base], "s")["verdict"] == "slower"


def test_parse_seeds():
    assert record.parse_seeds("300-303") == [300, 301, 302, 303]
    assert record.parse_seeds("0,5-6") == [0, 5, 6]


def test_naming_a_workload_or_case_runs_only_what_is_named():
    required = ["--base", "HEAD", "--out", "bench.json"]
    args = record.parse_args(required)
    assert args.workload == list(record.WORKLOADS)
    assert args.case == list(record.CASES)
    args = record.parse_args(required + ["--workload", "p2_jain"])
    assert (args.workload, args.case) == (["p2_jain"], [])
    args = record.parse_args(required + ["--case", "lcc_m1600", "--case",
                                        "klcc_path_m400"])
    assert (args.workload, args.case) == ([], ["lcc_m1600",
                                               "klcc_path_m400"])
    args = record.parse_args(required + ["--case", "svm_m1600",
                                        "--workload", "p1_gaussian"])
    assert (args.workload, args.case) == (["p1_gaussian"], ["svm_m1600"])
    with pytest.raises(SystemExit):
        record.parse_args(["--out", "bench.json"])


def test_loading_the_script_leaves_the_environment_alone(monkeypatch):
    # children get BLAS on one thread through env=, not this process
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    load_script()
    assert dict(os.environ) == before


def test_snapshot_copies_what_git_would_commit(tmp_path, monkeypatch):
    repo, into = tmp_path / "repo", tmp_path / "chng"
    (repo / "sub").mkdir(parents=True)
    for name in ("kept.py", "sub/edited.py", "deleted.py", "new.py",
                 "ignored.log"):
        (repo / name).write_text(name)
    (repo / ".gitignore").write_text("*.log\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True,
                       capture_output=True)
    git("init", "-q")
    git("add", "kept.py", "sub/edited.py", "deleted.py", ".gitignore")
    (repo / "sub" / "edited.py").write_text("edited")
    (repo / "deleted.py").unlink()
    monkeypatch.setattr(record, "ROOT", repo)
    record.snapshot(into)
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*")
                    if p.is_file())
    assert copied == [".gitignore", "kept.py", "new.py", "sub/edited.py"]
    assert (into / "sub" / "edited.py").read_text() == "edited"
