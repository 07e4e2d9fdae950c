"""The statistics of bench/pairs.py: sign test, quartiles, pair verdicts."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_sign_test_two_sided():
    # P(X <= 1) for X ~ Bin(10, 1/2) is 11/1024; doubled, 0.0215
    assert pairs.sign_test(9, 1) == pytest.approx(22 / 1024, rel=1e-12)
    assert round(pairs.sign_test(9, 1), 4) == 0.0215
    assert pairs.sign_test(1, 9) == pairs.sign_test(9, 1)
    assert pairs.sign_test(10, 0) == pytest.approx(2 / 1024, rel=1e-12)
    assert pairs.sign_test(5, 5) == 1.0
    assert pairs.sign_test(0, 0) == 1.0


def test_quartiles_interpolate_linearly():
    assert pairs.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (3, 5, 7)
    # numpy's default: positions 0.75, 1.5 and 2.25 of the sorted list
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_counts_wins_and_resolves_a_gain():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [b * 0.6 for b in base[:-1]] + [2.0]
    result = pairs.compare(base, change, "lower", 0.25)
    assert (result["wins"], result["losses"], result["ties"]) == (9, 1, 0)
    assert result["sign_test_p"] == pytest.approx(22 / 1024)
    assert result["base_iqr"] == pytest.approx(1.675 - 1.225)
    assert result["median_ratio"] == pytest.approx(0.6)
    assert result["gain_resolves"] and not result["regresses"]


def test_compare_counts_a_missing_value_as_a_loss():
    result = pairs.compare([0.9, 0.8, None], [None, 0.8, 0.7], "higher",
                           0.1)
    assert (result["wins"], result["losses"], result["ties"]) == (1, 1, 1)
    assert result["median_ratio"] == 1.0
    assert not result["gain_resolves"]


def test_compare_flags_a_regression_past_the_bound():
    result = pairs.compare([1.0] * 4, [1.3] * 4, "lower", 0.25)
    assert result["losses"] == 4 and result["regresses"]
    assert not pairs.compare([1.0] * 4, [1.2] * 4, "lower",
                             0.25)["regresses"]
    assert math.isclose(result["median_gain"], -0.3)


def test_parse_seeds():
    assert pairs.parse_seeds("300-303") == [300, 301, 302, 303]
    assert pairs.parse_seeds("0,5-6") == [0, 5, 6]
