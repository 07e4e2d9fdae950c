"""The 1-D SVM and the linear SVM baseline return the recorded
parameters to the bit.

tests/data/svm_golden.json holds 50 inputs for each: tie-heavy,
continuous and separable 1-D samples for `solve_svm_1d`, and the demo
Gaussians, the four shapes and rounded random data for
`train_linear_svm`.  Both sets of outputs were recorded from the SMO
solver, the 1-D ones after SMO matched the enumeration oracle in
tests/helpers.py on them.
Inputs are stored as JSON numbers (exact for float64), outputs with
float.hex().
"""

import json
from pathlib import Path

import numpy as np

from lcckit.baselines import train_linear_svm
from lcckit.data import Dataset
from lcckit.discriminators import solve_svm_1d

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "svm_golden.json").read_text())


def test_solve_svm_1d_matches_recorded_bits():
    for i, case in enumerate(GOLDEN["solve_svm_1d"]):
        w, r = solve_svm_1d(np.array(case["values"]),
                            np.array(case["labels"]), case["lam"])
        assert [float(w).hex(), float(r).hex()] == [case["w"], case["r"]], i


def test_train_linear_svm_matches_recorded_bits():
    for i, case in enumerate(GOLDEN["train_linear_svm"]):
        model = train_linear_svm(
            Dataset(np.array(case["features"]), np.array(case["labels"])),
            lam=case["lam"])
        assert [float(x).hex() for x in model.weight] == case["weight"], i
        assert float(model.intercept).hex() == case["intercept"], i
