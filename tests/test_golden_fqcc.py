"""The quadratic-criterion variant returns the recorded results to the bit.

tests/data/fqcc_golden.json holds ten small datasets (the demo Gaussians,
1-D, 3-D and 4-D Gaussian pairs, the four shapes, rounded random data and
a 4-point toy) and, for each, `train_fqcc` at two lams and two sigmas with
its own seed, plus `fqcc_objective` at 20 fixed projections.  It was
written by an earlier build that ran the restarts one after another; the
`train_fqcc` entries were re-recorded once the restarts stepped as one
batch, after that batch was checked against the serial loop kept in
tests/helpers.py.  Inputs are stored as JSON numbers (exact for float64),
outputs with float.hex().
"""

import functools
import json
from pathlib import Path

import numpy as np

from lcckit.data import Dataset
from lcckit.lcc import (FQCC_ITERATIONS, FQCC_RESTARTS, fqcc_objective,
                        train_fqcc)
from tests.helpers import fqcc_bits, fqcc_full_loop, fqcc_serial_oracle

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "fqcc_golden.json").read_text())
DATASETS = {name: Dataset(np.array(d["features"]), np.array(d["labels"]))
            for name, d in GOLDEN["datasets"].items()}


@functools.cache
def fitted(i):
    """train_fqcc on the i-th recorded input, fitted once for every test."""
    case = GOLDEN["train_fqcc"][i]
    return train_fqcc(DATASETS[case["data"]], case["lam"], case["sigma"],
                      seed=case["seed"])


def test_train_fqcc_matches_recorded_bits():
    for i, case in enumerate(GOLDEN["train_fqcc"]):
        model = fitted(i)
        assert [float(b).hex() for b in model.beta] == case["beta"], i
        assert [float(model.c_neg_hat).hex(), float(model.c_pos_hat).hex(),
                float(model.objective).hex()] == \
            [case["c_neg_hat"], case["c_pos_hat"], case["objective"]], i


def test_fqcc_objective_matches_recorded_bits():
    for i, case in enumerate(GOLDEN["fqcc_objective"]):
        value = fqcc_objective(DATASETS[case["data"]], np.array(case["beta"]),
                               case["lam"], case["sigma"])
        assert float(value).hex() == case["value"], i


def test_train_fqcc_no_worse_than_serial_oracle():
    # the restarts step as one batch, whose matrix products round
    # differently from one restart at a time; the fit may land elsewhere
    # but never above the serial loop's best by more than rounding
    for i, case in enumerate(GOLDEN["train_fqcc"]):
        data = DATASETS[case["data"]]
        _, value = fqcc_serial_oracle(data.features, data.labels, case["lam"],
                                      case["sigma"], case["seed"],
                                      FQCC_RESTARTS, FQCC_ITERATIONS)
        assert fitted(i).objective <= value + 1e-12 * max(1.0, abs(value)), i


def test_train_fqcc_stops_where_the_full_loop_ends():
    # the early stop at a fixed point returns what all the steps return
    for i, case in enumerate(GOLDEN["train_fqcc"]):
        assert fqcc_bits(fitted(i)) == fqcc_bits(fqcc_full_loop(
            DATASETS[case["data"]], case["lam"], case["sigma"],
            case["seed"])), i
