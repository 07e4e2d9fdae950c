"""decide(X) is each model's one labeling-and-scoring call: its labels at
a score of exactly 0 and at a NaN row are pinned per kind, predict and
score are its two halves, and a saved model projects its rows once."""

import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

import lcckit.kernel
from lcckit.baselines import LdaModel, SvmModel
from lcckit.data import demo_gaussian_pair
from lcckit.discriminators import Discriminator, DiscriminatorError
from lcckit.evaluation import METHODS, Discriminated, fit
from lcckit.kernel import KernelLccModel
from lcckit.lcc import FqccModel, LccModel
from lcckit.model_io import SavedClassifier, predict_saved

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# one feature; the row 0.5 scores exactly 0 under every model below
ZERO_AND_NAN = np.array([[0.5], [np.nan]])
LCC = LccModel([1.0], 0.0, 1.0, 0.5, 2.0, -0.01, [0.0, 0.0])
MODELS = {
    "lcc": LCC,
    "klcc": KernelLccModel("linear", None, [1.0], [[1.0]], 0.0, 1.0, 0.5,
                           2.0, -0.01, [0.0]),
    "fqcc": FqccModel([1.0], 0.0, 1.0, 2.0, -0.01, 0.0),
    "lda": LdaModel([1.0], 0.5, 0.5),
    "svm": SvmModel([1.0], -0.5, 1.0),
}
# (label at score 0, label at a NaN score)
TIE_AND_NAN_LABELS = {"lcc": (1, 1), "klcc": (1, 1), "svm": (1, 1),
                      "fqcc": (-1, 1), "lda": (-1, -1)}
RULES = {"dist": Discriminator("dist", threshold=0.5),
         "one_sv": Discriminator("one_sv", scale=1.0, weight=1.0,
                                 intercept=-0.5, h=10.0),
         "one_nn": Discriminator("one_nn", values=[0.0, 1.0],
                                 labels=[-1, 1])}
# one_nn: 0.5 is as far from 0.0 as from 1.0, and the lower index wins
RULE_TIE_LABELS = {"dist": 1, "one_sv": 1, "one_nn": -1}


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_tie_and_nan_labels(name):
    model = MODELS[name]
    scores = model.score(ZERO_AND_NAN)
    assert scores[0] == 0.0 and np.isnan(scores[1])
    assert tuple(model.predict(ZERO_AND_NAN)) == TIE_AND_NAN_LABELS[name]


@pytest.mark.parametrize("kind", RULES)
def test_rule_tie_label_and_nan_error(kind):
    model = Discriminated(LCC, RULES[kind])
    assert model.predict(ZERO_AND_NAN[:1])[0] == RULE_TIE_LABELS[kind]
    for call in (model.predict, model.score, model.decide):
        with pytest.raises(DiscriminatorError, match="finite"):
            call(ZERO_AND_NAN)


@pytest.mark.parametrize("model", [*MODELS.values(),
                                   *(Discriminated(LCC, r)
                                     for r in RULES.values())],
                         ids=[*MODELS, *RULES])
def test_predict_and_score_are_the_halves_of_decide(model):
    X = np.array([[-1.0], [0.25], [0.5], [0.75], [3.0]])
    labels, scores = model.decide(X)
    assert np.array_equal(model.predict(X), labels)
    assert model.predict(X).dtype == labels.dtype
    assert bits(model.score(X)) == bits(scores)


def saved_klcc(discriminator=None):
    data = demo_gaussian_pair(m_per_class=30, seed=5)
    params = {"kernel": "rbf", "rbf_width": 1.0,
              "discriminator": discriminator}
    return SavedClassifier(fit(METHODS["klcc"], data, params, 0)), data


@pytest.mark.parametrize("discriminator", [None, "one_nn"])
def test_predict_saved_evaluates_the_kernel_once(monkeypatch, discriminator):
    saved, data = saved_klcc(discriminator)
    calls = []
    original = lcckit.kernel.kernel_eval

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lcckit.kernel, "kernel_eval", counted)
    labels, scores = predict_saved(saved, data.features)
    assert len(calls) == 1
    assert labels.shape == scores.shape == (data.m,)


def test_predict_saved_records_the_rule_score_span():
    namespace = runpy.run_path(str(SPANS))
    tracer = namespace["Tracer"]()
    modules = {m: importlib.import_module(m)
               for m, _, _ in namespace["PATCHES"]}
    data = demo_gaussian_pair(m_per_class=30, seed=6)
    saved = SavedClassifier(fit(METHODS["lcc"], data,
                                {"discriminator": "one_sv"}, 0))
    tracer.install(modules)
    try:
        predict_saved(saved, data.features)
    finally:
        tracer.uninstall()
    assert "discriminators.score" in [s[0] for s in tracer.spans]
