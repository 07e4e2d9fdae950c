"""Span recording for the traced benchmark run.

The program is not instrumented.  Instead, each layer's public functions
are wrapped by name in the modules that call them: `lcckit.lcc` does
`from .lp import solve`, so its calls go through `lcckit.lcc.solve`, and
that is the name patched.  Each span records name, start, end, parent
span and pass id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  The module is the caller's, so one
# function can appear under several modules, and one span name can cover
# several functions.  lcc and klcc programs are told apart by the module
# that calls `solve`.
PATCHES = (
    ("lcckit.lcc", "solve", "lp.lcc"),
    ("lcckit.kernel", "solve", "lp.klcc"),
    ("lcckit.lcc", "assemble_lcc_lp", "lcc.assemble"),
    ("lcckit.lcc", "class_centers", "lcc.class_centers"),
    ("lcckit.lcc", "fqcc_objective", "lcc.fqcc_objective"),
    ("lcckit.evaluation", "train_lcc", "lcc.train_lcc"),
    ("lcckit.cli", "train_lcc", "lcc.train_lcc"),
    ("lcckit.evaluation", "train_fqcc", "lcc.train_fqcc"),
    ("lcckit.cli", "train_fqcc", "lcc.train_fqcc"),
    ("lcckit.kernel", "gram", "kernel.gram"),
    ("lcckit.evaluation", "median_pairwise_distance", "kernel.median_width"),
    ("lcckit.cli", "median_pairwise_distance", "kernel.median_width"),
    ("lcckit.evaluation", "train_klcc", "kernel.train_klcc"),
    ("lcckit.cli", "train_klcc", "kernel.train_klcc"),
    ("lcckit.evaluation", "kscore", "kernel.kscore"),
    ("lcckit.model_io", "kscore", "kernel.kscore"),
    ("lcckit.evaluation", "fit_discriminator", "discriminators.fit"),
    ("lcckit.cli", "fit_discriminator", "discriminators.fit"),
    ("lcckit.discriminators", "solve_svm_1d", "discriminators.solve_svm_1d"),
    ("lcckit.evaluation", "discriminator_score", "discriminators.score"),
    ("lcckit.model_io", "discriminator_score", "discriminators.score"),
    ("lcckit.model_io", "discriminate", "discriminators.score"),
    ("lcckit.evaluation", "train_linear_svm", "baselines.svm"),
    ("lcckit.cli", "train_linear_svm", "baselines.svm"),
    ("lcckit.baselines", "hinge_objective", "baselines.hinge_objective"),
    ("lcckit.cli", "hinge_objective", "baselines.hinge_objective"),
    ("lcckit.evaluation", "train_lda", "baselines.lda"),
    ("lcckit.cli", "train_lda", "baselines.lda"),
    ("lcckit.evaluation", "roc_auc", "evaluation.roc_auc"),
    ("lcckit.evaluation", "rank_sum_test", "evaluation.rank_sum_test"),
    ("lcckit.evaluation", "stratified_split", "evaluation.split"),
    ("lcckit.evaluation", "stratified_kfold", "evaluation.split"),
    ("lcckit.cli", "run_benchmark", "evaluation.run_benchmark"),
    ("lcckit.cli", "demo_gaussian_pair", "data.generate"),
    ("lcckit.cli", "gen_shape", "data.generate"),
    ("lcckit.cli", "load_csv", "data.load_csv"),
    ("lcckit.cli", "fit_normalizer", "data.normalize"),
    ("lcckit.cli", "apply_normalizer", "data.normalize"),
    ("lcckit.model_io", "normalize_features", "data.normalize"),
    ("lcckit.cli", "save_classifier", "model_io.save"),
    ("lcckit.cli", "load_classifier", "model_io.load"),
    ("lcckit.cli", "predict_saved", "model_io.predict_saved"),
    ("lcckit.cli", "cmd_train", "cli.train"),
    ("lcckit.cli", "cmd_predict", "cli.predict"),
    ("lcckit.cli", "cmd_benchmark", "cli.benchmark"),
)

# The benchmark's own span around one pass; its self time is the part of
# the pass that no layer span covers.
ROOT = "pass"


@dataclass
class LpCall:
    """One `solve` call seen by the tracer."""

    pass_id: int
    shape: str              # "lcc" or "klcc"
    status: str
    iterations: int
    objective: float | None
    problem: object = None  # kept for the first traced pass only


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # (name, start, end, parent, pass_id)
    lp_calls: list = field(default_factory=list)
    pass_id: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def install(self, modules: dict) -> None:
        """Wrap every name in PATCHES; `modules` maps dotted name to module."""
        for module_name, attr, span in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            setattr(module, attr, wrapper)
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, name):
        shape = name[3:] if name.startswith("lp.") else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.run_span(name, original, *args, **kwargs)
            if shape is not None:
                # the oracle re-solves the problems of the first pass
                tracer.lp_calls.append(LpCall(
                    tracer.pass_id, shape, result.status, result.iterations,
                    result.objective_value,
                    args[0] if tracer.pass_id == 0 else None))
            return result

        return traced

    def reset_stack(self) -> None:
        """After an interrupted pass, the next span has no parent."""
        self._stack.clear()

    def run_span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)


@dataclass
class SpanTotals:
    calls: int = 0
    s: float = 0.0        # summed durations
    self_s: float = 0.0   # summed durations minus time covered by children


def totals_by_name(spans: list, pass_id: int) -> dict:
    """Per span name: calls, inclusive seconds and self seconds in one pass."""
    # a span interrupted by a timeout before it started timing stays None
    mine = [(i, s) for i, s in enumerate(spans)
            if s is not None and s[4] == pass_id]
    covered: dict = {}
    for _, (name, start, end, parent, pid) in mine:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: dict = {}
    for index, (name, start, end, parent, pid) in mine:
        t = totals.setdefault(name, SpanTotals())
        t.calls += 1
        t.s += end - start
        t.self_s += (end - start) - covered.get(index, 0.0)
    return totals


def self_seconds_by_layer(totals: dict) -> dict:
    """Self time summed per layer (the span name's first part)."""
    layers: dict = {}
    for name, t in totals.items():
        layer = "unattributed" if name == ROOT else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t.self_s
    return layers
