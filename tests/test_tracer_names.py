"""The traced benchmark wraps lcckit functions by module and attribute
name (perfbench/spans.py, PATCHES); each of those names must still be a
callable, or a traced run fails only when it installs its wrappers."""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PATCHES = runpy.run_path(str(SPANS))["PATCHES"]


@pytest.mark.parametrize("module_name, attr, span", PATCHES,
                         ids=[f"{m}.{a}" for m, a, _ in PATCHES])
def test_patched_name_is_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{module_name}.{attr} (span {span}) is gone"
