"""The demo scripts run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["gaussian_separation.py",
                                    "discriminator_rules.py",
                                    "kernel_shapes.py", "lp_tour.py",
                                    "benchmark_protocol.py"])
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            cwd=tmp_path, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path},
                            timeout=120)
    assert result.returncode == 0, result.stderr
