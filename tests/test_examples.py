"""The runnable examples exit cleanly.

Each runs as its own process, as a reader would start it.
``affiliation_link_prediction.py`` trains RGCN-LP and MorsE on the full
graph and on KG′; ``multilabel_keywords.py`` is the one program that
trains :class:`~repro.models.RGCNMultiLabelClassifier`.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.parametrize("script", ["affiliation_link_prediction.py", "multilabel_keywords.py"])
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Expected shape" in done.stdout
