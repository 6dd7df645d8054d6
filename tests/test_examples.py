"""The runnable walkthroughs in ``examples/`` keep running.

The quick examples run end to end as a user would run them; the slow
SGD sweep is only compiled.
"""

from __future__ import annotations

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


@pytest.mark.parametrize(
    "name", ["quickstart", "custom_cluster", "whimpy_cluster", "partitioning_explorer"]
)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_staleness_tradeoff_compiles(tmp_path):
    py_compile.compile(
        str(EXAMPLES / "staleness_tradeoff.py"),
        cfile=str(tmp_path / "staleness_tradeoff.pyc"),
        doraise=True,
    )
