"""Every script under ``examples/`` runs cleanly in a fresh interpreter.

The examples are roots of the code, like the CLI: a library function that
only an example calls is still used, and this smoke test keeps the
examples from rotting as the library changes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert {path.name for path in EXAMPLES} >= {
        "capacity_planning.py",
        "design_space_exploration.py",
        "heterogeneous_cluster_of_clusters.py",
        "quickstart.py",
        "reproduce_figures.py",
    }


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_prints(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
