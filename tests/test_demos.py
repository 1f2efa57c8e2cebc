"""Each demo script runs to completion.

Demo 04 is left out: it sweeps all 8640 Gr(3,6) sequences, about 18 s on two
cores, and the same run is covered by the acceptance suite.
"""

import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")


@pytest.mark.parametrize(
    "script",
    [
        "01_plucker_relations.py",
        "02_valuations.py",
        "03_initial_forms_and_cone.py",
        "05_toricity_evidence.py",
    ],
)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
