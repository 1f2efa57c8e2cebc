"""The modules a fresh interpreter loads for the package.

Every CLI call starts a process, so the package's import is part of every
command's time.  ``import grassdegen.cli`` loads every stage module, which
the tracer of ``perfbench`` relies on, and none of the standard modules a
query never runs: ``multiprocessing``, ``hashlib`` and ``fractions`` load
only in the functions that use them, and no class is a dataclass, so
``dataclasses`` and ``inspect`` never load.  Each check runs in a fresh
subprocess and reads ``sys.modules``; none measures time.
"""

import json
import subprocess
import sys

import pytest

STAGES = ("valuation", "initial_forms", "cone", "exactlinalg", "toricity", "classify", "pipeline")
HEAVY = ("dataclasses", "inspect", "multiprocessing", "hashlib", "fractions")


def loaded_by(code: str) -> set[str]:
    """The modules that running ``code`` in a fresh interpreter loads,
    beyond those the interpreter had loaded at start-up."""
    probe = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        code,
        "loaded = sorted(set(sys.modules) - before)",
        "import json",
        "print()",
        "print(json.dumps(loaded))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_the_cli_loads_every_stage_module():
    loaded = loaded_by("import grassdegen.cli")
    assert {f"grassdegen.{stage}" for stage in STAGES} <= loaded


@pytest.mark.parametrize(
    "code",
    [
        "import grassdegen.cli",
        "from grassdegen import cli\nassert cli.main(['orbit-of', '(1,3;2,1)']) == 0",
        "from grassdegen import cli\nassert cli.main(['verify', '-n', '5']) == 0",
    ],
    ids=["import", "orbit-of", "verify"],
)
def test_no_heavy_standard_module_loads(code):
    assert loaded_by(code).isdisjoint(HEAVY)


def test_a_run_without_a_pool_loads_no_multiprocessing():
    loaded = loaded_by("from grassdegen.pipeline import run_pipeline\nrun_pipeline(5, jobs=1)")
    assert "multiprocessing" not in loaded
    assert "fractions" in loaded  # the LPs ran
