"""The modules a fresh interpreter loads for the package.

Every CLI call starts a process, so the package's import is part of every
command's time.  ``import grassdegen.cli`` loads every stage module, which
the tracer of ``perfbench`` relies on, and none of the standard modules a
query never runs: ``multiprocessing`` and ``hashlib`` load only in the
functions that use them, the LP computes in integers, so ``fractions``
never loads, and no class is a dataclass, so ``dataclasses`` and
``inspect`` never load.  Each check runs in a fresh subprocess and reads
``sys.modules``; none measures time.
"""

import json
import subprocess
import sys

import pytest

from grassdegen.initial_forms import inequality_set
from grassdegen.sequences import standard_sequence
from grassdegen.valuation import weighting_matrix

STAGES = ("valuation", "initial_forms", "cone", "exactlinalg", "toricity", "classify", "pipeline")
HEAVY = ("dataclasses", "inspect", "multiprocessing", "hashlib", "fractions")


def loaded_by(code: str, *args: str) -> set[str]:
    """The modules that running ``code`` in a fresh interpreter, with
    ``args`` as its ``sys.argv[1:]``, loads beyond those the interpreter
    had loaded at start-up."""
    probe = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        code,
        "loaded = sorted(set(sys.modules) - before)",
        "import json",
        "print()",
        "print(json.dumps(loaded))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_the_cli_loads_every_stage_module():
    loaded = loaded_by("import grassdegen.cli")
    assert {f"grassdegen.{stage}" for stage in STAGES} <= loaded


# a pipeline run whose 12 labels each solve an LP, in one process
RUN_N5 = (
    "from grassdegen.pipeline import run_pipeline\n"
    "assert run_pipeline(5, jobs=1).counters['lp_solves'] == 12"
)


@pytest.mark.parametrize(
    "code",
    [
        "import grassdegen.cli",
        "from grassdegen import cli\nassert cli.main(['orbit-of', '(1,3;2,1)']) == 0",
        "from grassdegen import cli\nassert cli.main(['verify', '-n', '5']) == 0",
        RUN_N5,
        "import sys\nfrom grassdegen import cli\nineq, matrix = sys.argv[1:]\n"
        "assert cli.main(['solve-cone', '--inequalities', ineq, '--matrix', matrix]) == 0",
    ],
    ids=["import", "orbit-of", "verify", "run_pipeline", "solve-cone"],
)
def test_no_heavy_standard_module_loads(code, tmp_path):
    # the inputs of solve-cone: the standard n=6 sequence's cone
    seq = standard_sequence(6)
    matrix = weighting_matrix(seq)
    ineq_path, matrix_path = tmp_path / "ineq.csv", tmp_path / "matrix.csv"
    ineq_path.write_text("".join(",".join(map(str, d)) + "\n" for d in inequality_set(seq, matrix)))
    matrix_path.write_text(matrix.to_csv())
    assert loaded_by(code, str(ineq_path), str(matrix_path)).isdisjoint(HEAVY)


def test_a_run_without_a_pool_loads_no_multiprocessing():
    assert "multiprocessing" not in loaded_by(RUN_N5)
