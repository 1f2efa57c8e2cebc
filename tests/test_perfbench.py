"""What the benchmark reads from the package: ``perfbench/child.py fibers``
runs the pipeline and reads ``PipelineResult.outcomes`` and the flags of
each ``SequenceOutcome``; every name ``perfbench/`` imports from the package
exists, and the trace targets it lacks are the known ones.  The tests read
``perfbench/`` and write only under the test's temporary directory."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

from grassdegen.sequences import enumerate_sequences

from oracles import output_hashes, recorded_hashes

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
CHILD = os.path.join(PERFBENCH, "child.py")


def test_child_fibers_runs_the_n5_sweep(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("".join(s.serialize() + "\n" for s in enumerate_sequences(5)))
    out, stats = tmp_path / "out", tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, CHILD, "fibers", "--input", str(seqs), "--out", str(out),
         "--stats", str(stats)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with open(stats) as fh:
        assert json.load(fh) == {"sequences": 144, "broken": [], "broken_count": 0}
    assert output_hashes(out) == recorded_hashes("gr35_full.sha256")


def test_every_name_perfbench_imports_from_the_package_exists():
    imported = []
    for name in sorted(os.listdir(PERFBENCH)):
        if name.endswith(".py"):
            with open(os.path.join(PERFBENCH, name)) as fh:
                tree = ast.parse(fh.read(), name)
            imported += [
                (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grassdegen.")
                for alias in node.names
            ]
    assert ("grassdegen.initial_forms", "inequality_set") in imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_the_trace_targets_the_package_lacks_are_the_two_stale_ones():
    """``tracing.TARGETS`` is read without installing the tracer."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        f"{layer}.{name}"
        for layer, names in tracing.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"grassdegen.{layer}"), name)
    }
    assert missing == {"valuation.compute_valuation", "initial_forms.initial_form"}
