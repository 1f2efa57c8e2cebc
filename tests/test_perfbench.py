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


def load_tracing():
    """``perfbench/tracing.py`` as a module, without installing the tracer."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_trace_targets_the_package_lacks_are_the_two_stale_ones():
    """``tracing.TARGETS`` is read without installing the tracer."""
    missing = {
        f"{layer}.{name}"
        for layer, names in load_tracing().TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"grassdegen.{layer}"), name)
    }
    assert missing == {"valuation.compute_valuation", "initial_forms.initial_form"}


def test_a_run_reaches_every_trace_target_the_package_defines(tmp_path, monkeypatch, capsys):
    """A full n = 6 run, its outputs and one ``orbit-of`` query call every
    trace target that the package defines, each wrapped with a counter in
    every loaded ``grassdegen`` module, as ``Tracer.install`` wraps it.  The
    caches of the Gr(3,6) classes are cleared first, so that the query
    fingerprints and walks its orbits again."""
    from grassdegen import classify, cli, pipeline

    classify.classify_gr36.cache_clear()
    classify._class_seeds.cache_clear()
    modules = [
        module
        for key, module in list(sys.modules.items())
        if key == "grassdegen" or key.startswith("grassdegen.")
    ]
    counts = {}
    for layer, names in load_tracing().TARGETS.items():
        home = importlib.import_module(f"grassdegen.{layer}")
        for fname in names:
            original = getattr(home, fname, None)
            if original is None:
                continue
            name = f"{layer}.{fname}"
            counts[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        monkeypatch.setattr(module, key, counted)
    result = pipeline.run_pipeline(6, jobs=1)
    pipeline.write_outputs(result, str(tmp_path / "out"))
    assert cli.main(["orbit-of", "(1,2;3,4)"]) == 0
    assert capsys.readouterr().out.startswith("label=(1,2;3,4) ")
    assert "initial_forms.inequality_set" in counts
    assert [name for name, count in counts.items() if count < 1] == []
