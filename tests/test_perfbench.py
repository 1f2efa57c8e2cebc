"""What the benchmark reads from the package: ``perfbench/child.py fibers``
runs the pipeline and reads ``PipelineResult.outcomes`` and the flags of
each ``SequenceOutcome``.  The run reads ``perfbench/`` and writes only
under the test's temporary directory."""

import json
import os
import subprocess
import sys

from grassdegen.sequences import enumerate_sequences

from oracles import output_hashes, recorded_hashes

CHILD = os.path.join(os.path.dirname(__file__), "..", "perfbench", "child.py")


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
