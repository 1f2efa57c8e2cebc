import json
import os
import subprocess
import sys

import jsonschema

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "grassdegen.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_version():
    proc = run_cli("version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.0.0"


def test_enumerate_counts():
    proc = run_cli("enumerate", "-n", "4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0] == "4:[1,2,3]"
    assert "count=6" in proc.stderr


def test_enumerate_n6_count():
    proc = run_cli("enumerate", "-n", "6")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 8640


def test_enumerate_usage_error():
    proc = run_cli("enumerate", "-n", "3")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower() or "n must be" in proc.stderr


def test_enumerate_to_file(tmp_path):
    target = tmp_path / "seqs.txt"
    proc = run_cli("enumerate", "-n", "5", "-o", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert len(target.read_text().splitlines()) == 144


def test_pipeline_n4_degenerate(tmp_path):
    proc = run_cli("pipeline", "-n", "4", "--out", str(tmp_path / "p4"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=6 ideals=1 orbits=[1]"
    payload = json.load(open(tmp_path / "p4" / "fingerprints.json"))
    assert payload["fingerprints"][0]["generators"] == []


def test_bad_jobs_is_usage_error(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--jobs", "two", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2


def test_pipeline_single_sequence(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "pipeline", "-n", "6", "--seq", "6:[1,2,3|1,2,3|1,2,3]",
        "--skip-verify", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=1 ideals=1 orbits=[1]"
    payload = json.load(open(out / "fingerprints.json"))
    gens = payload["fingerprints"][0]["generators"]
    assert {"lead": ["123", "456"], "trail": ["124", "356"], "sign": -1} in gens


def test_pipeline_n5_summary(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--out", str(tmp_path / "p5"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=144 ideals=12 orbits=[12]"


def test_orbit_of_examples():
    proc = run_cli("orbit-of", "(1,3;2,1)")
    assert proc.returncode == 0, proc.stderr
    assert "class=O2" in proc.stdout and "intersection=48" in proc.stdout
    proc = run_cli("orbit-of", "(3,1;2,1)")
    assert proc.returncode == 0
    assert "class=O3" in proc.stdout and "intersection=48" in proc.stdout


def test_orbit_of_usage_error():
    proc = run_cli("orbit-of", "(9,9;9,9)")
    assert proc.returncode == 2


def test_solve_cone_roundtrip(tmp_path):
    from grassdegen.initial_forms import inequalities_to_csv, inequality_set
    from grassdegen.sequences import standard_sequence
    from grassdegen.valuation import weighting_matrix

    S = standard_sequence(6)
    M = weighting_matrix(S)
    ineq_path = tmp_path / "ineq.csv"
    matrix_path = tmp_path / "matrix.csv"
    ineq_path.write_text(inequalities_to_csv(inequality_set(S, M)))
    matrix_path.write_text(M.to_csv())
    proc = run_cli(
        "solve-cone", "--inequalities", str(ineq_path), "--matrix", str(matrix_path)
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    schema = json.load(open(os.path.join(SCHEMA_DIR, "cone_solution.schema.json")))
    jsonschema.validate(payload, schema)
    assert payload["w"]["123"] == 0
    diffs = [tuple(int(x) for x in line.split(",")) for line in ineq_path.read_text().splitlines()]
    assert all(sum(a * b for a, b in zip(payload["e"], d)) >= 1 for d in diffs)


def test_solve_cone_infeasible_exit_code(tmp_path):
    ineq = tmp_path / "bad.csv"
    ineq.write_text("1,0,0,0,0,0,0,0,0\n-1,0,0,0,0,0,0,0,0\n")
    matrix = tmp_path / "m.csv"
    from grassdegen.sequences import standard_sequence
    from grassdegen.valuation import weighting_matrix

    matrix.write_text(weighting_matrix(standard_sequence(6)).to_csv())
    proc = run_cli("solve-cone", "--inequalities", str(ineq), "--matrix", str(matrix))
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_solve_cone_empty_matrix_is_usage_error(tmp_path):
    ineq = tmp_path / "ineq.csv"
    ineq.write_text("1,0,0,0,0,0,0,0,0\n")
    matrix = tmp_path / "empty.csv"
    matrix.write_text("")
    proc = run_cli("solve-cone", "--inequalities", str(ineq), "--matrix", str(matrix))
    assert proc.returncode == 2
    assert "no matrix rows" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_from_fingerprints_file(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "pipeline", "-n", "5", "--skip-verify", "--out", str(out)
    )
    assert proc.returncode == 0
    assert not (out / "verify.json").exists()
    proc = run_cli(
        "verify", "--fingerprints", str(out / "fingerprints.json"),
        "-o", str(tmp_path / "verify.json"),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.load(open(tmp_path / "verify.json"))
    schema = json.load(open(os.path.join(SCHEMA_DIR, "verify.schema.json")))
    jsonschema.validate(payload, schema)
    assert payload["plucker"] == {"rank2": 5, "rank3": 45}
    assert all(f["rank2"] == 5 and f["rank3"] == 45 for f in payload["fingerprints"])


def test_n_ceiling_is_usage_error(tmp_path):
    # indices are written one digit each and n = 9 cannot finish, so n stops at 8
    proc = run_cli("enumerate", "-n", "9")
    assert proc.returncode == 2
    assert "n must be in 4..8" in proc.stderr
    proc = run_cli("pipeline", "-n", "10", "--out", str(tmp_path / "p10"))
    assert proc.returncode == 2
    assert "n must be in 4..8" in proc.stderr


def test_jobs_flag(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--jobs", "2", "--out", str(tmp_path / "j5"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "sequences=144 ideals=12 orbits=[12]"
