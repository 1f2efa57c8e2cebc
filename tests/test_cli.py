import json
import os
import subprocess
import sys

import jsonschema
import pytest

from oracles import EXPECTED_DIR

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def inequalities_to_csv(diffs) -> str:
    """One CSV line per inequality vector, the input of ``solve-cone``."""
    return "".join(",".join(str(x) for x in d) + "\n" for d in diffs)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


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


def test_enumerate_into_a_pipe_closed_early_ends_quietly():
    # `grass-degen enumerate -n 7 | head -1`: the reader leaves after one
    # line of about a million
    command = [sys.executable, "-X", "dev", "-m", "grassdegen.cli", "enumerate", "-n", "7"]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        assert proc.stdout.readline() == "7:[1,2,3|1,2,3|1,2,3|1,2,3]\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == ""


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
    payload = load_json(tmp_path / "p4" / "fingerprints.json")
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
    payload = load_json(out / "fingerprints.json")
    gens = payload["fingerprints"][0]["generators"]
    assert {"lead": ["123", "456"], "trail": ["124", "356"], "sign": -1} in gens


def test_pipeline_n5_summary(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--out", str(tmp_path / "p5"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=144 ideals=12 orbits=[12]"


def _tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    tree = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def test_pipeline_refuses_a_nonempty_out(tmp_path):
    out = tmp_path / "run"
    assert run_cli("pipeline", "-n", "5", "--out", str(out)).returncode == 0
    before = _tree_bytes(out)
    proc = run_cli(
        "pipeline", "-n", "5", "--seq", "5:[2,1,3|1,2,3]", "--skip-verify", "--out", str(out)
    )
    assert proc.returncode == 2
    assert f"--out {out} exists and is not an empty directory" in proc.stderr
    assert _tree_bytes(out) == before
    # a file in place of the directory is refused too
    path = tmp_path / "file"
    path.write_text("kept\n")
    proc = run_cli("pipeline", "-n", "4", "--out", str(path))
    assert proc.returncode == 2
    assert path.read_text() == "kept\n"


def test_pipeline_writes_into_an_empty_out(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    proc = run_cli("pipeline", "-n", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()


def test_orbit_of_examples():
    proc = run_cli("orbit-of", "(1,3;2,1)")
    assert proc.returncode == 0, proc.stderr
    assert "class=O2" in proc.stdout and "intersection=48" in proc.stdout
    proc = run_cli("orbit-of", "(3,1;2,1)")
    assert proc.returncode == 0
    assert "class=O3" in proc.stdout and "intersection=48" in proc.stdout


def test_orbit_of_prints_the_recorded_line_for_every_label(capsys):
    from grassdegen.cli import main

    with open(os.path.join(EXPECTED_DIR, "gr36_orbit_of.txt")) as fh:
        recorded = fh.read().splitlines()
    assert len(recorded) == 240
    for line in recorded:
        label = line.split()[0][len("label="):]
        assert main(["orbit-of", label]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_orbit_of_usage_error():
    proc = run_cli("orbit-of", "(9,9;9,9)")
    assert proc.returncode == 2


def test_solve_cone_roundtrip(tmp_path):
    from grassdegen.initial_forms import inequality_set
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
    schema = load_json(os.path.join(SCHEMA_DIR, "cone_solution.schema.json"))
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
    payload = load_json(tmp_path / "verify.json")
    schema = load_json(os.path.join(SCHEMA_DIR, "verify.schema.json"))
    jsonschema.validate(payload, schema)
    assert payload["plucker"] == {"rank2": 5, "rank3": 45}
    assert all(f["rank2"] == 5 and f["rank3"] == 45 for f in payload["fingerprints"])


GOOD_GENERATOR = {"lead": ["123", "145"], "trail": ["124", "135"], "sign": -1}


def _fingerprints_file(**generator):
    return {"n": 5, "fingerprints": [{"generators": [dict(GOOD_GENERATOR, **generator)]}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({"n": 9, "fingerprints": []}, "n must be in 4..8", id="n-above-ceiling"),
        pytest.param({"n": "5", "fingerprints": []}, "needs an integer 'n'", id="n-not-int"),
        pytest.param([{"n": 5}], "needs an integer 'n'", id="json-list"),
        pytest.param({"n": 5}, "needs a 'fingerprints' list", id="no-fingerprints"),
        pytest.param({"n": 5, "fingerprints": [{"id": 0}]}, "'generators' list", id="no-generators"),
        pytest.param(
            {"n": 5, "fingerprints": [{"generators": [{"lead": ["123", "145"]}]}]},
            "'sign'",
            id="no-sign",
        ),
        pytest.param(_fingerprints_file(sign="-"), "1 or -1", id="sign-not-int"),
        pytest.param(
            _fingerprints_file(lead=["132", "145"]), "increasing triples in 1..5", id="not-increasing"
        ),
        pytest.param(
            _fingerprints_file(trail=["124", "136"]), "increasing triples in 1..5", id="index-above-n"
        ),
        pytest.param(
            _fingerprints_file(trail="124"), "increasing triples in 1..5", id="monomial-not-a-pair"
        ),
        pytest.param(
            {
                "n": 4,
                "fingerprints": [
                    {"generators": [{"lead": ["123", "124"], "trail": ["124", "123"], "sign": -1}]}
                ],
            },
            "lead and trail must be different monomials",
            id="zero-generator",
        ),
        pytest.param("{", "not JSON", id="not-json"),
    ],
)
def test_verify_bad_fingerprints_file_is_usage_error(tmp_path, payload, message):
    path = tmp_path / "fingerprints.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    proc = run_cli("verify", "--fingerprints", str(path))
    assert proc.returncode == 2
    assert str(path) in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_fingerprints_file_reads_a_monomial_in_either_order(tmp_path):
    # p123*p145 - p124*p135, p124*p135 - p125*p134 and p123*p145 - p125*p134
    # span a space of dimension 2, whichever way the first monomial is written
    reports = []
    for first in (["123", "145"], ["145", "123"]):
        generators = [
            {"lead": ["123", "145"], "trail": ["124", "135"], "sign": -1},
            {"lead": ["124", "135"], "trail": ["125", "134"], "sign": -1},
            {"lead": first, "trail": ["125", "134"], "sign": -1},
        ]
        path = tmp_path / "fingerprints.json"
        path.write_text(json.dumps({"n": 5, "fingerprints": [{"generators": generators}]}))
        proc = run_cli("verify", "--fingerprints", str(path))
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout))
    assert reports[0] == reports[1]
    assert reports[0]["fingerprints"][0]["rank2"] == 2


def test_verify_n_0_is_an_n_out_of_range():
    proc = run_cli("verify", "-n", "0")
    assert proc.returncode == 2
    assert "n must be in 4..8, got 0" in proc.stderr


def test_verify_n8_is_refused_before_fingerprinting(monkeypatch, capsys):
    from grassdegen import cli

    def unreachable(n):
        raise AssertionError("verify -n 8 fingerprinted its labels")

    monkeypatch.setattr(cli, "label_fingerprints", unreachable)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "-n", "8"])
    assert info.value.code == 2
    assert "verify -n 8 cannot finish: it fingerprints all 302,400 labels" in capsys.readouterr().err


def test_verify_accepts_an_n8_fingerprints_file(tmp_path, monkeypatch):
    from grassdegen import cli

    # the file's own size bounds the work, so only the report is stubbed
    monkeypatch.setattr(cli, "verify_fingerprints", lambda fps, n: {"n": n, "count": len(fps)})
    generator = {"lead": ["123", "456"], "trail": ["124", "356"], "sign": -1}
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"n": 8, "fingerprints": [{"generators": [generator]}]}))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--fingerprints", str(path), "-o", str(out)]) == 0
    assert load_json(out) == {"n": 8, "count": 1}


def test_pipeline_seq_of_another_n_is_usage_error(tmp_path):
    proc = run_cli(
        "pipeline", "-n", "6", "--seq", "5:[1,2,3|1,2,3]", "--out", str(tmp_path / "run")
    )
    assert proc.returncode == 2
    assert "sequence 5:[1,2,3|1,2,3] has n=5, but the run has n=6" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_n_ceiling_is_usage_error(tmp_path):
    # indices are written one digit each and n = 9 cannot finish, so n stops at 8
    proc = run_cli("enumerate", "-n", "9")
    assert proc.returncode == 2
    assert "n must be in 4..8" in proc.stderr
    proc = run_cli("pipeline", "-n", "10", "--out", str(tmp_path / "p10"))
    assert proc.returncode == 2
    assert "n must be in 4..8" in proc.stderr


def test_pipeline_n8_without_seq_is_usage_error(tmp_path):
    out = tmp_path / "p8"
    proc = run_cli("pipeline", "-n", "8", "--out", str(out))
    assert proc.returncode == 2
    assert "pipeline -n 8 needs --seq" in proc.stderr
    assert "217,728,000 sequences cannot finish" in proc.stderr
    assert not out.exists()


def test_pipeline_n8_with_seq_runs(tmp_path):
    out = tmp_path / "p8"
    proc = run_cli(
        "pipeline", "-n", "8", "--seq", "8:[1,2,3|1,2,3|1,2,3|1,2,3|1,2,3]",
        "--skip-verify", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=1 ideals=1 orbits=[1]"
    assert load_json(out / "weights.json")["n"] == 8


def test_jobs_flag(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--jobs", "2", "--out", str(tmp_path / "j5"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "sequences=144 ideals=12 orbits=[12]"


def test_a_broken_invariant_exits_1_on_every_command(tmp_path, monkeypatch, capsys):
    """All-zero valuation rows tie every term of a relation, so no initial
    form is a binomial: each command exits 1, names the first sequence it
    fingerprints and prints no usage banner."""
    from grassdegen import cli, valuation
    from grassdegen.classify import classify_gr36
    from grassdegen.sequences import all_labels, representative_sequence

    def first_sequence(n):
        return representative_sequence(next(all_labels(n)), n).serialize()

    monkeypatch.setattr(valuation, "compute_valuation", lambda seq, K: (0,) * (3 * (seq.n - 3)))
    out = tmp_path / "out"
    commands = [
        (["pipeline", "-n", "5", "--seq", "5:[2,1,3|1,2,3]", "--out", str(out)], "5:[2,1,3|1,2,3]"),
        (["orbit-of", "(1,2;1,3)"], first_sequence(6)),
        (["verify", "-n", "5"], first_sequence(5)),
    ]
    classify_gr36.cache_clear()
    try:
        for argv, serialized in commands:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"error: sequence {serialized}: non-binomial initial form" in err
            assert "usage:" not in err
    finally:
        classify_gr36.cache_clear()
    assert not out.exists()


def test_an_n6_orbit_of_no_class_exits_1(tmp_path, monkeypatch, capsys):
    """With O3 taken out of the class table, the orbit of its representative
    (1,2;1,2), the label of the standard sequence, holds no representative:
    orbit-of and pipeline exit 1, name the orbit's labels and print no usage
    banner, and pipeline writes nothing."""
    from grassdegen import classify, cli

    without_o3 = {name: row for name, row in classify.GR36_CLASSES.items() if name != "O3"}
    monkeypatch.setattr(classify, "GR36_CLASSES", without_o3)
    out = tmp_path / "out"
    commands = [
        ["orbit-of", "(1,2;1,2)"],
        ["pipeline", "-n", "6", "--seq", "6:[1,2,3|1,2,3|1,2,3]", "--skip-verify", "--out", str(out)],
    ]
    classify.classify_gr36.cache_clear()
    classify._class_seeds.cache_clear()
    try:
        for argv in commands:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: the Gr(3,6) orbit of labels [("), argv
            assert "(1,2;1,2)" in err and "holds no representative" in err
            assert "usage:" not in err
    finally:
        classify.classify_gr36.cache_clear()
        classify._class_seeds.cache_clear()
    assert not out.exists()
