import json
import os
import subprocess
import sys

import jsonschema
import pytest

from grassdegen.toricity import plucker_rank

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
        "pipeline", "-n", "6", "--seq", "6:[1,2,3|1,2,3|1,2,3]", "--out", str(out),
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
        "pipeline", "-n", "5", "--seq", "5:[2,1,3|1,2,3]", "--out", str(out)
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


def write_cone_inputs(tmp_path):
    """The inequality and matrix CSVs of the standard n=6 sequence."""
    from grassdegen.initial_forms import inequality_set
    from grassdegen.sequences import standard_sequence
    from grassdegen.valuation import weighting_matrix

    S = standard_sequence(6)
    M = weighting_matrix(S)
    ineq_path = tmp_path / "ineq.csv"
    matrix_path = tmp_path / "matrix.csv"
    ineq_path.write_text(inequalities_to_csv(inequality_set(S, M)))
    matrix_path.write_text(M.to_csv())
    return ineq_path, matrix_path


def test_solve_cone_roundtrip(tmp_path):
    ineq_path, matrix_path = write_cone_inputs(tmp_path)
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


def test_solve_cone_prints_the_point_the_pipeline_writes(tmp_path):
    """The standard n=6 sequence is the first of label (1,2;1,2), so a
    ``pipeline --seq`` run solves the LP of its inequality set: ``solve-cone``
    on its inequality and matrix CSVs prints the e and w of weights.json."""
    ineq_path, matrix_path = write_cone_inputs(tmp_path)
    proc = run_cli(
        "solve-cone", "--inequalities", str(ineq_path), "--matrix", str(matrix_path)
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "run"
    run = run_cli("pipeline", "-n", "6", "--seq", "6:[1,2,3|1,2,3|1,2,3]", "--out", str(out))
    assert run.returncode == 0, run.stderr
    entry = load_json(out / "weights.json")["labels"]["(1,2;1,2)"]
    assert json.loads(proc.stdout) == {"e": entry["e"], "w": entry["w"]}


@pytest.mark.parametrize("command", ["verify", "solve-cone"])
def test_stdout_and_the_output_file_hold_the_same_json_text(command, tmp_path):
    if command == "verify":
        args = ["verify", "-n", "5"]
    else:
        ineq_path, matrix_path = write_cone_inputs(tmp_path)
        args = ["solve-cone", "--inequalities", str(ineq_path), "--matrix", str(matrix_path)]
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out.json"
    assert run_cli(*args, "-o", str(out)).returncode == 0
    assert proc.stdout == out.read_text()
    assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"


def test_solve_cone_infeasible_exit_code(tmp_path):
    ineq = tmp_path / "bad.csv"
    ineq.write_text("1,0,0,0,0,0,0,0,0\n-1,0,0,0,0,0,0,0,0\n")
    matrix = tmp_path / "m.csv"
    from grassdegen.sequences import standard_sequence
    from grassdegen.valuation import weighting_matrix

    matrix.write_text(weighting_matrix(standard_sequence(6)).to_csv())
    proc = run_cli("solve-cone", "--inequalities", str(ineq), "--matrix", str(matrix))
    assert proc.returncode == 1
    # no usage text, no traceback
    assert proc.stderr == "error: open cone is empty (slack optimum 0)\n"


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
    """``verify --fingerprints`` computes every entry of the file; the
    pipeline computes one per orbit and copies it to the other members.
    Both write the same bytes."""
    out = tmp_path / "run"
    proc = run_cli("pipeline", "-n", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
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
    assert (out / "verify.json").read_bytes() == (tmp_path / "verify.json").read_bytes()


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

    monkeypatch.setattr(cli, "fingerprint_labels", unreachable)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "-n", "8"])
    assert info.value.code == 2
    assert "verify -n 8 cannot finish: it fingerprints all 302,400 labels" in capsys.readouterr().err


def test_verify_accepts_an_n8_fingerprints_file(tmp_path, monkeypatch):
    from grassdegen import cli

    # the file's own size bounds the work, so only the report is stubbed
    monkeypatch.setattr(
        cli,
        "verify_fingerprints",
        lambda fps, n, orbits: {"n": n, "count": len(fps), "orbits": orbits},
    )
    generator = {"lead": ["123", "456"], "trail": ["124", "356"], "sign": -1}
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"n": 8, "fingerprints": [{"generators": [generator]}]}))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--fingerprints", str(path), "-o", str(out)]) == 0
    assert load_json(out) == {"n": 8, "count": 1, "orbits": [[0]]}


def test_verify_fingerprints_file_computes_every_entry(tmp_path):
    # a file need not be closed under the action: an ideal and the same
    # ideal with one generator dropped get entries of their own
    from grassdegen.classify import fingerprint
    from grassdegen.initial_forms import decode
    from grassdegen.pipeline import generator_to_json
    from grassdegen.sequences import standard_sequence

    generators = [generator_to_json(g, 6) for g in decode(fingerprint(standard_sequence(6)), 6)]
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"n": 6, "fingerprints": [
        {"generators": generators}, {"generators": generators[1:]},
    ]}))
    proc = run_cli("verify", "--fingerprints", str(path))
    assert proc.returncode == 0, proc.stderr
    full, dropped = json.loads(proc.stdout)["fingerprints"]
    assert (full["id"], dropped["id"]) == (0, 1)
    assert full["rank2"] == 35
    assert dropped["rank2"] == 34


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
        "pipeline", "-n", "8", "--seq", "8:[1,2,3|1,2,3|1,2,3|1,2,3|1,2,3]", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sequences=1 ideals=1 orbits=[1]"
    assert load_json(out / "weights.json")["n"] == 8
    (entry,) = load_json(out / "verify.json")["fingerprints"]
    assert (entry["rank2"], entry["rank3"]) == (plucker_rank(2, 8), plucker_rank(3, 8))


def test_jobs_flag(tmp_path):
    proc = run_cli("pipeline", "-n", "5", "--jobs", "2", "--out", str(tmp_path / "j5"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "sequences=144 ideals=12 orbits=[12]"


def drop_the_last_column(monkeypatch):
    """Zero the last column of every weighting matrix: its rank falls to
    3(n-3) - 1, and no row leads at the last position."""
    from grassdegen import valuation

    real = valuation.valuation_rows
    monkeypatch.setattr(
        valuation, "valuation_rows",
        lambda seq, triples: tuple((*row[:-1], 0) for row in real(seq, triples)),
    )


def first_sequence(n):
    """The sequence that ``orbit-of`` and ``verify -n`` fingerprint first:
    the representative of the first label, on which the first class's
    kernel runs."""
    from grassdegen.sequences import all_labels, representative_sequence

    return representative_sequence(next(all_labels(n)), n).serialize()


def test_a_broken_invariant_exits_1_on_every_command(tmp_path, monkeypatch, capsys):
    """Unit valuation rows that cycle through the positions pass the rank
    certificate, but leave some relation's initial form no binomial: each
    command exits 1, names the first sequence it fingerprints and prints no
    usage banner."""
    from grassdegen import cli, valuation
    from grassdegen.classify import classify_gr36

    def cycling_units(seq, triples):
        dim = 3 * (seq.n - 3)
        return tuple(tuple(int(j == i % dim) for j in range(dim)) for i, _ in enumerate(triples))

    monkeypatch.setattr(valuation, "valuation_rows", cycling_units)
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


def test_a_kernel_failure_of_any_kind_names_its_sequence_on_every_command(
    tmp_path, monkeypatch, capsys
):
    """A base level that never trades its top index 4 stops the descent of
    p_(1,2,4) with a RuntimeError of ``valuation``, not a ValueError: each
    command still exits 1, names the sequence its first kernel runs on,
    prints no usage banner and leaves --out unwritten."""
    from grassdegen import classify, cli, valuation

    from test_valuation import STUCK_AT_THE_BASE

    scope = {}
    exec(STUCK_AT_THE_BASE, scope)
    monkeypatch.setattr(valuation, "_transitions", scope["stuck_at_the_base"])
    out = tmp_path / "out"
    commands = [
        (["pipeline", "-n", "5", "--seq", "5:[1,2,3|1,2,3]", "--out", str(out)], "5:[1,2,3|1,2,3]"),
        (["orbit-of", "(1,2;3,4)"], first_sequence(6)),
        (["verify", "-n", "5"], first_sequence(5)),
    ]
    classify.classify_gr36.cache_clear()
    classify._class_seeds.cache_clear()
    try:
        for argv, serialized in commands:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err == (
                f"error: sequence {serialized}: "
                "the descent of p_(1, 2, 4) ends at (1, 2, 4), not at (1, 2, 3)\n"
            )
    finally:
        classify.classify_gr36.cache_clear()
        classify._class_seeds.cache_clear()
    assert not out.exists()


def test_a_seq_run_names_its_sequence_not_the_label_representative(tmp_path, monkeypatch, capsys):
    """The one kernel run of a label is on its first sequence in run order,
    here the --seq sequence, which is not the label's representative.  A
    kernel that fails on that sequence alone makes the run exit 1, name it,
    print no usage banner and leave --out unwritten."""
    from grassdegen import cli, valuation
    from grassdegen.sequences import IteratedSequence, label_of, representative_sequence

    serialized = "6:[1,2,4|2,1,3|3,2,1]"
    levels = IteratedSequence.parse(serialized).levels
    assert representative_sequence(label_of(levels), 6).serialize() == "6:[1,2,3|2,1,3|1,2,3]"
    real = valuation.valuation_rows

    def with_a_two(seq, triples):
        rows = real(seq, triples)
        return ((2, *rows[0][1:]), *rows[1:]) if seq.serialize() == serialized else rows

    monkeypatch.setattr(valuation, "valuation_rows", with_a_two)
    out = tmp_path / "out"
    assert cli.main(["pipeline", "-n", "6", "--seq", serialized, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sequence {serialized}: valuation row (2, ")
    assert "is not a 0/1 vector" in err
    assert "usage:" not in err
    assert not out.exists()


def test_a_seq_run_names_its_sequence_when_the_kernel_fails_on_it(tmp_path, monkeypatch, capsys):
    """The kernel of the one class of a --seq run runs on the --seq sequence,
    here not its label's representative.  Unit rows that cycle through the
    positions, on that sequence alone, pass the rank certificate but leave
    some relation's initial form no binomial, which only the kernel checks:
    the run exits 1, names the sequence, prints no usage banner and leaves
    --out unwritten."""
    from grassdegen import cli, valuation
    from grassdegen.sequences import IteratedSequence, label_of, representative_sequence

    serialized = "6:[2,3,5|3,1,4|2,3,1]"
    levels = IteratedSequence.parse(serialized).levels
    assert representative_sequence(label_of(levels), 6).serialize() == "6:[2,3,1|3,1,2|1,2,3]"
    real = valuation.valuation_rows

    def cycling_units(seq, triples):
        if seq.serialize() != serialized:
            return real(seq, triples)
        dim = 3 * (seq.n - 3)
        return tuple(tuple(int(j == i % dim) for j in range(dim)) for i, _ in enumerate(triples))

    monkeypatch.setattr(valuation, "valuation_rows", cycling_units)
    out = tmp_path / "out"
    assert cli.main(["pipeline", "-n", "6", "--seq", serialized, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sequence {serialized}: non-binomial initial form\n"
    assert not out.exists()


def test_a_rank_deficient_matrix_stops_the_query_commands(monkeypatch, capsys):
    """A zeroed last column leaves no row leading at the last position:
    orbit-of and verify -n exit 1 on the first sequence they fingerprint."""
    from grassdegen import cli
    from grassdegen.classify import classify_gr36

    drop_the_last_column(monkeypatch)
    commands = [
        (["orbit-of", "(1,2;3,4)"], first_sequence(6), 8),
        (["verify", "-n", "5"], first_sequence(5), 5),
    ]
    classify_gr36.cache_clear()
    try:
        for argv, serialized, position in commands:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err == (
                f"error: sequence {serialized}: rank certificate: "
                f"no valuation row has its first 1 at position {position}\n"
            )
    finally:
        classify_gr36.cache_clear()


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
        ["pipeline", "-n", "6", "--seq", "6:[1,2,3|1,2,3|1,2,3]", "--out", str(out)],
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
