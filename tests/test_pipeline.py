import json
import os
import re

import jsonschema
import pytest

from grassdegen import pipeline
from grassdegen.classify import classify_gr36
from grassdegen.cone import strict_interior_point, weight_vector
from grassdegen.initial_forms import decode, inequality_set
from grassdegen.pipeline import run_pipeline, write_outputs
from grassdegen.sequences import (
    IteratedSequence,
    format_label,
    representative_sequence,
    standard_sequence,
)
from grassdegen.valuation import weighting_matrix
from oracles import brute_force_fingerprint, output_hashes, recorded_hashes

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_schema(name):
    return load_json(os.path.join(SCHEMA_DIR, name))


@pytest.fixture(scope="module")
def result_n5():
    return run_pipeline(5, jobs=1)


def test_pipeline_n5_counts(result_n5):
    assert len(result_n5.outcomes) == 144
    assert len(result_n5.fingerprints) == 12
    assert result_n5.summary().startswith("sequences=144 ideals=12")


def test_pipeline_n5_flags(result_n5):
    for outcome in result_n5.outcomes:
        assert outcome.all_binomial
        assert outcome.projection_sound
        assert outcome.scalar_matches
        assert outcome.matrix_rank == 6


def test_pipeline_n5_verification(result_n5):
    assert result_n5.plucker_ranks == (5, 45)
    for record in result_n5.verification:
        assert (record["rank2"], record["rank3"]) == (5, 45)
        assert record["snf_ok"] and record["pure_difference"]


def test_n5_outputs_match_the_recorded_hashes(result_n5, tmp_path):
    write_outputs(result_n5, str(tmp_path))
    assert output_hashes(tmp_path) == recorded_hashes("gr35_full.sha256")


def test_single_sequence_mode():
    seq = IteratedSequence.parse("6:[1,2,3|1,2,3|1,2,3]")
    result = run_pipeline(6, jobs=1, sequences=[seq], skip_verify=True)
    assert len(result.outcomes) == 1
    assert len(result.fingerprints) == 1
    fp = result.fingerprints[0]
    assert (((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1) in decode(fp, 6)
    assert result.verification == []


def test_outputs_are_deterministic_and_schema_valid(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    write_outputs(run_pipeline(5, jobs=1), str(out1))
    write_outputs(run_pipeline(5, jobs=2), str(out2))
    names = ["weights.json", "fingerprints.json", "orbits.json", "orbits.csv", "verify.json"]
    for name in names:
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    for sub in sorted(os.listdir(out1 / "matrices")):
        with open(out1 / "matrices" / sub) as f1, open(out2 / "matrices" / sub) as f2:
            assert f1.read() == f2.read()
    for name in [n for n in names if n.endswith(".json")] + ["manifest.json"]:
        schema = load_schema(name.replace(".json", ".schema.json"))
        with open(out1 / name) as fh:
            jsonschema.validate(json.load(fh), schema)


def test_fast_path_matches_reference_fingerprints():
    """The sweep's fingerprints equal the brute-force oracle's, which expands
    every relation and applies the height-weighted order term by term."""
    from grassdegen.sequences import enumerate_sequences

    sample = list(enumerate_sequences(6))[::1517]
    result = run_pipeline(6, jobs=1, sequences=sample, skip_verify=True)
    for outcome in result.outcomes:
        seq = IteratedSequence.parse(outcome.serialized)
        assert decode(outcome.fingerprint, 6) == brute_force_fingerprint(seq)


def test_weights_payload_contents(tmp_path):
    write_outputs(run_pipeline(5, jobs=1), str(tmp_path))
    payload = load_json(tmp_path / "weights.json")
    assert payload["n"] == 5
    assert len(payload["labels"]) == 12
    entry = payload["labels"]["(1,2)"]
    assert entry["w"]["123"] == 0
    assert len(entry["e"]) == 6


@pytest.mark.parametrize(
    "jobs, sequences",
    [(1, None), (2, None), (1, ["6:[1,3,2|2,1,3|1,2,3]"])],
    ids=["n5-jobs1", "n5-jobs2", "seq"],
)
def test_written_weights_are_the_lp_point_of_each_labels_first_sequence(
    tmp_path, jobs, sequences
):
    """Only the first sequence of each label in run order solves the LP; its
    point and e.M are what weights.json holds."""
    if sequences is not None:
        sequences = [IteratedSequence.parse(s) for s in sequences]
    n = sequences[0].n if sequences else 5
    result = run_pipeline(n, jobs=jobs, sequences=sequences, skip_verify=True)
    write_outputs(result, str(tmp_path))
    payload = load_json(tmp_path / "weights.json")

    first = {}
    for outcome in result.outcomes:
        first.setdefault(outcome.label, outcome.serialized)
    assert {witness for witness, _, _ in result.label_weights.values()} == set(first.values())
    assert set(payload["labels"]) == {format_label(label) for label in first}
    for label, witness in first.items():
        seq = IteratedSequence.parse(witness)
        matrix = weighting_matrix(seq)
        e = strict_interior_point(inequality_set(seq, matrix), 3 * (n - 3))
        w = weight_vector(e, matrix.rows)
        entry = payload["labels"][format_label(label)]
        assert entry["e"] == list(e)
        assert entry["w"] == {"".join(map(str, t)): x for t, x in zip(matrix.triples, w)}


def test_manifest_counts_lp_solves(tmp_path, monkeypatch):
    calls = []

    def counting(diffs, dim):
        calls.append(diffs)
        return strict_interior_point(diffs, dim)

    monkeypatch.setattr(pipeline, "strict_interior_point", counting)

    def lp_solves(result, name):
        manifest = load_json(write_outputs(result, str(tmp_path / name)))
        return manifest["counters"]["lp_solves"]

    one = [IteratedSequence.parse("5:[2,1,3|1,2,3]")]
    assert lp_solves(run_pipeline(5, jobs=1, sequences=one, skip_verify=True), "seq") == 1
    assert len(calls) == 1
    del calls[:]
    # 12 labels in 8 chunks: one LP per label, plus one for each fiber that
    # a chunk boundary splits.
    k = lp_solves(run_pipeline(5, jobs=1, skip_verify=True), "n5")
    assert k == len(calls)
    assert 12 <= k <= 12 + 7


def test_manifest_counts_orbit_images(result_n5, tmp_path):
    # n=5 has one orbit, 12 of whose 15 ideals are swept; s_1..s_4 each map
    # every one of the 15
    manifest = load_json(write_outputs(result_n5, str(tmp_path / "n5")))
    assert [r.ambient_size for r in result_n5.orbit_reports] == [15]
    assert manifest["counters"]["orbit_images"] == 60 == 15 * 4


def test_manifest_records_the_largest_written_lp_entry(result_n5, tmp_path):
    manifest = load_json(write_outputs(result_n5, str(tmp_path)))
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))
    weights = load_json(tmp_path / "weights.json")["labels"]
    entries = [x for entry in weights.values() for x in entry["e"]]
    assert len(entries) == 12 * 6
    assert manifest["counters"]["max_abs_e"] == max(map(abs, entries)) > 0


@pytest.mark.parametrize(
    "label, name",
    [
        (((1, 2), (3, 4)), "O1"),
        (((1, 3), (2, 1)), "O2"),
        (((3, 1), (2, 1)), "O3"),
        (((1, 2), (1, 3)), "O4"),
    ],
)
def test_single_sequence_run_names_the_full_run_class(label, name):
    assert classify_gr36()[label].name == name
    result = run_pipeline(
        6, jobs=1, sequences=[representative_sequence(label, 6)], skip_verify=True
    )
    (report,) = result.orbit_reports
    assert report.name == name


def test_manifest_inputs_hash(result_n5, tmp_path):
    """The inputs hash follows the sequences and the verify stage, not the
    worker count."""

    def inputs_sha256(result, name):
        with open(write_outputs(result, str(tmp_path / name))) as fh:
            return json.load(fh)["inputs"]["sha256"]

    full = inputs_sha256(result_n5, "full")
    one = [IteratedSequence.parse("5:[1,2,3|1,2,3]")]
    assert inputs_sha256(run_pipeline(5, jobs=1, sequences=one), "one") != full
    assert inputs_sha256(run_pipeline(5, jobs=1, skip_verify=True), "skip") != full
    assert inputs_sha256(run_pipeline(5, jobs=2), "jobs2") == full


def test_verify_json_is_written_when_verify_ran_on_no_ideals(tmp_path):
    result = run_pipeline(5, jobs=1, sequences=[])
    manifest = load_json(write_outputs(result, str(tmp_path)))
    payload = load_json(tmp_path / "verify.json")
    assert payload == {"n": 5, "plucker": {"rank2": 5, "rank3": 45}, "fingerprints": []}
    jsonschema.validate(payload, load_schema("verify.schema.json"))
    assert "verify.json" in {entry["path"] for entry in manifest["outputs"]}


@pytest.mark.parametrize("run_n, seq_n", [(6, 5), (5, 6)])
def test_a_sequence_of_another_n_is_rejected_up_front(run_n, seq_n):
    seq = standard_sequence(seq_n)
    message = rf"sequence {re.escape(seq.serialize())} has n={seq_n}, but the run has n={run_n}"
    with pytest.raises(ValueError, match=message):
        run_pipeline(run_n, jobs=1, sequences=[standard_sequence(run_n), seq])


def test_sweep_failure_names_its_sequence(monkeypatch):
    def broken(diffs, dim):
        raise ValueError("solver exploded")

    monkeypatch.setattr(pipeline, "strict_interior_point", broken)
    seq = IteratedSequence.parse("5:[2,1,3|1,2,3]")
    with pytest.raises(RuntimeError, match=r"sequence 5:\[2,1,3\|1,2,3\]: solver exploded") as info:
        run_pipeline(5, jobs=1, sequences=[seq], skip_verify=True)
    assert isinstance(info.value.__cause__, ValueError)


def test_pipeline_exits_1_on_a_rank_deficient_weighting_matrix(tmp_path, monkeypatch, capsys):
    from grassdegen.cli import main

    monkeypatch.setattr(pipeline, "exact_rank", lambda rows: 5)
    serialized = "5:[2,1,3|1,2,3]"
    out = tmp_path / "out"
    code = main(["pipeline", "-n", "5", "--seq", serialized, "--skip-verify", "--out", str(out)])
    assert code == 1
    assert f"internal invariant violation for {serialized}" in capsys.readouterr().err
    assert not out.exists()


def test_a_broken_sequence_stops_the_run_before_the_orbit_stage(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the orbit stage ran after a broken sweep")

    monkeypatch.setattr(pipeline, "exact_rank", lambda rows: 5)
    monkeypatch.setattr(pipeline, "compute_orbits", unreachable)
    seqs = [IteratedSequence.parse(s) for s in ("5:[2,1,3|1,2,3]", "5:[1,2,3|1,2,3]")]
    with pytest.raises(RuntimeError, match=r"internal invariant violation for 5:\[2,1,3\|1,2,3\]$"):
        run_pipeline(5, jobs=1, sequences=seqs)


def test_a_valuation_row_outside_0_1_stops_the_run(monkeypatch):
    """Premise (a) of the packed kernel: a row entry of 2 would carry into
    the next base-3 digit, so the worker refuses it and names the sequence."""
    real = pipeline.compute_valuation

    def with_a_two(seq, K):
        row = real(seq, K)
        return (2, *row[1:]) if K == (3, 4, 5) else row

    monkeypatch.setattr(pipeline, "compute_valuation", with_a_two)
    seq = IteratedSequence.parse("5:[2,1,3|1,2,3]")
    with pytest.raises(
        RuntimeError, match=r"^sequence 5:\[2,1,3\|1,2,3\]: valuation row \(2, .* is not a 0/1 vector"
    ):
        run_pipeline(5, jobs=1, sequences=[seq], skip_verify=True)


def test_a_certificate_identity_off_by_one_stops_the_run(monkeypatch):
    """Premise (b): c.M must equal the negated packed rows in every row."""
    real = pipeline.weight_vector

    def off_by_one(e, rows):
        w = list(real(e, rows))
        w[3] += 1
        return tuple(w)

    def unreachable(*args, **kwargs):
        raise AssertionError("the orbit stage ran after a broken sweep")

    monkeypatch.setattr(pipeline, "weight_vector", off_by_one)
    monkeypatch.setattr(pipeline, "compute_orbits", unreachable)
    seqs = [IteratedSequence.parse(s) for s in ("5:[2,1,3|1,2,3]", "5:[1,2,3|1,2,3]")]
    with pytest.raises(RuntimeError, match=r"internal invariant violation for 5:\[2,1,3\|1,2,3\]$"):
        run_pipeline(5, jobs=1, sequences=seqs)
