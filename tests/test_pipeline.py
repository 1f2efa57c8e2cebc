import hashlib
import itertools
import json
import logging
import multiprocessing
import operator
import os
import random
import re
import time

import jsonschema
import pytest
from hypothesis import given, strategies as st

from grassdegen import classify, cli, pipeline, valuation
from grassdegen.classify import (
    OrbitReport,
    apply_transposition,
    classify_gr36,
    fingerprint,
    fingerprint_labels,
)
from grassdegen.cone import strict_interior_point, weight_vector
from grassdegen.initial_forms import (
    checked_selection,
    decode,
    inequality_set,
    initial_ideal,
    pack,
    relation_table,
    row_digits,
    select,
)
from grassdegen.pipeline import PipelineResult, run_pipeline, verify_fingerprints, write_outputs
from grassdegen.plucker import all_triples, triple_key
from grassdegen.sequences import (
    BASES,
    IteratedSequence,
    all_labels,
    enumerate_sequences,
    format_label,
    label_of,
    representative_sequence,
    representatives,
    standard_sequence,
)
from grassdegen.toricity import graded_rank, lattice_saturation
from grassdegen.valuation import weighting_matrix
from oracles import (
    brute_force_fingerprint,
    decided_above_base,
    dense_box_lp,
    dense_rank,
    label_class,
    output_hashes,
    plucker_macaulay_rank,
    recorded_hashes,
)
from test_cli import drop_the_last_column
from test_valuation import seeded_sequences

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_schema(name):
    return load_json(os.path.join(SCHEMA_DIR, name))


@pytest.fixture(scope="module")
def result_n5():
    return run_pipeline(5, jobs=1)


@pytest.fixture(scope="module")
def result_n6():
    return run_pipeline(6, jobs=2)


def label_ideals(result):
    """Each label's ideal, from the ideal -> labels map, which names every
    label once."""
    ideals = {
        label: fp for fp, labels in result.labels_by_fingerprint.items() for label in labels
    }
    assert len(ideals) == sum(map(len, result.labels_by_fingerprint.values()))
    return ideals


def text_label(text):
    return label_of(IteratedSequence.parse(text).levels)


def test_pipeline_n5_counts(result_n5):
    assert len(result_n5.outcomes) == 144
    assert len(result_n5.labels_by_fingerprint) == 12
    assert result_n5.summary().startswith("sequences=144 ideals=12")


def test_pipeline_n5_flags(result_n5):
    # one slot, the text: the parent keeps one outcome per sequence, the
    # flags are class constants and the ideal is the label's
    assert not hasattr(result_n5.outcomes[0], "__dict__")
    assert pipeline.SequenceOutcome.__slots__ == ("serialized",)
    for outcome in result_n5.outcomes:
        assert outcome.all_binomial
        assert outcome.projection_sound
        assert outcome.scalar_matches
        # the sweep raises below rank 6; this is the independent check
        rows = weighting_matrix(IteratedSequence.parse(outcome.serialized)).rows
        assert dense_rank([dict(enumerate(row)) for row in rows], 6) == 6


def test_pipeline_n5_verification(result_n5):
    assert result_n5.verify["plucker"] == {"rank2": 5, "rank3": 45}
    assert [record["id"] for record in result_n5.verify["fingerprints"]] == list(range(12))
    for record in result_n5.verify["fingerprints"]:
        assert (record["rank2"], record["rank3"]) == (5, 45)
        assert record["snf_ok"] and record["pure_difference"]


def test_n5_outputs_match_the_recorded_hashes(result_n5, tmp_path):
    write_outputs(result_n5, str(tmp_path))
    assert output_hashes(tmp_path) == recorded_hashes("gr35_full.sha256")


def test_single_sequence_mode():
    seq = IteratedSequence.parse("6:[1,2,3|1,2,3|1,2,3]")
    result = run_pipeline(6, jobs=1, sequences=[seq])
    assert len(result.outcomes) == 1
    assert len(result.labels_by_fingerprint) == 1
    fp = list(result.labels_by_fingerprint)[0]
    assert (((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1) in decode(fp, 6)
    (entry,) = result.verify["fingerprints"]
    assert entry == {"id": 0, "rank2": 35, "rank3": 560, "snf_ok": True, "pure_difference": True}


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
    sample = list(enumerate_sequences(6))[::1517]
    result = run_pipeline(6, jobs=1, sequences=sample)
    ideals = label_ideals(result)
    for outcome in result.outcomes:
        seq = IteratedSequence.parse(outcome.serialized)
        assert decode(ideals[label_of(seq.levels)], 6) == brute_force_fingerprint(seq)


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
    [
        (1, None),
        (2, None),
        (1, ["6:[1,3,2|2,1,3|1,2,3]", "6:[1,3,2|2,1,4|2,1,3]", "6:[1,2,4|1,2,3|2,1,3]"]),
    ],
    ids=["n5-jobs1", "n5-jobs2", "seq"],
)
def test_written_weights_are_the_lp_point_of_each_labels_first_sequence(
    tmp_path, jobs, sequences
):
    """Only the first sequence of each label in run order solves the LP; its
    point and e.M are what weights.json holds, and its weighting matrix is
    what matrices/ holds.  In the seq case the first two sequences share
    a label, so the second runs no LP, and the third sequence, the first
    of label (1,2;1,2), is not its representative, 6:[1,2,3|1,2,3|1,2,3].
    The two labels lie in two classes under the permutations of 1..4, so
    the run makes two kernel runs."""
    if sequences is not None:
        sequences = [IteratedSequence.parse(s) for s in sequences]
    n = sequences[0].n if sequences else 5
    result = run_pipeline(n, jobs=jobs, sequences=sequences)
    write_outputs(result, str(tmp_path))
    payload = load_json(tmp_path / "weights.json")

    first = {}
    for outcome in result.outcomes:
        first.setdefault(text_label(outcome.serialized), outcome.serialized)
    assert {witness for witness, _, _ in result.label_weights.values()} == set(first.values())
    assert set(payload["labels"]) == {format_label(label) for label in first}
    for label, witness in first.items():
        seq = IteratedSequence.parse(witness)
        matrix = weighting_matrix(seq)
        e, _ = strict_interior_point(inequality_set(seq, matrix), 3 * (n - 3))
        w = weight_vector(e, matrix.rows)
        entry = payload["labels"][format_label(label)]
        assert entry["e"] == list(e)
        assert entry["w"] == {"".join(map(str, t)): x for t, x in zip(matrix.triples, w)}
        with open(tmp_path / "matrices" / pipeline._label_filename(label)) as fh:
            assert fh.read() == matrix.to_csv()
    assert len(os.listdir(tmp_path / "matrices")) == len(first)
    if sequences is not None:
        assert any(
            witness != representative_sequence(label, n).serialize()
            for label, witness in first.items()
        )
        assert result.counters["ideal_selections"] == class_total(first.values()) == 2


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
    assert lp_solves(run_pipeline(5, jobs=1, sequences=one), "seq") == 1
    assert len(calls) == 1
    del calls[:]
    del calls[:]
    # one LP per label, however the sweep is chunked
    assert lp_solves(run_pipeline(5, jobs=1), "n5") == 12
    assert len(calls) == 12
    assert lp_solves(run_pipeline(5, jobs=2), "n5-jobs2") == 12


@pytest.mark.parametrize("n", [5, 6])
def test_the_lp_builds_no_weighting_matrix_of_its_own(n, monkeypatch):
    """Each label's LP runs on the rows and selection of the one weighting
    matrix the worker builds for it: a serial run builds one per label in
    the sweep, and the kernel builds one per class of labels."""
    calls = {"sweep": [], "kernel": []}

    def counted(module, stage):
        real = module.weighting_matrix

        def counting(seq):
            calls[stage].append(seq)
            return real(seq)

        monkeypatch.setattr(module, "weighting_matrix", counting)

    counted(pipeline, "sweep")
    counted(classify, "kernel")
    result = run_pipeline(n, jobs=1)
    assert len(calls["sweep"]) == {5: 12, 6: 240}[n]
    assert len(calls["kernel"]) == result.counters["ideal_selections"] == {5: 1, 6: 13}[n]
    assert result.counters["lp_solves"] == len(result.label_weights) == {5: 12, 6: 240}[n]


class CountingPool:
    """Stands in for ``multiprocessing.Pool``: records the size of each pool
    built and the chunksize of each ``imap``, and maps in this process, so
    that no worker is started."""

    def __init__(self, built):
        self.built = built
        self.chunksizes = []

    def __call__(self, processes):
        self.built.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize):
        self.chunksizes.append(chunksize)
        return map(fn, items)


def test_a_run_builds_at_most_one_pool(monkeypatch, caplog):
    built = []
    pool = CountingPool(built)
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caplog.set_level(logging.INFO, logger="grassdegen.pipeline")
    result = run_pipeline(6, jobs=2)
    assert built == [2]
    # 240 labels, ceil(240 / (8 * 2)) = 15 to a chunk, one progress message
    # per chunk: a chunksize of 1 would cost a pipe round trip per label
    assert pool.chunksizes == [15]
    assert len([r for r in caplog.records if r.name == "grassdegen.pipeline"]) == 16
    assert result.timings.keys() == {"enumerate", "ideals", "sweep", "lp", "orbits", "verify"}
    del built[:]
    run_pipeline(6, jobs=1)
    assert built == []
    # the pool threshold counts labels: n=5 has 12 labels and 144 sequences
    run_pipeline(5, jobs=2)
    assert built == []


def test_the_pool_is_the_lp_stage_alone(monkeypatch):
    """A pooled run has closed its pool when the orbit stage starts, and
    verify runs in the parent, once per orbit."""
    children, pids = [], []
    real_orbits, real_saturation = pipeline.compute_orbits, pipeline.lattice_saturation

    def orbits(*args):
        children.append(multiprocessing.active_children())
        return real_orbits(*args)

    def saturation(fp):
        pids.append(os.getpid())
        return real_saturation(fp)

    monkeypatch.setattr(pipeline, "compute_orbits", orbits)
    monkeypatch.setattr(pipeline, "lattice_saturation", saturation)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_pipeline(6, jobs=2)
    assert children == [[]]
    assert pids == [os.getpid()] * 4


def test_the_lp_timing_counts_only_the_lp(monkeypatch):
    real = pipeline.inequality_set

    def slow(seq, matrix):
        time.sleep(0.05)
        return real(seq, matrix)

    monkeypatch.setattr(pipeline, "inequality_set", slow)
    result = run_pipeline(5, jobs=1)
    # 12 labels sleep 0.6 s in the sweep, all of it outside the LP
    assert result.timings["sweep"] >= 0.6
    assert result.timings["lp"] < 0.6


def test_jobs_is_clamped_to_the_cpu_count(monkeypatch):
    built = []
    monkeypatch.setattr(multiprocessing, "Pool", CountingPool(built))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_pipeline(6, jobs=10_000)
    assert built == [3]


def test_manifest_counts_orbit_images(result_n5, tmp_path):
    # n=5 has one orbit, 12 of whose 15 ideals are swept; s_1 and the
    # 5-cycle each map every one of the 15
    manifest = load_json(write_outputs(result_n5, str(tmp_path / "n5")))
    assert [r.ambient_size for r in result_n5.orbit_reports] == [15]
    assert manifest["counters"]["orbit_images"] == 30 == 15 * 2


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
        6, jobs=1, sequences=[representative_sequence(label, 6)]
    )
    (report,) = result.orbit_reports
    assert report.name == name


def test_manifest_inputs_hash(result_n5, tmp_path):
    """The inputs hash covers n, the command and the sequences, not the
    worker count."""

    def inputs_sha256(result, name):
        with open(write_outputs(result, str(tmp_path / name))) as fh:
            return json.load(fh)["inputs"]["sha256"]

    full = inputs_sha256(result_n5, "full")
    one = [IteratedSequence.parse("5:[1,2,3|1,2,3]")]
    assert inputs_sha256(run_pipeline(5, jobs=1, sequences=one), "one") != full
    assert inputs_sha256(run_pipeline(5, jobs=2), "jobs2") == full
    digest = hashlib.sha256(b'{"command": "pipeline", "n": 5}')
    for outcome in result_n5.outcomes:
        digest.update(f"\n{outcome.serialized}".encode())
    assert full == digest.hexdigest()


def direct_entry(fp_id, fp, n) -> dict:
    """One verify.json entry computed on its own fingerprint, with no orbit."""
    cert = lattice_saturation(fp)
    return {
        "id": fp_id, "rank2": graded_rank(fp, 2, n), "rank3": graded_rank(fp, 3, n),
        "snf_ok": cert.saturated, "pure_difference": cert.pure_difference,
    }


@pytest.mark.parametrize("n, orbits", [(5, 1), (6, 4)])
def test_verify_per_orbit_equals_every_entry_computed_directly(n, orbits, tmp_path):
    result = run_pipeline(n, jobs=2)
    direct = {
        "n": n,
        "plucker": {"rank2": plucker_macaulay_rank(2, n), "rank3": plucker_macaulay_rank(3, n)},
        "fingerprints": [
            direct_entry(fp_id, decode(fp, n), n) for fp_id, fp in enumerate(result.labels_by_fingerprint)
        ],
    }
    assert result.verify == direct
    assert result.counters["verify_entries"] == len(result.orbit_reports) == orbits
    assert cli.main(["verify", "-n", str(n), "-o", str(tmp_path / "verify.json")]) == 0
    assert load_json(tmp_path / "verify.json") == direct


def test_verify_copies_an_n7_entry_to_its_orbit_image():
    fp = fingerprint(representative_sequence(((1, 2), (1, 2), (3, 4)), 7))
    image = apply_transposition(1, fp, 7)
    assert image != fp
    members = [decode(fp, 7), decode(image, 7)]
    entries = verify_fingerprints(members, 7, [(0, 1)])["fingerprints"]
    assert entries == [direct_entry(i, member, 7) for i, member in enumerate(members)]


@pytest.mark.parametrize("orbits", [[(0,)], [(0, 1), (1,)], [(0,), (), (1,)], [(0, 2)]])
def test_verify_rejects_orbits_that_do_not_partition_the_ids(orbits):
    fp = decode(fingerprint(standard_sequence(5)), 5)
    with pytest.raises(ValueError, match="do not partition the ids of 2 fingerprints"):
        verify_fingerprints([fp, fp], 5, orbits)


def test_fingerprint_labels_equal_the_sweep_map(result_n5):
    ideals, _ = fingerprint_labels(representatives(5))
    assert ideals == result_n5.labels_by_fingerprint
    assert list(ideals) == list(result_n5.labels_by_fingerprint)


def test_manifest_counts_computed_verify_entries(result_n5, tmp_path):
    manifest = load_json(write_outputs(result_n5, str(tmp_path)))
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["counters"]["verify_entries"] == 1


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
        run_pipeline(5, jobs=1, sequences=[seq])
    assert isinstance(info.value.__cause__, ValueError)


def test_pipeline_exits_1_on_a_rank_deficient_weighting_matrix(tmp_path, monkeypatch, capsys):
    from grassdegen.cli import main

    drop_the_last_column(monkeypatch)
    serialized = "5:[2,1,3|1,2,3]"
    out = tmp_path / "out"
    code = main(["pipeline", "-n", "5", "--seq", serialized, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    message = "rank certificate: no valuation row has its first 1 at position 5"
    assert f"sequence {serialized}: {message}" in err
    assert not out.exists()


def test_a_broken_sequence_stops_the_run_before_the_orbit_stage(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the orbit stage ran after a broken sweep")

    drop_the_last_column(monkeypatch)
    monkeypatch.setattr(pipeline, "compute_orbits", unreachable)
    seqs = [IteratedSequence.parse(s) for s in ("5:[2,1,3|1,2,3]", "5:[1,2,3|1,2,3]")]
    with pytest.raises(
        RuntimeError, match=r"^sequence 5:\[2,1,3\|1,2,3\]: rank certificate: .* at position 5$"
    ):
        run_pipeline(5, jobs=1, sequences=seqs)


def test_a_valuation_row_outside_0_1_stops_the_run(monkeypatch):
    """Premise (a) of the packed kernel: a row entry of 2 no longer carries
    in base 5, but a difference entry could then leave -2..2 and borrow
    under the TWOS offset of ``inequalities``, and fact (b) holds for 0/1
    rows only, so the worker refuses it and names the sequence."""
    real = valuation.valuation_rows

    def with_a_two(seq, triples):
        rows = real(seq, triples)
        return tuple((2, *row[1:]) if K == (3, 4, 5) else row for K, row in zip(triples, rows))

    monkeypatch.setattr(valuation, "valuation_rows", with_a_two)
    seq = IteratedSequence.parse("5:[2,1,3|1,2,3]")
    with pytest.raises(
        RuntimeError, match=r"^sequence 5:\[2,1,3\|1,2,3\]: valuation row \(2, .* is not a 0/1 vector"
    ):
        run_pipeline(5, jobs=1, sequences=[seq])


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_1_is_rejected_before_the_sweep(jobs, tmp_path, monkeypatch, capsys):
    from grassdegen.cli import main

    def unreachable(n):
        raise AssertionError("the run enumerated its sequences")

    monkeypatch.setattr(pipeline, "level_prefixes", unreachable)
    with pytest.raises(ValueError, match=rf"^jobs must be at least 1, got {jobs}$"):
        run_pipeline(4, jobs=jobs)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["pipeline", "-n", "4", "--jobs", str(jobs), "--out", str(out)])
    assert info.value.code == 2
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# one kernel run per class of labels, one LP per label


def kernel_reference(serialized):
    """Each sequence's fingerprint, from the kernel run on that sequence
    alone."""
    return {s: fingerprint(IteratedSequence.parse(s)) for s in serialized}


def class_total(serialized):
    """The number of classes of labels under the permutations of 1..4 that
    the sequences ``serialized`` reach."""
    return len({label_class(text_label(text)) for text in serialized})


def assert_sweep_equals_the_kernel(n, serialized, reference, jobs=1, full=False):
    """Run the sequences ``serialized`` in that order, or with ``full`` the
    full run, whose sequences they are: every sequence has the fingerprint
    of its own kernel run, and each label's LP ran on its first sequence in
    run order; returns the run's result."""
    sequences = None if full else [IteratedSequence.parse(s) for s in serialized]
    result = run_pipeline(n, jobs=jobs, sequences=sequences)
    assert [o.serialized for o in result.outcomes] == serialized
    ideals = label_ideals(result)
    first = {}
    for text in serialized:
        label = text_label(text)
        assert ideals[label] == reference[text], text
        first.setdefault(label, text)
    assert {label: witness for label, (witness, _, _) in result.label_weights.items()} == first
    return result


@pytest.mark.parametrize("n", [5, 6])
def test_the_label_sweep_equals_each_sequences_own_kernel(n):
    """The full run at --jobs 1 and 2, and a seeded shuffle of its
    sequences, whose labels' first sequences are rarely representatives,
    run one kernel per class of labels and give every sequence its own
    kernel's fingerprint."""
    serialized = [s.serialize() for s in enumerate_sequences(n)]
    reference = kernel_reference(serialized)
    classes = class_total(serialized)
    assert classes == {5: 1, 6: 13}[n]
    for jobs in (1, 2):
        result = assert_sweep_equals_the_kernel(n, serialized, reference, jobs, full=True)
        assert result.counters["ideal_selections"] == classes
    shuffled = serialized[:]
    random.Random(n).shuffle(shuffled)
    result = assert_sweep_equals_the_kernel(n, shuffled, reference)
    assert result.counters["ideal_selections"] == classes


def test_the_label_sweep_equals_each_sequences_own_kernel_on_four_n7_fibers():
    labels = random.Random(7).sample(list(all_labels(7)), 4)
    serialized = []
    for label in labels:
        pools = [
            [(a, b, c) for c in range(1, 7 - t) if c not in (a, b)] for t, (a, b) in enumerate(label)
        ]
        serialized += [
            IteratedSequence(7, levels, base).serialize()
            for levels in itertools.product(*pools)
            for base in itertools.permutations((1, 2, 3))
        ]
    assert len(serialized) == 4 * 144
    reference = kernel_reference(serialized)
    classes = class_total(serialized)
    result = assert_sweep_equals_the_kernel(7, serialized, reference)
    assert result.counters["ideal_selections"] == classes
    random.Random(77).shuffle(serialized)
    result = assert_sweep_equals_the_kernel(7, serialized, reference)
    assert result.counters["ideal_selections"] == classes


def test_manifest_counts_ideal_selections(result_n6, tmp_path):
    """One kernel run per class of labels under the permutations of 1..4:
    1 at n = 5 for every worker count and 13 at n = 6."""
    for jobs in (1, 2):
        result = run_pipeline(5, jobs=jobs)
        manifest = load_json(write_outputs(result, str(tmp_path / f"jobs{jobs}")))
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert manifest["counters"]["ideal_selections"] == 1
    assert result_n6.counters["ideal_selections"] == 13


def test_a_run_whose_first_sequence_is_no_representative_does_not_depend_on_jobs(tmp_path):
    """Without its first 3 sequences, n = 5 starts at the fourth base of a
    level prefix, so label (1,2)'s first sequence is no representative:
    the counters and the data files are the same at every worker count."""
    sequences = list(enumerate_sequences(5))[3:]
    counters = {}
    for jobs in (1, 2):
        result = run_pipeline(5, jobs=jobs, sequences=sequences)
        write_outputs(result, str(tmp_path / f"jobs{jobs}"))
        counters[jobs] = result.counters
        assert result.label_weights[((1, 2),)][0] == "5:[1,2,3|2,3,1]"
    assert counters[1] == counters[2]
    assert counters[1]["ideal_selections"] == 1
    assert output_hashes(tmp_path / "jobs1") == output_hashes(tmp_path / "jobs2")


def far_sequence(label, n):
    """The sequence of a label with the largest free third index at every
    level and base (3,2,1): no representative."""
    levels = tuple(
        (a, b, max(x for x in range(1, n - t) if x not in (a, b))) for t, (a, b) in enumerate(label)
    )
    return IteratedSequence(n, levels, (3, 2, 1))


def test_a_run_without_the_first_label_of_any_class_gives_each_label_its_own_kernel(tmp_path):
    """The run holds no class's first label in ``all_labels`` order, so each
    kernel runs on a later member of its class, on a sequence that is no
    representative, and the walk starts there.  Two sequences of each of
    the 227 other labels of Gr(3,6), in order and in a seeded shuffle, at
    --jobs 1 and 2: each label's ideal is its own kernel's, one kernel runs
    per class that occurs, and the data files do not depend on the worker
    count."""
    labels = [label for label in all_labels(6) if label != label_class(label)]
    assert len(labels) == 240 - 13
    serialized = [far_sequence(label, 6).serialize() for label in labels]
    serialized += [representative_sequence(label, 6).serialize() for label in labels]
    reference = kernel_reference(serialized)
    shuffled = serialized[:]
    random.Random(36).shuffle(shuffled)
    for order, texts in (("ordered", serialized), ("shuffled", shuffled)):
        for jobs in (1, 2):
            result = assert_sweep_equals_the_kernel(6, texts, reference, jobs)
            assert result.counters["ideal_selections"] == class_total(texts) == 13
            write_outputs(result, str(tmp_path / f"{order}{jobs}"))
        assert output_hashes(tmp_path / f"{order}1") == output_hashes(tmp_path / f"{order}2")


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda rows: ((2, *rows[0][1:]), *rows[1:]), r"valuation row \(2, .* is not a 0/1 vector"),
        (
            lambda rows: tuple((*row[:-1], 0) for row in rows),
            "rank certificate: no valuation row has its first 1 at position 5",
        ),
    ],
    ids=["row-outside-0-1", "rank-certificate"],
)
def test_the_worker_checks_the_rows_of_a_label_that_the_walk_reached(monkeypatch, fault, message):
    """The kernel of the one class at n = 5 runs on 5:[1,2,3|1,2,3], and the
    walk gives label (2,1) its ideal, so only the worker reads the rows of
    5:[2,1,3|1,2,3]: a row outside 0/1 or a failed rank certificate there
    stops the run and names that sequence."""
    target = "5:[2,1,3|1,2,3]"
    real = valuation.valuation_rows

    def broken(seq, triples):
        rows = real(seq, triples)
        return fault(rows) if seq.serialize() == target else rows

    kernels = []
    real_fingerprint = classify.fingerprint

    def recorded(seq):
        kernels.append(seq.serialize())
        return real_fingerprint(seq)

    monkeypatch.setattr(valuation, "valuation_rows", broken)
    monkeypatch.setattr(classify, "fingerprint", recorded)
    seqs = [IteratedSequence.parse(s) for s in ("5:[1,2,3|1,2,3]", target)]
    with pytest.raises(RuntimeError, match=rf"^sequence {re.escape(target)}: {message}"):
        run_pipeline(5, jobs=1, sequences=seqs)
    assert kernels == ["5:[1,2,3|1,2,3]"]


@pytest.mark.parametrize("n", [5, 6])
def test_the_sweep_parses_nothing_and_keeps_the_enumeration_order(n, tmp_path, monkeypatch):
    def unreachable(text):
        raise AssertionError(f"parsed {text}")

    monkeypatch.setattr(IteratedSequence, "parse", staticmethod(unreachable))
    result = run_pipeline(n, jobs=1)
    assert [o.serialized for o in result.outcomes] == [
        s.serialize() for s in enumerate_sequences(n)
    ]
    write_outputs(result, str(tmp_path))
    assert output_hashes(tmp_path) == recorded_hashes(f"gr3{n}_full.sha256")


def test_progress_is_logged_at_info_and_off_by_default(caplog, capsys, tmp_path):
    logger = logging.getLogger("grassdegen.pipeline")
    result = run_pipeline(5, jobs=1)
    assert caplog.records == []
    caplog.set_level(logging.INFO, logger="grassdegen.pipeline")
    logged = run_pipeline(5, jobs=1)
    messages = [r.getMessage() for r in caplog.records if r.name == logger.name]
    assert len(messages) == 6  # one per two labels, the chunksize
    assert all(r.levelno == logging.INFO for r in caplog.records)
    assert re.fullmatch(r"swept 12 of 12 labels in \d+\.\d s, ETA 0\.0 s", messages[-1])
    assert messages[0].startswith("swept 2 of 12 labels in ")
    assert logger.handlers == []
    assert capsys.readouterr() == ("", "")
    write_outputs(result, str(tmp_path / "plain"))
    write_outputs(logged, str(tmp_path / "logged"))
    assert output_hashes(tmp_path / "logged") == output_hashes(tmp_path / "plain")
    assert logged.counters == result.counters


def test_the_readme_manifest_row_names_every_counter(result_n5, result_n6):
    """The schema requires exactly the counters a run writes; this keeps
    the README's manifest row in step with them, and with the n = 5 and
    n = 6 values it quotes."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        (row,) = [line for line in fh if line.startswith("| `manifest.json` |")]
    assert result_n5.counters
    for key in result_n5.counters:
        assert f"`{key}`" in row, key
    for key in ("ideal_selections", "lp_pivots"):
        quoted = re.search(rf"`{key}`:[^`]*?(\d+) at n = 5 and (\d+) at n = 6", row)
        assert quoted, key
        assert quoted.groups() == (str(result_n5.counters[key]), str(result_n6.counters[key])), key


def test_every_pair_of_base_triples_has_its_sigma():
    """The base level's tables agree up to the sigma that sends each
    position of one base triple to the position of the same index in the
    other, with the same next states, all of them (1,2,3)."""
    bases = list(itertools.permutations((1, 2, 3)))
    for head in bases:
        charge, step = valuation._transitions(4, head)
        assert set(step.values()) == {(1, 2, 3)}
        for base in bases:
            other_charge, other_step = valuation._transitions(4, base)
            sigma = [head.index(k) for k in base]
            assert other_step == step
            assert other_charge == {s: tuple(v[i] for i in sigma) for s, v in charge.items()}


def selection_key(seq):
    """The fingerprint of a sequence, the max-term pattern of each relation
    and whether the selection is decided above the base."""
    rows = weighting_matrix(seq).rows
    fp, (slots, maxima) = initial_ideal(rows, seq.n), checked_selection(rows, seq.n)
    patterns = tuple(zip(*(map(operator.eq, slot, maxima) for slot in slots)))
    return fp, patterns, decided_above_base((slots, maxima))


def index_swaps(seq, j):
    """Every sequence that differs from ``seq`` only in entry j of one
    level's triple, at every level."""
    for t, triple in enumerate(seq.levels):
        for x in range(1, seq.n - t):
            if x not in triple:
                swapped = triple[:j] + (x,) + triple[j + 1 :]
                levels = seq.levels[:t] + (swapped,) + seq.levels[t + 1 :]
                yield IteratedSequence(seq.n, levels, seq.base_perm)


def changed_by(seq, variants):
    """The variants whose ``selection_key`` is not that of ``seq``."""
    key = selection_key(seq)
    return [v.serialize() for v in variants if selection_key(v) != key]


@pytest.mark.parametrize("n, count", [(7, 40), (8, 15)])
def test_no_third_index_or_base_swap_changes_the_selection(n, count):
    """Lemma A of the ``pipeline`` docstring, and the base step of its
    theorem, on a seeded sample: no single third-index swap, at any level,
    and no base swap changes the fingerprint, any relation's max-term
    pattern or decidedness."""
    for seq in seeded_sequences(n, 31, count):
        bases = [seq._replace(base_perm=b) for b in BASES if b != seq.base_perm]
        swaps = [*index_swaps(seq, 2), *bases]
        assert len(swaps) == sum(n - t - 4 for t in range(n - 4)) + 5
        assert changed_by(seq, swaps) == [], seq.serialize()


@pytest.mark.parametrize("n, count", [(7, 40), (8, 15)])
def test_the_swap_harness_sees_every_second_index_swap(n, count):
    """The negative control of the test above: the same harness, on single
    second-index swaps, which change the label, reports each one."""
    for seq in seeded_sequences(n, 31, count):
        swaps = list(index_swaps(seq, 1))
        assert changed_by(seq, swaps) == [v.serialize() for v in swaps]


def test_a_tie_above_the_base_is_a_tie_and_every_n6_selection_is_decided():
    """Lemma B of the ``pipeline`` docstring on every n = 6 sequence: two
    terms of one relation whose packed sums agree above the base digits
    agree in full, so every selection is decided above the base.  The base
    is the last three base-5 digits, so a term's sum // 125 is the packed
    sum of its rows without them."""
    assert pack([b"1000"]) == [125]
    table = relation_table(6)
    for seq in enumerate_sequences(6):
        rows = weighting_matrix(seq).rows
        selection = checked_selection(rows, 6)
        above, _ = select(pack([row[:-3] for row in row_digits(rows, 9)]), table)
        for sums, tops in zip(zip(*selection[0]), zip(*above)):
            assert [x // 125 for x in sums] == list(tops), seq.serialize()
            # the padding term sums to -1 in both
            assert len({x for x in tops if x >= 0}) == len({x for x in sums if x >= 0})
        assert decided_above_base(selection), seq.serialize()


@pytest.mark.parametrize("name", ["result_n5", "result_n6"])
def test_manifest_counts_the_pivots_of_the_dense_oracle(name, request, tmp_path):
    result = request.getfixturevalue(name)
    dim = 3 * (result.n - 3)
    expected = 0
    for witness, _, _ in result.label_weights.values():
        seq = IteratedSequence.parse(witness)
        expected += dense_box_lp(inequality_set(seq, weighting_matrix(seq)), dim)[2]
    manifest = load_json(write_outputs(result, str(tmp_path)))
    assert manifest["counters"]["lp_pivots"] == result.counters["lp_pivots"] == expected


def dumped_payloads(result):
    """weights.json and fingerprints.json as ``json.dump(..., indent=2,
    sort_keys=True)`` writes them from whole payloads."""
    keys = [triple_key(t) for t in all_triples(result.n)]

    def generator(binomial):
        (a, b), (c, d), sign = binomial
        return {"lead": [triple_key(a), triple_key(b)], "trail": [triple_key(c), triple_key(d)],
                "sign": sign}

    weights = {
        "n": result.n,
        "labels": {
            format_label(label): {"e": list(e), "w": dict(zip(keys, w))}
            for label, (_, e, w) in result.label_weights.items()
        },
    }
    fingerprints = {
        "n": result.n,
        "count": len(result.labels_by_fingerprint),
        "fingerprints": [
            {
                "id": fid,
                "labels": [format_label(label) for label in labels],
                "generators": [generator(g) for g in decode(fp, result.n)],
            }
            for fid, (fp, labels) in enumerate(result.labels_by_fingerprint.items())
        ],
    }
    return {"weights.json": weights, "fingerprints.json": fingerprints}


def assert_streamed_as_dumped(result, outdir):
    manifest = load_json(write_outputs(result, str(outdir)))
    for name, payload in dumped_payloads(result).items():
        with open(outdir / name) as fh:
            assert fh.read() == json.dumps(payload, indent=2, sort_keys=True) + "\n", name
    for entry in manifest["outputs"]:
        with open(outdir / entry["path"], "rb") as fh:
            data = fh.read()
        assert (entry["sha256"], entry["bytes"]) == (hashlib.sha256(data).hexdigest(), len(data))
    return manifest


@pytest.mark.parametrize("name", ["result_n5", "result_n6"])
def test_streamed_files_equal_the_dumped_payloads(name, request, tmp_path):
    assert_streamed_as_dumped(request.getfixturevalue(name), tmp_path)


def forged_result(labels_by_fingerprint, label_weights, orbit_reports):
    return PipelineResult(
        n=5,
        outcomes=[],
        labels_by_fingerprint=labels_by_fingerprint,
        label_weights=label_weights,
        matrices={label: "123,0,0,0,0,0,0\n" for label in label_weights},
        orbit_reports=orbit_reports,
        verify={"n": 5, "plucker": {"rank2": 5, "rank3": 45}, "fingerprints": []},
        timings={},
        counters={},
    )


def test_streamed_files_equal_the_dumped_payloads_of_forged_results(result_n5, tmp_path):
    """Empty lists, one-member lists, an orbit with no class, and labels
    that arrive out of key order."""
    fp = next(iter(result_n5.labels_by_fingerprint))
    weights = {
        ((2, 1),): ("5:[2,1,3|1,2,3]", (1, -1, 0, 0, 2, 0), tuple(range(10, 0, -1))),
        ((1, 2),): ("5:[1,2,3|1,2,3]", (0,) * 6, (0,) * 10),
    }
    orbit = OrbitReport(0, (), (), (), 0, "", "")
    forged = forged_result({(): (((2, 1),),), fp[:1]: (((1, 2),),)}, weights, [orbit])
    assert_streamed_as_dumped(forged, tmp_path / "forged")
    manifest = assert_streamed_as_dumped(forged_result({}, {}, []), tmp_path / "empty")
    assert [entry["path"] for entry in manifest["outputs"]] == [
        "weights.json", "fingerprints.json", "orbits.json", "orbits.csv", "verify.json"
    ]


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, 1e-07, 1e16, -(2**70)])
    | st.text() | st.sampled_from(['"', "\\", "\x00\n\t\x1f", "é ☃ 𝄞", '"\\"'])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


def pre_rendered(value, draw):
    """``value`` with some of its containers replaced by their ``_Rendered``
    text at level 0."""
    if isinstance(value, dict):
        value = {k: pre_rendered(v, draw) for k, v in value.items()}
    elif isinstance(value, (list, tuple)):
        value = [pre_rendered(v, draw) for v in value]
    else:
        return value
    return pipeline._Rendered(pipeline._render(value)) if draw(st.booleans()) else value


@given(JSON_VALUES, st.integers(0, 3), st.data())
def test_the_renderer_writes_what_json_dumps_writes(value, level, data):
    expected = json.dumps(value, indent=2, sort_keys=True)
    nested = expected.replace("\n", "\n" + "  " * level)
    assert pipeline._render(value) == expected
    assert pipeline._render(value, level) == nested
    marked = pre_rendered(value, data.draw)
    assert pipeline._render(marked, level) == nested
    assert pipeline._render(marked) == expected  # the text kept for one level is not reused


@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4), st.data())
def test_streamed_documents_equal_the_dump_of_their_materialized_lists(document, data):
    lazy = {k: iter(v) if isinstance(v, list) and data.draw(st.booleans()) else v
            for k, v in document.items()}
    text = "".join(pipeline.json_chunks(lazy))
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_a_lazy_list_is_pulled_one_item_per_chunk():
    pulled = []

    def items():
        for i in range(3):
            pulled.append(i)
            yield {"i": i}

    chunks = pipeline.json_chunks({"list": items()})
    assert next(chunks) == '{\n  "list": '
    for i in range(3):
        next(chunks)
        assert pulled == list(range(i + 1))
