"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy Gr(3,6)
pipeline result is shared by several criteria through a module fixture; its
wall time is charged to the ideal-count criterion.
"""

import random
import subprocess
import sys
import time

import pytest

from grassdegen.classify import apply_transposition
from grassdegen.pipeline import run_pipeline
from grassdegen.plucker import all_relations, all_triples
from grassdegen.sequences import (
    IteratedSequence,
    enumerate_sequences,
    label_of,
    standard_sequence,
)
from grassdegen.valuation import valuation_rows, weighting_matrix

from oracles import (
    certificate_triples,
    dense_rank,
    initial_terms,
    output_hashes,
    pullback_support,
    recorded_hashes,
    root_heights,
    scalar_matches,
    ssyt_count,
)


def announce(number, name, elapsed, limit):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit


@pytest.fixture(scope="module")
def timed_pipeline6():
    """The n=6 run and its wall time, in seconds."""
    start = time.perf_counter()
    result = run_pipeline(6)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def pipeline6(timed_pipeline6):
    return timed_pipeline6[0]


def test_criterion_1_sequence_counts():
    start = time.perf_counter()
    out6 = subprocess.run(
        [sys.executable, "-m", "grassdegen.cli", "enumerate", "-n", "6"],
        capture_output=True,
        text=True,
    )
    assert out6.returncode == 0
    assert len(out6.stdout.splitlines()) == 8640
    elapsed = time.perf_counter() - start
    out5 = subprocess.run(
        [sys.executable, "-m", "grassdegen.cli", "enumerate", "-n", "5"],
        capture_output=True,
        text=True,
    )
    assert len(out5.stdout.splitlines()) == 144
    announce(1, "sequence counts 8640/144", elapsed, 1.0)


def test_criterion_2_ideal_count(timed_pipeline6):
    pipeline6, wall = timed_pipeline6
    start = time.perf_counter()
    assert len(pipeline6.outcomes) == 8640
    assert len(pipeline6.labels_by_fingerprint) == 240
    # one LP per label, for any worker count
    assert pipeline6.counters["lp_solves"] == 240
    # a sequence's ideal is its label's: the ideals each label is reported
    # under, for the label of each sequence's text
    ideals_of = {}
    for fp, labels in pipeline6.labels_by_fingerprint.items():
        for label in labels:
            ideals_of.setdefault(label, set()).add(fp)
    by_label = {}
    for outcome in pipeline6.outcomes:
        label = label_of(IteratedSequence.parse(outcome.serialized).levels)
        by_label.setdefault(label, set()).update(ideals_of[label])
    assert len(by_label) == 240
    assert all(len(ids) == 1 for ids in by_label.values())
    fibers = [next(iter(ids)) for ids in by_label.values()]
    assert len(set(fibers)) == 240
    elapsed = wall + time.perf_counter() - start
    announce(2, "240 ideals, constant and distinct on label fibers", elapsed, 60.0)


def test_gr36_outputs_match_the_recorded_hashes(pipeline6, tmp_path):
    from grassdegen.pipeline import write_outputs

    write_outputs(pipeline6, str(tmp_path))
    assert output_hashes(tmp_path) == recorded_hashes("gr36_full.sha256")


def test_criterion_3_orbit_structure(pipeline6):
    start = time.perf_counter()
    sizes = sorted(r.intersection_size for r in pipeline6.orbit_reports)
    assert sizes == [48, 48, 48, 96]
    assert len(pipeline6.orbit_reports) == 4
    covered = [m for r in pipeline6.orbit_reports for m in r.members]
    assert len(covered) == 240 == len(set(covered))
    elapsed = pipeline6.timings["orbits"] + time.perf_counter() - start
    announce(3, "orbits {48,48,48,96}", elapsed, 60.0)


def assert_two_max_terms(sequences, n):
    """Every relation of Gr(3,n) has exactly two lex-max terms under each
    sequence's valuation rows."""
    triples = all_triples(n)
    position = {t: i for i, t in enumerate(triples)}
    compiled = [
        [(position[a], position[b]) for _, a, b in terms] for _, _, terms in all_relations(n)
    ]
    for seq in sequences:
        rows = valuation_rows(seq, triples)
        for terms in compiled:
            vectors = [tuple(x + y for x, y in zip(rows[a], rows[b])) for a, b in terms]
            best = max(vectors)
            assert sum(1 for v in vectors if v == best) == 2


def test_criterion_4_binomiality(pipeline6):
    start = time.perf_counter()
    assert all(outcome.all_binomial for outcome in pipeline6.outcomes)

    # exhaustively at n = 5
    assert_two_max_terms(enumerate_sequences(5), 5)

    # at n = 6 on the 240 label witnesses, whose ideals are those of all
    # 8640 sequences (the label theorem of ``pipeline``)
    assert len(pipeline6.label_weights) == 240
    witnesses = [IteratedSequence.parse(w) for w, _, _ in pipeline6.label_weights.values()]
    assert_two_max_terms(witnesses, 6)

    # 1000 seeded random sequences at n = 7
    rng = random.Random(37)
    assert len(all_relations(7)) == 525
    sample = []
    for _ in range(1000):
        levels = tuple(tuple(rng.sample(range(1, 7 - t), 3)) for t in range(3))
        base = tuple(rng.sample((1, 2, 3), 3))
        sample.append(IteratedSequence(7, levels, base))
    assert_two_max_terms(sample, 7)
    elapsed = time.perf_counter() - start
    announce(4, "binomial initial forms (n=5 all, n=6 by label, n=7 sampled)", elapsed, 120.0)


def test_criterion_5_weight_homogeneity_and_lex_max():
    start = time.perf_counter()
    for n in (4, 5, 6):
        triples = all_triples(n)
        for seq in enumerate_sequences(n):
            heights = root_heights(seq)
            for K, row in zip(triples, valuation_rows(seq, triples)):
                support = pullback_support(seq, K)
                expected = sum(K) - 6
                for member in support:
                    assert sum(m * h for m, h in zip(member, heights)) == expected
                assert row == max(support)
    elapsed = time.perf_counter() - start
    announce(5, "weight homogeneity and lex-max oracle (n<=6)", elapsed, 120.0)


def test_criterion_6_projection_soundness(pipeline6):
    start = time.perf_counter()
    assert all(o.projection_sound for o in pipeline6.outcomes)
    assert all(o.scalar_matches for o in pipeline6.outcomes)
    # independent check of the written interior point of every label
    from grassdegen.initial_forms import inequality_set

    relations = all_relations(6)
    certificate = [-(5 ** (8 - i)) for i in range(9)]
    assert len(pipeline6.label_weights) == 240
    for witness, e, w in pipeline6.label_weights.values():
        seq = IteratedSequence.parse(witness)
        matrix = weighting_matrix(seq)
        rows = matrix.rows
        diffs = inequality_set(seq, matrix, relations)
        assert all(sum(a * b for a, b in zip(e, d)) >= 1 for d in diffs)
        # term by term on the tuple oracle: the same inequality set, and both
        # the written weights and the certificate's pick the initial terms
        initials, oracle_diffs = initial_terms(rows, relations)
        assert oracle_diffs == diffs
        assert scalar_matches(w, relations, initials)
        cert_weights = [sum(c * x for c, x in zip(certificate, row)) for row in rows]
        assert scalar_matches(cert_weights, relations, initials)
        assert all(sum(c * x for c, x in zip(certificate, d)) >= 1 for d in oracle_diffs)
    elapsed = pipeline6.timings["sweep"] + time.perf_counter() - start
    announce(6, "projections sound, scalar = matrix initial forms", elapsed, 120.0)


def test_criterion_7_full_rank_witness(pipeline6):
    start = time.perf_counter()
    listed = [
        (4, 5, 6), (1, 5, 6), (1, 2, 6),
        (3, 4, 5), (1, 4, 5), (1, 2, 5),
        (2, 3, 4), (1, 3, 4), (1, 2, 4),
    ]
    row = dict(weighting_matrix(standard_sequence(6)).items())
    sub = [row[K] for K in listed]
    for i in range(9):
        assert sub[i][i] == 1
        assert all(sub[i][j] == 0 for j in range(i))
    # The sweep checks the rank certificate of every sequence, so the
    # completed run covers them all.  On the first sequence of each label,
    # the named rows of the proof in ``valuation`` lead at their positions,
    # and dense elimination checks the rank independently.
    assert len(pipeline6.label_weights) == 240
    for witness, _, _ in pipeline6.label_weights.values():
        seq = IteratedSequence.parse(witness)
        row = dict(weighting_matrix(seq).items())
        for position, K in enumerate(certificate_triples(seq)):
            assert row[K].index(1) == position, (witness, K)
        assert dense_rank([dict(enumerate(r)) for r in row.values()], 9) == 9
    elapsed = time.perf_counter() - start
    announce(7, "triangular unit-diagonal submatrix and rank 9", elapsed, 60.0)


def test_criterion_8_flatness_and_toricity(pipeline6):
    start = time.perf_counter()
    plucker = pipeline6.verify["plucker"]
    rank2, rank3 = plucker["rank2"], plucker["rank3"]
    # independent oracle: monomial counts minus tableau-basis dimensions
    assert rank2 == 35 == 210 - ssyt_count(2, 6)
    assert rank3 == 560 == 1540 - ssyt_count(3, 6)
    assert len(pipeline6.verify["fingerprints"]) == 240
    # one entry computed per orbit, copied to the other members
    assert pipeline6.counters["verify_entries"] == 4
    for record in pipeline6.verify["fingerprints"]:
        assert record["rank2"] == rank2
        assert record["rank3"] == rank3
        assert record["snf_ok"]
        assert record["pure_difference"]
    elapsed = pipeline6.timings["verify"] + time.perf_counter() - start
    announce(8, "graded ranks match and lattices saturated", elapsed, 600.0)


def test_criterion_9_group_action_laws(pipeline6):
    start = time.perf_counter()
    for fp in pipeline6.labels_by_fingerprint:
        for i in range(1, 6):
            assert apply_transposition(i, apply_transposition(i, fp, 6), 6) == fp
        for i in range(1, 5):
            image = fp
            for _ in range(3):
                image = apply_transposition(i, apply_transposition(i + 1, image, 6), 6)
            assert image == fp
        for i in range(1, 6):
            for j in range(i + 2, 6):
                assert apply_transposition(
                    i, apply_transposition(j, fp, 6), 6
                ) == apply_transposition(j, apply_transposition(i, fp, 6), 6)
    elapsed = time.perf_counter() - start
    announce(9, "involution, braid and commutation laws", elapsed, 60.0)
