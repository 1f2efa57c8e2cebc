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
    standard_sequence,
)
from grassdegen.valuation import compute_valuation, weighting_matrix

from oracles import (
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
def pipeline6():
    start = time.perf_counter()
    result = run_pipeline(6)
    result.wall = time.perf_counter() - start
    return result


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


def test_criterion_2_ideal_count(pipeline6):
    start = time.perf_counter()
    assert len(pipeline6.outcomes) == 8640
    assert len(pipeline6.fingerprints) == 240
    by_label = {}
    for outcome in pipeline6.outcomes:
        by_label.setdefault(outcome.label, set()).add(outcome.fingerprint)
    assert len(by_label) == 240
    assert all(len(ids) == 1 for ids in by_label.values())
    fibers = [next(iter(ids)) for ids in by_label.values()]
    assert len(set(fibers)) == 240
    elapsed = pipeline6.wall + time.perf_counter() - start
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


def test_criterion_4_binomiality(pipeline6):
    start = time.perf_counter()
    assert all(outcome.all_binomial for outcome in pipeline6.outcomes)

    # exhaustively at n = 5
    relations5 = all_relations(5)
    triples5 = all_triples(5)
    position5 = {t: i for i, t in enumerate(triples5)}
    compiled5 = [
        [(position5[a], position5[b]) for _, a, b in terms] for _, _, terms in relations5
    ]
    for seq in enumerate_sequences(5):
        rows = [compute_valuation(seq, K) for K in triples5]
        for terms in compiled5:
            vectors = [tuple(x + y for x, y in zip(rows[a], rows[b])) for a, b in terms]
            best = max(vectors)
            assert sum(1 for v in vectors if v == best) == 2

    # 1000 seeded random sequences at n = 7
    rng = random.Random(37)
    relations7 = all_relations(7)
    triples7 = all_triples(7)
    position7 = {t: i for i, t in enumerate(triples7)}
    compiled7 = [
        [(position7[a], position7[b]) for _, a, b in terms] for _, _, terms in relations7
    ]
    assert len(relations7) == 525
    for _ in range(1000):
        levels = tuple(tuple(rng.sample(range(1, 7 - t), 3)) for t in range(3))
        base = tuple(rng.sample((1, 2, 3), 3))
        seq = IteratedSequence(7, levels, base)
        rows = [compute_valuation(seq, K) for K in triples7]
        for terms in compiled7:
            vectors = [tuple(x + y for x, y in zip(rows[a], rows[b])) for a, b in terms]
            best = max(vectors)
            assert sum(1 for v in vectors if v == best) == 2
    elapsed = time.perf_counter() - start
    announce(4, "binomial initial forms (n=5 all, n=6 all, n=7 sampled)", elapsed, 120.0)


def test_criterion_5_weight_homogeneity_and_lex_max():
    start = time.perf_counter()
    for n in (4, 5, 6):
        triples = all_triples(n)
        for seq in enumerate_sequences(n):
            heights = root_heights(seq)
            for K in triples:
                support = pullback_support(seq, K)
                expected = sum(K) - 6
                for member in support:
                    assert sum(m * h for m, h in zip(member, heights)) == expected
                assert compute_valuation(seq, K) == max(support)
    elapsed = time.perf_counter() - start
    announce(5, "weight homogeneity and lex-max oracle (n<=6)", elapsed, 120.0)


def test_criterion_6_projection_soundness(pipeline6):
    start = time.perf_counter()
    assert all(o.projection_sound for o in pipeline6.outcomes)
    assert all(o.scalar_matches for o in pipeline6.outcomes)
    # independent check of the written interior point of every label
    from grassdegen.initial_forms import inequality_set

    relations = all_relations(6)
    certificate = [-(3 ** (8 - i)) for i in range(9)]
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
    assert all(outcome.matrix_rank == 9 for outcome in pipeline6.outcomes)
    elapsed = time.perf_counter() - start
    announce(7, "triangular unit-diagonal submatrix and rank 9", elapsed, 60.0)


def test_criterion_8_flatness_and_toricity(pipeline6):
    start = time.perf_counter()
    rank2, rank3 = pipeline6.plucker_ranks
    # independent oracle: monomial counts minus tableau-basis dimensions
    assert rank2 == 35 == 210 - ssyt_count(2, 6)
    assert rank3 == 560 == 1540 - ssyt_count(3, 6)
    assert len(pipeline6.verification) == 240
    for record in pipeline6.verification:
        assert record["rank2"] == rank2
        assert record["rank3"] == rank3
        assert record["snf_ok"]
        assert record["pure_difference"]
    elapsed = pipeline6.timings["verify"] + time.perf_counter() - start
    announce(8, "graded ranks match and lattices saturated", elapsed, 600.0)


def test_criterion_9_group_action_laws(pipeline6):
    start = time.perf_counter()
    for fp in pipeline6.fingerprints:
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
