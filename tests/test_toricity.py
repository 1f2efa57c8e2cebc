import pytest

from grassdegen.classify import fingerprint
from grassdegen.exactlinalg import exact_rank, smith_invariant_factors
from grassdegen.initial_forms import decode
from grassdegen.plucker import all_relations
from grassdegen.sequences import representative_sequence, standard_sequence
from grassdegen.toricity import (
    Unsupported,
    binomial_form,
    graded_rank,
    lattice_saturation,
    relation_form,
)

from oracles import degree2_monomial_index, dense_rank, expand_relation, ssyt_count

# graded dimensions of the coordinate ring, frozen from the tableau oracle
DIM_RING = {(6, 2): 175, (6, 3): 980, (5, 2): 50, (5, 3): 175}
# 210 - 175 and 1540 - 980 for n = 6
PLUCKER_RANKS_N6 = (35, 560)


def test_ssyt_oracle_reproduces_frozen_dimensions():
    for (n, d), value in DIM_RING.items():
        assert ssyt_count(d, n) == value


def test_empty_generators_have_rank_zero():
    assert graded_rank([], 2, 6) == 0
    assert graded_rank([], 3, 6) == 0


def test_unsupported_degree():
    with pytest.raises(Unsupported):
        graded_rank([], 4, 6)


def test_plucker_degree2_rank_against_independent_oracles():
    forms = [relation_form(R) for R in all_relations(6)]
    rank = graded_rank(forms, 2, 6)
    assert rank == PLUCKER_RANKS_N6[0]
    # independent route 1: dense rational elimination
    index = degree2_monomial_index(6)
    import itertools

    rows = []
    for i_pair in itertools.combinations(range(1, 7), 2):
        for j_quad in itertools.combinations(range(1, 7), 4):
            poly = expand_relation(i_pair, j_quad)
            if poly:
                rows.append({index[m]: c for m, c in poly.items()})
    assert dense_rank(rows, len(index)) == rank
    # independent route 2: monomial count minus ring dimension
    assert rank == 210 - DIM_RING[(6, 2)]


def test_plucker_degree3_rank_matches_ring_dimension():
    forms = [relation_form(R) for R in all_relations(6)]
    rank = graded_rank(forms, 3, 6)
    assert rank == PLUCKER_RANKS_N6[1] == 1540 - DIM_RING[(6, 3)]


@pytest.mark.parametrize("n,expected", [(5, (5, 45))])
def test_plucker_ranks_smaller_grassmannian(n, expected):
    forms = [relation_form(R) for R in all_relations(n)]
    assert (graded_rank(forms, 2, n), graded_rank(forms, 3, n)) == expected
    assert expected[0] == 55 - DIM_RING[(5, 2)]
    assert expected[1] == 220 - DIM_RING[(5, 3)]


def test_fingerprint_ranks_match_plucker_ranks():
    for label in [((1, 2), (1, 2)), ((2, 4), (3, 1)), ((5, 1), (2, 3))]:
        fp = decode(fingerprint(representative_sequence(label, 6)), 6)
        forms = [binomial_form(g) for g in fp]
        assert graded_rank(forms, 2, 6) == PLUCKER_RANKS_N6[0]
        assert graded_rank(forms, 3, 6) == PLUCKER_RANKS_N6[1]


def test_single_primitive_binomial_passes():
    fp = ((((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1),)
    cert = lattice_saturation(fp)
    assert cert.invariant_factors == (1,)
    assert cert.saturated and cert.pure_difference


def test_doubled_difference_fails_saturation():
    # p_A^2 - p_B^2 has difference vector 2e_A - 2e_B: invariant factor 2
    fp = ((((1, 2, 3), (1, 2, 3)), ((4, 5, 6), (4, 5, 6)), -1),)
    cert = lattice_saturation(fp)
    assert cert.invariant_factors == (2,)
    assert not cert.saturated


def test_inconsistent_signs_reported_not_fatal():
    a, b = ((1, 2, 3), (1, 2, 4)), ((1, 2, 5), (1, 2, 6))
    cert = lattice_saturation(((a, b, -1), (a, b, 1)))
    assert not cert.pure_difference
    assert len(cert.non_pure_generators) == 1
    assert cert.saturated


def test_sum_binomials_normalizable_by_rescaling():
    """A consistent +-signed set is a lattice ideal after sign rescaling."""
    fp = decode(fingerprint(representative_sequence(((2, 1), (1, 2)), 6)), 6)
    assert any(g[2] == 1 for g in fp)
    cert = lattice_saturation(fp)
    assert cert.pure_difference and cert.saturated


def test_standard_fingerprint_certificate():
    cert = lattice_saturation(decode(fingerprint(standard_sequence(6)), 6))
    assert set(cert.invariant_factors) == {1}
    assert cert.pure_difference


def test_exact_rank_matches_dense_oracle_on_random_matrices():
    import random

    rng = random.Random(99)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [
            {j: rng.randrange(-3, 4) for j in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        assert exact_rank(dict(r) for r in rows) == dense_rank(rows, ncols)


def test_smith_form_examples():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([[2, 1], [0, 3]]) == [1, 6]
    factors = smith_invariant_factors([[6, 0], [0, 10], [0, 0]])
    assert factors == [2, 30]
