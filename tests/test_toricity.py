import collections
import itertools
import math
import random

import pytest

from grassdegen.classify import fingerprint
from grassdegen.exactlinalg import exact_rank, rank_mod2, smith_invariant_factors
from grassdegen.initial_forms import decode
from grassdegen.plucker import all_triples
from grassdegen.sequences import representative_sequence, standard_sequence
from grassdegen.toricity import graded_rank, lattice_saturation, plucker_rank

from oracles import (
    degree2_monomial_index,
    dense_rank,
    expand_relation,
    plucker_macaulay_rank,
    smith_by_minors,
    sparse_rank,
    ssyt_count,
)

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
    with pytest.raises(ValueError, match="^degree must be 2 or 3, got 4$"):
        graded_rank([], 4, 6)


def test_plucker_degree2_rank_against_independent_oracles():
    rank = plucker_rank(2, 6)
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
    rank = plucker_rank(3, 6)
    assert rank == PLUCKER_RANKS_N6[1] == 1540 - DIM_RING[(6, 3)]


@pytest.mark.parametrize("n,expected", [(5, (5, 45))])
def test_plucker_ranks_smaller_grassmannian(n, expected):
    assert (plucker_rank(2, n), plucker_rank(3, n)) == expected
    assert expected[0] == 55 - DIM_RING[(5, 2)]
    assert expected[1] == 220 - DIM_RING[(5, 3)]


# degree 2 at every n the CLI accepts; degree 3 stops at n = 7, since n = 8
# takes the oracle about 11 s
@pytest.mark.parametrize(
    "n,degree", [(n, d) for n in (4, 5, 6, 7) for d in (2, 3)] + [(8, 2)]
)
def test_plucker_rank_equals_the_full_macaulay_oracle(n, degree):
    assert plucker_rank(degree, n) == plucker_macaulay_rank(degree, n)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_plucker_rank_equals_monomials_minus_tableaux(n, degree):
    """The hook-content count against the enumerated tableaux."""
    monomials = math.comb(math.comb(n, 3) + degree - 1, degree)
    assert plucker_rank(degree, n) == monomials - ssyt_count(degree, n)


def test_plucker_rank_rejects_other_degrees():
    with pytest.raises(ValueError, match="^degree must be 2 or 3, got 4$"):
        plucker_rank(4, 6)


def macaulay_rows(binomials, degree, n):
    """The degree-d Macaulay rows of binomials lead + sign * trail, built
    out: each column is keyed by the sorted tuple of its variables, and the
    coefficients that land in one column are summed."""
    cofactors = [()] if degree == 2 else [(v,) for v in all_triples(n)]
    rows = []
    for lead, trail, sign in binomials:
        for cofactor in cofactors:
            row = collections.Counter()
            row[tuple(sorted((*lead, *cofactor)))] += 1
            row[tuple(sorted((*trail, *cofactor)))] += sign
            rows.append(dict(row))
    return rows


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_graded_rank_equals_elimination_on_random_forms(n, degree):
    """The power-sum column keys against the rank of the rows built out, on
    seeded binomials with both signs, among them squares p_t^2, whose
    degree-3 rows hold the cube p_t^3, a base-4 digit of 3 that no Pluecker
    relation reaches, and binomials whose lead and trail are one monomial
    written in two orders: p_a p_b - p_b p_a is 0 and p_a p_b + p_b p_a is
    2 p_a p_b."""
    rng = random.Random(100 * n + degree)
    triples = all_triples(n)
    seen = set()
    for _ in range(25):
        variables = rng.sample(triples, min(len(triples), rng.randrange(2, 7)))
        binomials = []
        for _ in range(rng.randrange(1, 8)):
            a, b, c, d = rng.choices(variables, k=4)
            kind = rng.choice(("square", "swapped", "other"))
            lead = (a, a) if kind == "square" else (a, b)
            trail = (b, a) if kind == "swapped" else (c, d)
            sign = rng.choice((1, -1))
            binomials.append((lead, trail, sign))
            seen.add((kind, sign))
        rank = graded_rank(binomials, degree, n)
        assert rank == sparse_rank(macaulay_rows(binomials, degree, n)), binomials
    assert {("square", s) for s in (1, -1)} | {("swapped", s) for s in (1, -1)} <= seen


def test_fingerprint_ranks_match_plucker_ranks():
    for label in [((1, 2), (1, 2)), ((2, 4), (3, 1)), ((5, 1), (2, 3))]:
        fp = decode(fingerprint(representative_sequence(label, 6)), 6)
        assert graded_rank(fp, 2, 6) == PLUCKER_RANKS_N6[0]
        assert graded_rank(fp, 3, 6) == PLUCKER_RANKS_N6[1]


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
    assert cert.saturated


def rescalable_by_brute_force(fp, variables) -> bool:
    """Whether some p_v -> (-1)^{x_v} p_v, x in {0,1}^V, turns every
    generator lead + sign * trail into lead - trail."""
    for x in itertools.product((0, 1), repeat=len(variables)):
        flip = dict(zip(variables, x))
        if all(sign * (-1) ** sum(flip[v] for v in (*lead, *trail)) == -1 for lead, trail, sign in fp):
            return True
    return False


def test_pure_difference_equals_the_brute_force_over_every_rescaling():
    """The rank comparison mod 2 against all 2^V sign rescalings, on random
    binomial sets in at most 6 variables."""
    rng = random.Random(2024)
    triples = list(itertools.combinations(range(1, 7), 3))
    seen = set()
    for _ in range(400):
        variables = rng.sample(triples, rng.randrange(1, 7))
        monomials = sorted({tuple(sorted(rng.choices(variables, k=2))) for _ in range(8)})
        if len(monomials) < 2:
            continue
        fp = tuple(
            (*rng.sample(monomials, 2), rng.choice((1, -1))) for _ in range(rng.randrange(1, 6))
        )
        expected = rescalable_by_brute_force(fp, sorted({v for g in fp for v in (*g[0], *g[1])}))
        assert lattice_saturation(fp).pure_difference == expected, fp
        seen.add(expected)
    assert seen == {True, False}


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
    rng = random.Random(99)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [
            {j: rng.randrange(-3, 4) for j in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        assert exact_rank(dict(r) for r in rows) == dense_rank(rows, ncols)


def test_rank_mod2_counts_the_span_and_bounds_the_rational_rank():
    """2^rank is the number of distinct XORs of subsets of the rows; an odd
    minor is a nonzero minor, so the rank mod 2 is at most the rank over Q."""
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 9)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        bits = [int("".join(map(str, row)), 2) for row in rows]
        span = set()
        for chosen in itertools.product((0, 1), repeat=nrows):
            value = 0
            for take, row in zip(chosen, bits):
                value ^= row if take else 0
            span.add(value)
        rank = rank_mod2(bits)
        assert 2**rank == len(span)
        assert rank <= exact_rank({j: x for j, x in enumerate(row) if x} for row in rows)
    assert rank_mod2([]) == rank_mod2([0, 0]) == 0
    # (1,1,0), (0,1,1), (1,0,1) have determinant 2: rank 3 over Q, 2 mod 2
    assert rank_mod2([0b110, 0b011, 0b101]) == 2
    assert exact_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]) == 3


def test_smith_form_examples():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([[2, 1], [0, 3]]) == [1, 6]
    factors = smith_invariant_factors([[6, 0], [0, 10], [0, 0]])
    assert factors == [2, 30]


def test_smith_form_equals_the_determinantal_divisors_on_random_matrices():
    """Seeded matrices of up to 4 x 5, some with no unit entry, so that the
    form meets both its unit pivots and its non-unit pivots."""
    rng = random.Random(36)
    for _ in range(200):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        scale = rng.choice((1, 1, 2, 3))
        matrix = [
            [scale * rng.randrange(-4, 5) if rng.random() < 0.7 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert smith_invariant_factors(matrix) == smith_by_minors(matrix)
