import itertools
import random

import pytest

from grassdegen import cone
from grassdegen.cone import Infeasible, strict_interior_point, weight_vector
from grassdegen.initial_forms import inequality_set
from grassdegen.plucker import all_relations
from grassdegen.sequences import (
    IteratedSequence,
    enumerate_sequences,
    sequence_count,
    standard_sequence,
)
from grassdegen.valuation import DimensionError, weighting_matrix


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def count_lp_solves(monkeypatch):
    """Wrap the solver's LP so each call is recorded; returns the call list."""
    calls = []
    solve = cone._solve_box_lp

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cone, "_solve_box_lp", counted)
    return calls


def test_empty_set_gives_all_ones():
    assert strict_interior_point((), 9) == (1,) * 9


def test_contradictory_constraints_are_infeasible():
    with pytest.raises(Infeasible):
        strict_interior_point(((1, 0), (-1, 0)), 2)


def test_infeasible_after_one_lp(monkeypatch):
    # the cone is closed under scaling, so the unit-box LP alone decides it
    calls = count_lp_solves(monkeypatch)
    with pytest.raises(Infeasible):
        strict_interior_point(((1, 0), (-1, 0)), 2)
    assert len(calls) == 1


def test_cyclic_contradiction_is_infeasible():
    # the three vectors sum to zero, so no functional is positive on all
    with pytest.raises(Infeasible):
        strict_interior_point(((1, 0), (0, 1), (-1, -1)), 2)


def test_standard_sequence_cone():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    diffs = inequality_set(S, M)
    e = strict_interior_point(diffs, 9)
    assert all(dot(e, d) >= 1 for d in diffs)


def test_output_is_gcd_normalized():
    e = strict_interior_point(((2, 0), (0, 2)), 2)
    from math import gcd

    assert gcd(*e) == 1
    assert all(dot(e, d) >= 1 for d in ((2, 0), (0, 2)))


def test_solver_is_deterministic():
    S = standard_sequence(6)
    diffs = inequality_set(S, weighting_matrix(S))
    assert strict_interior_point(diffs, 9) == strict_interior_point(diffs, 9)


def test_random_feasible_cones(monkeypatch):
    """Instances made feasible by construction must solve soundly, each with
    one LP."""
    calls = count_lp_solves(monkeypatch)
    rng = random.Random(20240)
    for trial in range(40):
        dim = rng.randrange(3, 8)
        witness = [rng.randrange(-4, 5) for _ in range(dim)]
        if not any(witness):
            witness[0] = 1
        diffs = []
        while len(diffs) < 12:
            d = tuple(rng.randrange(-3, 4) for _ in range(dim))
            if dot(witness, d) >= 1:
                diffs.append(d)
        del calls[:]
        e = strict_interior_point(tuple(diffs), dim)
        assert all(dot(e, d) >= 1 for d in diffs)
        assert len(calls) == 1


def test_weight_vector_examples():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    zero = weight_vector((0,) * 9, M.rows)
    assert zero == (0,) * 20
    diffs = inequality_set(S, M)
    e = strict_interior_point(diffs, 9)
    w = weight_vector(e, M.rows)
    assert w[M.triples.index((1, 2, 3))] == 0
    with pytest.raises(DimensionError):
        weight_vector((1, 2), M.rows)


def test_scalar_weights_reproduce_matrix_initial_forms():
    """Order preservation end to end for a sample of sequences."""
    relations = all_relations(6)
    sample = list(enumerate_sequences(6))[::1080]
    assert len(sample) == 8
    for seq in sample:
        M = weighting_matrix(seq)
        diffs = inequality_set(seq, M, relations)
        e = strict_interior_point(diffs, 9)
        w = weight_vector(e, M.rows)
        lookup = dict(zip(M.triples, w))
        row = dict(M.items())
        for _, _, terms in relations:
            monomials = [(a, b) for _, a, b in terms]
            vectors = [tuple(x + y for x, y in zip(row[a], row[b])) for a, b in monomials]
            best = max(vectors)
            matrix_initial = {m for m, v in zip(monomials, vectors) if v == best}
            scores = [lookup[a] + lookup[b] for a, b in monomials]
            low = min(scores)
            scalar_initial = {m for m, s in zip(monomials, scores) if s == low}
            assert scalar_initial == matrix_initial


def strided_sequences(n, stride):
    """Every stride-th sequence of ``enumerate_sequences(n)``, decoded from its
    index in the product of the level pools, so n=7 is not enumerated."""
    pools = [list(itertools.permutations(range(1, n - t), 3)) for t in range(n - 4)]
    pools.append(list(itertools.permutations((1, 2, 3))))
    for index in range(0, sequence_count(n), stride):
        combo = []
        for pool in reversed(pools):
            index, digit = divmod(index, len(pool))
            combo.append(pool[digit])
        combo.reverse()
        yield IteratedSequence(n, tuple(combo[:-1]), combo[-1])


@pytest.mark.parametrize("n, stride", [(5, 1), (6, 397), (7, 20011)])
def test_cone_is_never_empty_on_real_inputs(n, stride):
    """Every inequality set the kernel produces has entries in [-2, 2] and a
    negative leading entry, so e_i = -3^(dim-1-i) satisfies e.d >= 1; the
    solver must then find a sound point and never report Infeasible."""
    dim = 3 * (n - 3)
    certificate = tuple(-(3 ** (dim - 1 - i)) for i in range(dim))
    sample = list(strided_sequences(n, stride))
    if n < 7:
        assert sample == list(enumerate_sequences(n))[::stride]
    for seq in sample:
        diffs = inequality_set(seq, weighting_matrix(seq))
        assert all(-2 <= x <= 2 for d in diffs for x in d)
        assert min(dot(certificate, d) for d in diffs) >= 1
        e = strict_interior_point(diffs, dim)
        assert all(dot(e, d) >= 1 for d in diffs)
