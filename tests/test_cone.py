import itertools
import math
import random
from fractions import Fraction

import pytest

from grassdegen import cone
from grassdegen.cone import Infeasible, strict_interior_point, weight_vector
from grassdegen.initial_forms import inequality_set
from grassdegen.plucker import all_relations
from grassdegen.sequences import (
    IteratedSequence,
    all_labels,
    enumerate_sequences,
    label_of,
    representative_sequence,
    sequence_count,
    standard_sequence,
)
from grassdegen.valuation import weighting_matrix
from oracles import DENSE_STALL_LIMIT, dense_box_lp, vertex_max_slack


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(e):
    """The primitive integer vector on the ray of a nonzero rational vector:
    its reduced denominators cleared, then divided by the gcd."""
    scale = math.lcm(*(x.denominator for x in e))
    cleared = [int(x * scale) for x in e]
    g = math.gcd(*cleared)
    return tuple(x // g for x in cleared)


def dense_checked_lp(diffs, dim):
    """The dense solver's (t*, e*, pivots, largest stall), after checking
    that the condensed solver's optimum, read over its one denominator
    D > 0, and its pivot count are the dense ones."""
    t_value, e, pivots, stall = dense_box_lp(diffs, dim)
    common, t_num, e_num, lp_pivots = cone._solve_box_lp(diffs, dim)
    assert common > 0
    condensed = (Fraction(t_num, common), [Fraction(x, common) for x in e_num], lp_pivots)
    assert condensed == (t_value, e, pivots), diffs
    return t_value, e, pivots, stall


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
    assert strict_interior_point((), 9) == ((1,) * 9, 0)


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
    e, _ = strict_interior_point(diffs, 9)
    assert all(dot(e, d) >= 1 for d in diffs)


def test_output_is_gcd_normalized():
    e, _ = strict_interior_point(((2, 0), (0, 2)), 2)
    assert math.gcd(*e) == 1
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
        e, _ = strict_interior_point(tuple(diffs), dim)
        assert all(dot(e, d) >= 1 for d in diffs)
        assert len(calls) == 1


def test_weight_vector_examples():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    zero = weight_vector((0,) * 9, M.rows)
    assert zero == (0,) * 20
    diffs = inequality_set(S, M)
    e, _ = strict_interior_point(diffs, 9)
    w = weight_vector(e, M.rows)
    assert w[M.triples.index((1, 2, 3))] == 0
    with pytest.raises(ValueError, match="^projection length does not match matrix rows$"):
        weight_vector((1, 2), M.rows)


def test_scalar_weights_reproduce_matrix_initial_forms():
    """Order preservation end to end for a sample of sequences."""
    relations = all_relations(6)
    sample = list(enumerate_sequences(6))[::1080]
    assert len(sample) == 8
    for seq in sample:
        M = weighting_matrix(seq)
        diffs = inequality_set(seq, M, relations)
        e, _ = strict_interior_point(diffs, 9)
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
    negative leading entry, so e_i = -5^(dim-1-i) satisfies e.d >= 1; the
    solver must then find a sound point and never report Infeasible."""
    dim = 3 * (n - 3)
    certificate = tuple(-(5 ** (dim - 1 - i)) for i in range(dim))
    sample = list(strided_sequences(n, stride))
    if n < 7:
        assert sample == list(enumerate_sequences(n))[::stride]
    for seq in sample:
        diffs = inequality_set(seq, weighting_matrix(seq))
        assert all(-2 <= x <= 2 for d in diffs for x in d)
        assert min(dot(certificate, d) for d in diffs) >= 1
        e, _ = strict_interior_point(diffs, dim)
        assert all(dot(e, d) >= 1 for d in diffs)


def first_sequence_lp_inputs(n):
    """The LP input of each label's first sequence in run order, the one
    ``run_pipeline`` solves."""
    first = {}
    for seq in enumerate_sequences(n):
        first.setdefault(label_of(seq.levels), seq)
    return [inequality_set(seq, weighting_matrix(seq)) for seq in first.values()]


@pytest.mark.parametrize("n", [5, 6])
def test_condensed_simplex_takes_the_dense_pivots_on_every_label(n):
    """Dropping the basic columns, which are D times unit columns, changes
    no numerator of the fraction-free update and so no pricing, ratio or
    stall decision (``cone`` docstring): the condensed solver ends at the
    dense solver's optimum after as many pivots, and the point is the
    primitive integer vector of the dense e*."""
    dim = 3 * (n - 3)
    for diffs in first_sequence_lp_inputs(n):
        _, e, pivots, _ = dense_checked_lp(diffs, dim)
        assert strict_interior_point(diffs, dim) == (primitive(e), pivots)


def test_condensed_simplex_takes_the_dense_pivots_on_sampled_n7_labels():
    """As above on 200 seeded n=7 labels.  No n=6 LP stalls long enough to
    switch to the smallest-index rule, so the sample must hold one that
    does."""
    assert cone._STALL_LIMIT == DENSE_STALL_LIMIT
    labels = random.Random(7200).sample(list(all_labels(7)), 200)
    stalls = []
    for label in labels:
        seq = representative_sequence(label, 7)
        diffs = inequality_set(seq, weighting_matrix(seq))
        _, e, pivots, stall = dense_checked_lp(diffs, 12)
        assert strict_interior_point(diffs, 12) == (primitive(e), pivots)
        stalls.append(stall)
    assert max(stalls) >= cone._STALL_LIMIT


def test_the_point_carries_its_pivot_count():
    diffs = inequality_set(standard_sequence(6), weighting_matrix(standard_sequence(6)))
    _, pivots = strict_interior_point(diffs, 9)
    assert pivots == dense_box_lp(diffs, 9)[2] > 0
    assert strict_interior_point((), 3)[1] == 0


def test_condensed_simplex_takes_the_dense_pivots_on_random_systems():
    """``solve-cone`` takes any inequality CSV, not only the kernel's: on
    seeded systems of dims 1..6 with up to 12 vectors, entries in -3..3,
    duplicates and zero vectors among them, the solver equals the dense one,
    and ``strict_interior_point`` raises Infeasible exactly when t* <= 0 and
    else returns the primitive integer vector of the dense e*."""
    rng = random.Random(2029)
    seen = {"duplicate": 0, "zero": 0, "feasible": 0, "infeasible": 0}
    for _ in range(1500):
        dim = rng.randrange(1, 7)
        diffs = []
        for _ in range(rng.randrange(1, 13)):
            roll = rng.random()
            if diffs and roll < 0.1:
                diffs.append(rng.choice(diffs))
                seen["duplicate"] += 1
            elif roll < 0.15:
                diffs.append((0,) * dim)
                seen["zero"] += 1
            else:
                diffs.append(tuple(rng.randrange(-3, 4) for _ in range(dim)))
        diffs = tuple(diffs)
        t_value, e, pivots, _ = dense_checked_lp(diffs, dim)
        if t_value > 0:
            point, point_pivots = strict_interior_point(diffs, dim)
            assert all(dot(point, d) >= 1 for d in diffs)
            assert (point, point_pivots) == (primitive(e), pivots), diffs
            seen["feasible"] += 1
        else:
            with pytest.raises(Infeasible, match=r"^open cone is empty \(slack optimum 0\)$"):
                strict_interior_point(diffs, dim)
            seen["infeasible"] += 1
    assert min(seen.values()) >= 100, seen


def test_lp_optimum_equals_vertex_enumeration_on_random_systems():
    """The dense solver divides exactly as the condensed one does, so a
    division that was not exact could pass both; vertex enumeration over
    Fraction shares no update with them.  On seeded systems of dims 1..3
    with 1..6 vectors, entries in -3..3, t* = T / D is the largest slack of
    any vertex, and e* = E / D lies in the box with min e*.d = t*."""
    rng = random.Random(4141)
    seen = {"feasible": 0, "infeasible": 0}
    for _ in range(150):
        dim = rng.randrange(1, 4)
        diffs = tuple(
            tuple(rng.randrange(-3, 4) for _ in range(dim)) for _ in range(rng.randrange(1, 7))
        )
        common, t_num, e_num, _ = cone._solve_box_lp(diffs, dim)
        t_value, e = Fraction(t_num, common), [Fraction(x, common) for x in e_num]
        assert t_value == vertex_max_slack(diffs, dim), diffs
        assert all(-1 <= x <= 1 for x in e)
        assert min(dot(e, d) for d in diffs) == t_value, diffs
        seen["feasible" if t_value > 0 else "infeasible"] += 1
    assert min(seen.values()) >= 40, seen
