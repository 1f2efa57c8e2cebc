import random

import pytest

from grassdegen.initial_forms import (
    inequalities_from_csv,
    inequality_set,
    initial_terms,
    reduce_content,
    relation_table,
)
from grassdegen.plucker import all_relations, plucker_relation
from grassdegen.sequences import IteratedSequence, enumerate_sequences, standard_sequence
from grassdegen.valuation import weighting_matrix

from oracles import height_order_key
from test_cli import inequalities_to_csv


def height_weight(seq, vector):
    return height_order_key(seq, vector)[0]


def test_order_compare_examples():
    S = standard_sequence(6)
    a = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert height_order_key(S, a) == (9, (-1, 0, 0, 0, -1, 0, 0, 0, -1))
    # heights 5 versus 1: the second vector has the smaller weighted total
    assert height_order_key(S, (1, 0, 0, 0, 0, 0, 0, 0, 0)) > height_order_key(
        S, (0, 0, 0, 0, 0, 0, 0, 0, 1)
    )
    # equal totals, first is lex-larger, hence earlier in the order
    b = (1, 0, 0, 0, 0, 1, 0, 1, 0)
    assert height_weight(S, a) == height_weight(S, b) == 9
    assert height_order_key(S, a) < height_order_key(S, b)
    with pytest.raises(ValueError):
        height_order_key(S, (1, 0))


def test_order_compare_is_a_total_order():
    S = standard_sequence(6)
    rng = random.Random(7)
    vectors = [tuple(rng.randrange(3) for _ in range(9)) for _ in range(25)]
    for a in vectors:
        for b in vectors:
            # the key is injective, so the order it induces is total
            assert (height_order_key(S, a) == height_order_key(S, b)) == (a == b)
    ordered = sorted(vectors, key=lambda v: height_order_key(S, v))
    for x, y in zip(ordered, ordered[1:]):
        assert height_weight(S, x) <= height_weight(S, y)
        assert height_weight(S, x) < height_weight(S, y) or x >= y


def term_vectors(M, R):
    row = dict(M.items())
    _, _, terms = R
    return [tuple(x + y for x, y in zip(row[a], row[b])) for _, a, b in terms]


def test_worked_initial_form():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    R = plucker_relation((1, 2), (3, 4, 5, 6))
    (initial,), _ = initial_terms(M.rows, relation_table(6, [R]))
    assert set(initial) == {
        (-1, ((1, 2, 3), (4, 5, 6))),
        (1, ((1, 2, 4), (3, 5, 6))),
    }
    vector_of = {(sign, (a, b)): v for (sign, a, b), v in zip(R[2], term_vectors(M, R))}
    assert all(vector_of[term] == (1, 0, 0, 0, 1, 0, 0, 0, 1) for term in initial)


def test_initial_form_weight_is_constant_within_a_relation():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    for R in all_relations(6):
        weights = {height_weight(S, v) for v in term_vectors(M, R)}
        I, J, _ = R
        assert weights == {sum(I) + sum(J) - 12}
        # the kernel's differences then all have weight zero
        _, diffs = initial_terms(M.rows, relation_table(6, [R]))
        assert {height_weight(S, d) for d in diffs} == {0}


def test_min_order_equals_lex_max_on_every_relation():
    """The two routes to the initial terms coincide: full order comparison
    versus the kernel's lexicographic shortcut."""
    S = IteratedSequence(6, ((3, 1, 4), (2, 3, 1)), (3, 2, 1))
    M = weighting_matrix(S)
    relations = all_relations(6)
    initials, _ = initial_terms(M.rows, relation_table(6))
    for R, initial in zip(relations, initials):
        vectors = term_vectors(M, R)
        low = min(height_order_key(S, v) for v in vectors)
        minimal = [v for v in vectors if height_order_key(S, v) == low]
        assert set(minimal) == {max(vectors)}
        chosen = {(sign, (a, b)) for (sign, a, b), v in zip(R[2], vectors) if v in minimal}
        assert set(initial) == chosen


@pytest.mark.parametrize("n", [5])
def test_binomiality_exhaustive_small(n):
    table = relation_table(n)
    assert len(table) == len(all_relations(n))
    for seq in enumerate_sequences(n):
        initials, _ = initial_terms(weighting_matrix(seq).rows, table)
        assert all(len(terms) == 2 for terms in initials)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_relation_table_of_explicit_relations_equals_the_full_table(n):
    relations = all_relations(n)
    full = relation_table(n)
    assert relation_table(n, relations) == full
    # a sublist compiles to the matching rows, in the order given
    mid = len(relations) // 2
    assert relation_table(n, [relations[-1], relations[0], relations[mid]]) == (
        full[-1], full[0], full[mid]
    )


def test_binomiality_sampled_n8():
    table = relation_table(8)
    assert len(table) == 1540
    rng = random.Random(5)
    for _ in range(20):
        levels = tuple(tuple(rng.sample(range(1, 8 - t), 3)) for t in range(4))
        seq = IteratedSequence(8, levels, tuple(rng.sample((1, 2, 3), 3)))
        initials, _ = initial_terms(weighting_matrix(seq).rows, table)
        assert all(len(terms) == 2 for terms in initials)


def test_inequality_set_worked_example():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    R = plucker_relation((1, 2), (3, 4, 5, 6))
    diffs = inequality_set(S, M, [R])
    assert set(diffs) == {
        (0, 0, 0, 0, -1, 1, 0, 1, -1),
        (-1, 0, 1, 1, -1, 0, 0, 1, -1),
    }


def test_inequality_vectors_have_negative_leading_entry():
    S = standard_sequence(6)
    diffs = inequality_set(S, weighting_matrix(S))
    assert diffs
    assert len(diffs) <= 2 * 135
    for d in diffs:
        lead = next(x for x in d if x)
        assert lead < 0


def test_reduce_content():
    assert reduce_content((2, -4, 6)) == (1, -2, 3)
    assert reduce_content((0, 3, 0)) == (0, 1, 0)
    assert reduce_content((1, -1, 0)) == (1, -1, 0)


def test_inequality_csv_roundtrip():
    S = standard_sequence(6)
    diffs = inequality_set(S, weighting_matrix(S))
    text = inequalities_to_csv(diffs)
    assert inequalities_from_csv(text) == diffs
