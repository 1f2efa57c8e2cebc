import random

import pytest

from grassdegen.initial_forms import (
    binomial_ids,
    inequalities,
    inequalities_from_csv,
    inequality_set,
    pack_rows,
    reduce_content,
    relation_table,
    select,
    unpack3,
)
from grassdegen.plucker import all_relations, all_triples, plucker_relation
from grassdegen.sequences import IteratedSequence, enumerate_sequences, standard_sequence
from grassdegen.valuation import compute_valuation, weighting_matrix

from oracles import (
    binomial_generators,
    height_order_key,
    initial_terms,
    scalar_matches,
)
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


def packed_selection(rows, table):
    return select(pack_rows(rows, len(rows[0])), table)


def test_worked_initial_form():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    R = plucker_relation((1, 2), (3, 4, 5, 6))
    (initial,), _ = initial_terms(M.rows, [R])
    assert set(initial) == {
        (-1, ((1, 2, 3), (4, 5, 6))),
        (1, ((1, 2, 4), (3, 5, 6))),
    }
    table = relation_table(6, [R])
    (binomial,) = binomial_ids(packed_selection(M.rows, table), table)
    assert table.binomials[binomial] == (((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1)
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
        diffs = inequality_set(S, M, [R])
        assert {height_weight(S, d) for d in diffs} == {0}


def test_min_order_equals_lex_max_on_every_relation():
    """The two routes to the initial terms coincide: full order comparison
    versus the lexicographic shortcut of the tuple kernel."""
    S = IteratedSequence(6, ((3, 1, 4), (2, 3, 1)), (3, 2, 1))
    M = weighting_matrix(S)
    relations = all_relations(6)
    initials, _ = initial_terms(M.rows, relations)
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
    assert table.count == len(all_relations(n))
    for seq in enumerate_sequences(n):
        assert None not in binomial_ids(packed_selection(weighting_matrix(seq).rows, table), table)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_relation_table_of_explicit_relations_equals_the_full_table(n):
    relations = all_relations(n)
    full = relation_table(n)
    assert relation_table(n, relations) == full

    def relation(table, r):
        """The factor rows of relation r's four slots and its binomials by pattern."""
        monomials = [table.terms[k] for k in range(r, 4 * table.count, table.count)]
        return (
            [(table.first[m], table.second[m]) for m in monomials if m < len(table.first)],
            len(monomials),
            {p: table.binomials[i] for p, i in table.patterns[r].items()},
        )

    # a sublist compiles to the matching relations, in the order given
    mid = len(relations) // 2
    sub = relation_table(n, [relations[-1], relations[0], relations[mid]])
    assert [relation(sub, r) for r in range(3)] == [
        relation(full, r) for r in (len(relations) - 1, 0, mid)
    ]


def test_binomiality_sampled_n8():
    table = relation_table(8)
    assert table.count == 1540
    rng = random.Random(5)
    for _ in range(20):
        levels = tuple(tuple(rng.sample(range(1, 8 - t), 3)) for t in range(4))
        seq = IteratedSequence(8, levels, tuple(rng.sample((1, 2, 3), 3)))
        assert None not in binomial_ids(packed_selection(weighting_matrix(seq).rows, table), table)


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


def pack(v):
    return sum(x * 3 ** (len(v) - 1 - i) for i, x in enumerate(v))


def test_pack3_order_is_lex_order_and_unpack3_inverts_it():
    rng = random.Random(11)
    vectors = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(150)]
    for v in vectors:
        assert unpack3(pack(v), 6) == v
    for a in vectors:
        for b in vectors:
            assert (a < b) == (pack(a) < pack(b))
    rows = [v for v in vectors if max(v) <= 1]
    assert rows
    assert pack_rows(rows, 6) == [pack(v) for v in rows]


@pytest.mark.parametrize("row", [(0, 2, 0), (0, -1, 1), (0, 1), (1, 0, 0, 1), (0, 1.0, 0), (0, 256, 0)])
def test_pack_rows_rejects_a_row_outside_0_1(row):
    with pytest.raises(ValueError, match=r"is not a 0/1 vector of length 3"):
        pack_rows([(1, 0, 0), row], 3)


def equivalence_sample(n):
    """Every sequence of n <= 6; 200 seeded sequences at n = 7."""
    if n < 7:
        return list(enumerate_sequences(n))
    rng = random.Random(2007)
    return [
        IteratedSequence(
            7,
            tuple(tuple(rng.sample(range(1, 7 - t), 3)) for t in range(3)),
            tuple(rng.sample((1, 2, 3), 3)),
        )
        for _ in range(200)
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_packed_kernel_equals_the_tuple_oracle(n):
    """The packed kernel's fingerprint and exact inequality set equal the
    tuple oracle's.  On the oracle's own terms, the certificate
    c_i = -3^(dim-1-i) picks the same initial monomials as the matrix order,
    and c.d >= 1 on every difference: the term-level checks that the
    sweep's row premises replace."""
    relations = all_relations(n)
    table = relation_table(n)
    triples = all_triples(n)
    dim = 3 * (n - 3)
    certificate = [-(3 ** (dim - 1 - i)) for i in range(dim)]
    for seq in equivalence_sample(n):
        rows = [compute_valuation(seq, K) for K in triples]
        initials, diffs = initial_terms(rows, relations)
        selection = packed_selection(rows, table)
        ids = binomial_ids(selection, table)
        assert None not in ids
        assert tuple(table.binomials[i] for i in sorted(ids)) == binomial_generators(initials)
        assert inequalities(selection, dim) == diffs
        weights = [sum(c * x for c, x in zip(certificate, row)) for row in rows]
        assert scalar_matches(weights, relations, initials)
        assert all(sum(c * x for c, x in zip(certificate, d)) >= 1 for d in diffs)
