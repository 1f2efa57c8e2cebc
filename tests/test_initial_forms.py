import itertools
import math
import operator
import random

import pytest

from grassdegen.cone import weight_vector
from grassdegen.initial_forms import (
    binomial_ids,
    check_leads,
    inequalities,
    inequalities_from_csv,
    inequality_set,
    pack,
    relation_table,
    row_digits,
    select,
)
from grassdegen.plucker import all_relations, all_triples, plucker_relation
from grassdegen.sequences import IteratedSequence, enumerate_sequences, standard_sequence
from grassdegen.valuation import valuation_rows, weighting_matrix

from oracles import (
    binomial_generators,
    height_order_key,
    initial_terms,
    scalar_matches,
)
from test_cli import inequalities_to_csv
from test_valuation import seeded_sequences


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
    return select(pack(row_digits(rows, len(rows[0]))), table)


def test_worked_initial_form():
    S = standard_sequence(6)
    M = weighting_matrix(S)
    R = plucker_relation((1, 2), (3, 4, 5, 6))
    (initial,), _ = initial_terms(M.rows, [R])
    assert set(initial) == {
        (-1, ((1, 2, 3), (4, 5, 6))),
        (1, ((1, 2, 4), (3, 5, 6))),
    }
    # R's row of the full table
    table = relation_table(6)
    r = all_relations(6).index(R)
    slots, maxima = packed_selection(M.rows, table)
    binomial = table.patterns[r][tuple(slot[r] == maxima[r] for slot in slots)]
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
def test_inequality_set_of_listed_relations_equals_the_oracle(n):
    """A list of relations, shuffled and with a repeat, selects from the one
    table the inequality set the tuple oracle finds on that list."""
    relations = all_relations(n)
    rng = random.Random(n)
    for seq in seeded_sequences(n, 40 + n, 10):
        M = weighting_matrix(seq)
        sub = rng.sample(relations, 7)
        sub.append(sub[0])
        rng.shuffle(sub)
        assert inequality_set(seq, M, sub) == initial_terms(M.rows, sub)[1]
    assert inequality_set(seq, M, relations) == inequality_set(seq, M)


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


def pair_selection(pairs):
    """A selection of one relation per (best, other) pair of packed sums:
    two initial terms of sum best, a third term of sum other and the
    padding term."""
    maxima = [best for best, _ in pairs]
    return (maxima, maxima, [other for _, other in pairs], [-1] * len(pairs)), maxima


def reduced(d):
    g = math.gcd(*d)
    return tuple(x // g for x in d)


def test_inequalities_reduce_each_difference_by_its_gcd():
    """Every pair of term vectors in {0,1,2}^3, in one selection: the
    differences, each divided by the gcd of its entries and deduplicated
    after the division.  No sampled label has a difference whose every
    entry is even, such as (0,0,0) - (2,0,0), so this selection is what
    reaches the halving."""
    sums = list(itertools.product(range(3), repeat=3))
    pairs = [(best, other) for best in sums for other in sums if other < best]
    raw = [tuple(map(operator.sub, other, best)) for best, other in pairs]
    assert {math.gcd(*d) for d in raw} == {1, 2}
    diffs = set(map(reduced, raw))
    selection = pair_selection([(pack5(best), pack5(other)) for best, other in pairs])
    assert inequalities(selection, 3) == tuple(sorted(diffs))


def test_inequality_csv_roundtrip():
    S = standard_sequence(6)
    diffs = inequality_set(S, weighting_matrix(S))
    text = inequalities_to_csv(diffs)
    assert inequalities_from_csv(text) == diffs


def pack5(v):
    return sum(x * 5 ** (len(v) - 1 - i) for i, x in enumerate(v))


def test_pack5_order_is_lex_order_and_inequalities_unpack_it():
    rng = random.Random(11)
    vectors = [tuple(rng.randrange(5) for _ in range(6)) for _ in range(150)]
    for a in vectors:
        for b in vectors:
            assert (a < b) == (pack5(a) < pack5(b))
    sums = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(60)]
    for best in sums:
        for other in sums:
            if other < best:
                d = tuple(map(operator.sub, other, best))
                assert inequalities(pair_selection([(pack5(best), pack5(other))]), 6) == (reduced(d),)
    rows = list(itertools.product((0, 1), repeat=6))
    assert pack(row_digits(rows, 6)) == [pack5(v) for v in rows]


@pytest.mark.parametrize("row", [(0, 2, 0), (0, -1, 1), (0, 1), (1, 0, 0, 1), (0, 1.0, 0), (0, 256, 0)])
def test_pack_rows_rejects_a_row_outside_0_1(row):
    with pytest.raises(ValueError, match=r"is not a 0/1 vector of length 3"):
        pack(row_digits([(1, 0, 0), row], 3))


@pytest.mark.parametrize("dim", range(3, 13))
def test_pack_rows_is_minus_the_certificate_weight(dim):
    """Fact (b) of ``initial_forms``: c . r = -pack5(r) for every 0/1 row r,
    with c_i = -5^(dim-1-i)."""
    certificate = [-(5 ** (dim - 1 - i)) for i in range(dim)]
    rows = list(itertools.product((0, 1), repeat=dim))
    assert pack(row_digits(rows, dim)) == [-x for x in weight_vector(certificate, rows)]


def test_the_rank_certificate_accepts_distinct_leading_positions():
    check_leads([b"100", b"011", b"001"], 3)
    check_leads([b"000", b"001", b"100", b"010", b"011"], 3)


@pytest.mark.parametrize(
    "digits, position",
    [
        ([b"110", b"011", b"110"], 2),
        # rank 3 over Q, but rows 0 and 2 both lead at position 0
        ([b"110", b"011", b"101"], 2),
        ([b"000", b"001", b"010"], 0),
    ],
)
def test_the_rank_certificate_names_the_first_position_no_row_leads(digits, position):
    message = rf"^rank certificate: no valuation row has its first 1 at position {position}$"
    with pytest.raises(ValueError, match=message):
        check_leads(digits, 3)


def equivalence_sample(n):
    """Every sequence of n <= 6; 200 seeded sequences at n = 7 and 60 at
    n = 8."""
    if n < 7:
        return list(enumerate_sequences(n))
    rng = random.Random(2000 + n)
    return [
        IteratedSequence(
            n,
            tuple(tuple(rng.sample(range(1, n - t), 3)) for t in range(n - 4)),
            tuple(rng.sample((1, 2, 3), 3)),
        )
        for _ in range({7: 200, 8: 60}[n])
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_packed_kernel_equals_the_tuple_oracle(n):
    """The packed kernel's fingerprint and exact inequality set equal the
    tuple oracle's.  On the oracle's own terms, the certificate
    c_i = -5^(dim-1-i) picks the same initial monomials as the matrix order,
    and c.d >= 1 on every difference: the term-level checks that the
    sweep's row premise replaces."""
    relations = all_relations(n)
    table = relation_table(n)
    triples = all_triples(n)
    dim = 3 * (n - 3)
    certificate = [-(5 ** (dim - 1 - i)) for i in range(dim)]
    for seq in equivalence_sample(n):
        rows = valuation_rows(seq, triples)
        initials, diffs = initial_terms(rows, relations)
        selection = packed_selection(rows, table)
        ids = binomial_ids(selection, table)
        assert None not in ids
        assert tuple(table.binomials[i] for i in sorted(ids)) == binomial_generators(initials)
        assert inequalities(selection, dim) == diffs
        weights = [sum(c * x for c, x in zip(certificate, row)) for row in rows]
        assert scalar_matches(weights, relations, initials)
        assert all(sum(c * x for c, x in zip(certificate, d)) >= 1 for d in diffs)


@pytest.mark.parametrize("dim", [3, 6, 9, 12, 15])
def test_inequalities_invert_the_offset_packing_in_every_dimension(dim):
    """Each d in {-2,...,2}^dim with a negative leading entry, as the
    difference of the sums best = (2, ..., 2) and other = best + d: every d
    at dim 3 and 6, 2000 seeded ones above."""
    best = pack5((2,) * dim)
    if dim <= 6:
        vectors = itertools.product(range(-2, 3), repeat=dim)
    else:
        rng = random.Random(dim)
        vectors = (tuple(rng.randrange(-2, 3) for _ in range(dim)) for _ in range(2000))
    for d in vectors:
        if any(d) and next(x for x in d if x) < 0:
            selection = pair_selection([(best, best + pack5(d))])
            assert inequalities(selection, dim) == (reduced(d),)
