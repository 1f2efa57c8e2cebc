import itertools

import pytest

from grassdegen.plucker import all_triples
from grassdegen.sequences import IteratedSequence, enumerate_sequences, standard_sequence
from grassdegen.valuation import WeightingMatrix, compute_valuation, weighting_matrix
from grassdegen.exactlinalg import exact_rank

from oracles import height_order_key, pullback_support, root_heights


def height_weight(seq, vector):
    return height_order_key(seq, vector)[0]


def test_height_weight_examples():
    S = standard_sequence(6)
    zero = (0,) * 9
    assert height_weight(S, zero) == 0
    assert height_weight(S, (1, 0, 0, 0, 0, 0, 0, 0, 0)) == 5
    assert height_weight(S, (1, 0, 0, 0, 1, 0, 0, 0, 1)) == 9 == 4 + 5 + 6 - 6
    with pytest.raises(ValueError):
        height_weight(S, (1, 0))


def test_root_heights_standard():
    assert root_heights(standard_sequence(6)) == (5, 4, 3, 4, 3, 2, 3, 2, 1)


def test_valuation_worked_examples():
    S = standard_sequence(6)
    assert compute_valuation(S, (4, 5, 6)) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert compute_valuation(S, (1, 2, 3)) == (0,) * 9
    assert compute_valuation(S, (1, 2, 6)) == (0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_valuation_of_bottom_coordinate_is_zero_for_any_sequence():
    for seq in itertools.islice(enumerate_sequences(6), 0, 8640, 977):
        assert compute_valuation(seq, (1, 2, 3)) == (0,) * 9


def test_pullback_support_examples():
    S = standard_sequence(6)
    assert pullback_support(S, (1, 2, 3)) == {(0,) * 9}
    assert pullback_support(S, (1, 2, 6)) == {(0, 0, 1, 0, 0, 0, 0, 0, 0)}
    support = pullback_support(S, (4, 5, 6))
    assert max(support) == (1, 0, 0, 0, 1, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [4, 5])
def test_valuation_equals_lex_max_of_support(n):
    """Greedy descent against the recursion oracle, exhaustively."""
    for seq in enumerate_sequences(n):
        for K in all_triples(n):
            support = pullback_support(seq, K)
            assert compute_valuation(seq, K) == max(support)


def test_valuation_equals_lex_max_sampled_n7():
    import random

    rng = random.Random(11)
    triples = all_triples(7)
    for _ in range(50):
        levels = tuple(tuple(rng.sample(range(1, 7 - t), 3)) for t in range(3))
        seq = IteratedSequence(7, levels, tuple(rng.sample((1, 2, 3), 3)))
        for K in triples:
            assert compute_valuation(seq, K) == max(pullback_support(seq, K))


@pytest.mark.parametrize("n", [4, 5])
def test_weight_homogeneity(n):
    for seq in enumerate_sequences(n):
        for K in all_triples(n):
            expected = sum(K) - 6
            assert {height_weight(seq, m) for m in pullback_support(seq, K)} == {expected}


def test_triad_sums_are_zero_or_one():
    S = IteratedSequence(6, ((2, 4, 1), (3, 1, 2)), (2, 3, 1))
    for K in all_triples(6):
        v = compute_valuation(S, K)
        for t in range(3):
            assert sum(v[3 * t : 3 * t + 3]) in (0, 1)


TRIANGULAR_COORDINATES = [
    (4, 5, 6), (1, 5, 6), (1, 2, 6),
    (3, 4, 5), (1, 4, 5), (1, 2, 5),
    (2, 3, 4), (1, 3, 4), (1, 2, 4),
]


def test_standard_weighting_matrix_triangular_submatrix():
    M = weighting_matrix(standard_sequence(6))
    row = dict(M.items())
    sub = [row[K] for K in TRIANGULAR_COORDINATES]
    for i in range(9):
        assert sub[i][i] == 1
        assert all(sub[i][j] == 0 for j in range(i))


def test_weighting_matrix_shape_and_rank():
    M = weighting_matrix(standard_sequence(6))
    assert len(M.rows) == 20 and all(len(r) == 9 for r in M.rows)
    rows = ({i: x for i, x in enumerate(r) if x} for r in M.rows)
    assert exact_rank(rows) == 9


def test_weighting_matrix_csv_roundtrip():
    M = weighting_matrix(standard_sequence(6))
    text = M.to_csv()
    again = WeightingMatrix.from_csv(text)
    assert again == M
    assert text.splitlines()[0] == "123,0,0,0,0,0,0,0,0,0"
