import itertools
import os
import random
import re
import subprocess
import sys

import pytest

from grassdegen import valuation
from grassdegen.plucker import all_triples
from grassdegen.sequences import IteratedSequence, enumerate_sequences, standard_sequence
from grassdegen.valuation import (
    WeightingMatrix,
    valuation_rows,
    weighting_matrix,
)
from grassdegen.exactlinalg import exact_rank
from grassdegen.initial_forms import initial_ideal

from oracles import certificate_triples, height_order_key, pullback_support, root_heights


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
    assert valuation_rows(S, [(4, 5, 6)])[0] == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert valuation_rows(S, [(1, 2, 3)])[0] == (0,) * 9
    assert valuation_rows(S, [(1, 2, 6)])[0] == (0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_valuation_of_bottom_coordinate_is_zero_for_any_sequence():
    for seq in itertools.islice(enumerate_sequences(6), 0, 8640, 977):
        assert valuation_rows(seq, [(1, 2, 3)])[0] == (0,) * 9


def test_pullback_support_examples():
    S = standard_sequence(6)
    assert pullback_support(S, (1, 2, 3)) == {(0,) * 9}
    assert pullback_support(S, (1, 2, 6)) == {(0, 0, 1, 0, 0, 0, 0, 0, 0)}
    support = pullback_support(S, (4, 5, 6))
    assert max(support) == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def seeded_sequences(n, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        levels = tuple(tuple(rng.sample(range(1, n - t), 3)) for t in range(n - 4))
        yield IteratedSequence(n, levels, tuple(rng.sample((1, 2, 3), 3)))


def assert_rows_equal_the_support_oracle(seq):
    """Each row of the weighting matrix, and each one-row call, is the
    lex-max of the pullback support."""
    triples = all_triples(seq.n)
    expected = tuple(max(pullback_support(seq, K)) for K in triples)
    assert weighting_matrix(seq).rows == expected
    assert tuple(valuation_rows(seq, [K])[0] for K in triples) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_valuation_equals_lex_max_of_support(n):
    """Greedy descent against the recursion oracle, exhaustively."""
    for seq in enumerate_sequences(n):
        assert_rows_equal_the_support_oracle(seq)


def test_valuation_equals_lex_max_sampled_n7():
    for seq in seeded_sequences(7, 11, 100):
        assert_rows_equal_the_support_oracle(seq)


STUCK_AT_THE_BASE = """
from grassdegen import valuation

real = valuation._transitions


def stuck_at_the_base(top, triple):
    charge, step = real(top, triple)
    return (charge, {state: state for state in step}) if top == 4 else (charge, step)
"""

DESCENT_ERROR = r"^the descent of p_\(1, 2, 4\) ends at \(1, 2, 4\), not at \(1, 2, 3\)$"


def test_a_descent_that_does_not_end_at_123_raises(monkeypatch):
    """A base level that never trades its top index 4 leaves (1,2,4) where
    it is: the final-state check names the triple and its state."""
    scope = {}
    exec(STUCK_AT_THE_BASE, scope)
    monkeypatch.setattr(valuation, "_transitions", scope["stuck_at_the_base"])
    seq = standard_sequence(6)
    assert valuation_rows(seq, [(1, 2, 3)]) == ((0,) * 9,)
    with pytest.raises(RuntimeError, match=DESCENT_ERROR):
        valuation_rows(seq, [(1, 2, 3), (1, 2, 4)])


def test_the_final_state_check_holds_under_python_O():
    """``python -O`` strips asserts; the final-state check is no assert."""
    script = STUCK_AT_THE_BASE + """
import sys
from grassdegen.sequences import standard_sequence

print(sys.flags.optimize)
valuation._transitions = stuck_at_the_base
try:
    valuation.valuation_rows(standard_sequence(6), [(1, 2, 3), (1, 2, 4)])
except RuntimeError as exc:
    print(exc)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    optimize, message = proc.stdout.splitlines()
    assert optimize == "1"
    assert re.match(DESCENT_ERROR, message)


@pytest.mark.parametrize("n, count", [(4, None), (5, None), (6, None), (7, 2000), (8, 300)])
def test_each_certificate_row_leads_at_its_position(n, count):
    """The rank proof of ``valuation``, against the support oracle: row
    K_{t,j} has its first 1 at 3t + j, on every sequence of n <= 6 and a
    seeded sample at n = 7 and 8.  The kernel accepts each sequence."""
    sample = enumerate_sequences(n) if count is None else seeded_sequences(n, 2026, count)
    for seq in sample:
        for position, K in enumerate(certificate_triples(seq)):
            assert max(pullback_support(seq, K)).index(1) == position, (seq.serialize(), K)
        initial_ideal(weighting_matrix(seq).rows, n)


@pytest.mark.parametrize("top", [5, 6, 7, 8])
def test_sibling_tables_differ_in_one_state(top):
    """The first point of Lemma A of the ``pipeline`` docstring: two
    triples at one top index with equal first two indices have tables that
    differ exactly in the state {top,i1,i2}, where both charge position 2
    and step to {i1,i2} with their own third index."""
    for i1, i2 in itertools.permutations(range(1, top), 2):
        state = tuple(sorted((top, i1, i2)))
        thirds = [c for c in range(1, top) if c not in (i1, i2)]
        for c, c2 in itertools.combinations(thirds, 2):
            charge, step = valuation._transitions(top, (i1, i2, c))
            charge2, step2 = valuation._transitions(top, (i1, i2, c2))
            assert charge == charge2
            assert charge[state] == (0, 0, 1)
            assert {s for s in step if step[s] != step2[s]} == {state}
            assert (step[state], step2[state]) == (
                tuple(sorted((i1, i2, c))), tuple(sorted((i1, i2, c2)))
            )


def top5_sibling(seq):
    """The sequence that differs from ``seq`` only in the third index of
    its top-index-5 triple."""
    *above, (a, b, c) = seq.levels
    (other,) = {1, 2, 3, 4} - {a, b, c}
    return IteratedSequence(seq.n, (*above, (a, b, other)), seq.base_perm)


@pytest.mark.parametrize(
    "n, count", [(5, None), (6, None), (7, 1500), (8, 300)]
)
def test_a_top5_sibling_changes_one_base_triad(n, count):
    """Lemma A of the ``pipeline`` docstring at top index 5, where the
    digits below level t = n - 5 are the base triad: the sibling has the
    rows of the sequence above the base, and in the base it changes exactly
    the rows whose level-t triad is (0,0,1), all by one pair (L, L') of
    distinct triads."""
    t = n - 5
    sample = enumerate_sequences(n) if count is None else seeded_sequences(n, 2027, count)
    for seq in sample:
        rows = weighting_matrix(seq).rows
        changes = set()
        for row, other in zip(rows, weighting_matrix(top5_sibling(seq)).rows):
            assert row[:-3] == other[:-3], seq.serialize()
            if row[3 * t : 3 * t + 3] == (0, 0, 1):
                changes.add((row[-3:], other[-3:]))
            else:
                assert row == other, seq.serialize()
        ((u, u2),) = changes
        assert u != u2, seq.serialize()


@pytest.mark.parametrize("n", [4, 5])
def test_weight_homogeneity(n):
    for seq in enumerate_sequences(n):
        for K in all_triples(n):
            expected = sum(K) - 6
            assert {height_weight(seq, m) for m in pullback_support(seq, K)} == {expected}


def test_triad_sums_are_zero_or_one():
    S = IteratedSequence(6, ((2, 4, 1), (3, 1, 2)), (2, 3, 1))
    for v in valuation_rows(S, all_triples(6)):
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
