import itertools

import pytest

from grassdegen.plucker import InvalidSize, all_relations, plucker_relation

from oracles import count_nonzero_relations, expand_relation


def test_worked_four_term_relation():
    # R_{(1,2),(3,4,5,6)} expands with sign exponents 5, 4, 3, 2.
    I, J, terms = plucker_relation((1, 2), (3, 4, 5, 6))
    assert (I, J) == ((1, 2), (3, 4, 5, 6))
    assert list(terms) == [
        (-1, (1, 2, 3), (4, 5, 6)),
        (1, (1, 2, 4), (3, 5, 6)),
        (-1, (1, 2, 5), (3, 4, 6)),
        (1, (1, 2, 6), (3, 4, 5)),
    ]


def test_three_term_relation_when_sharing_one_index():
    _, _, terms = plucker_relation((1, 2), (1, 3, 4, 5))
    assert len(terms) == 3
    # j = 1 lies in I, so p_{I+1} = 0 drops out and p_{(3,4,5)} is never a factor
    assert all((3, 4, 5) not in (a, b) for _, a, b in terms)


def test_zero_relation_when_sharing_two_indices():
    assert plucker_relation((1, 2), (1, 2, 3, 4)) is None


@pytest.mark.parametrize("n,expected", [(4, (0, 0, 0)), (5, (20, 20, 0)), (6, (135, 120, 15))])
def test_relation_counts_match_expansion_oracle(n, expected):
    rels = all_relations(n)
    three = sum(1 for _, _, terms in rels if len(terms) == 3)
    four = sum(1 for _, _, terms in rels if len(terms) == 4)
    assert (len(rels), three, four) == expected
    assert expected == count_nonzero_relations(n)


def test_all_relations_rejects_small_n():
    with pytest.raises(InvalidSize):
        all_relations(3)


def test_relations_agree_with_expansion_oracle_termwise():
    """The shortcut construction reproduces the cancelling expansion."""
    for n in (5, 6):
        for i_pair in itertools.combinations(range(1, n + 1), 2):
            for j_quad in itertools.combinations(range(1, n + 1), 4):
                poly = expand_relation(i_pair, j_quad)
                R = plucker_relation(i_pair, j_quad)
                if R is None:
                    assert poly == {}
                else:
                    assert {(a, b): sign for sign, a, b in R[2]} == poly


def test_regenerating_relations_is_stable():
    for R in all_relations(6):
        assert plucker_relation(R[0], R[1]) == R


def test_term_count_matches_intersection_size():
    for I, J, terms in all_relations(6):
        common = len(set(I) & set(J))
        assert len(terms) == (3 if common == 1 else 4)
        assert common <= 1
        # every term is (sign, A, B) with sign +-1 and A <= B increasing triples
        for sign, a, b in terms:
            assert sign in (1, -1)
            assert a <= b
            assert all(len(t) == 3 and t == tuple(sorted(set(t))) for t in (a, b))


def test_all_relations_are_built_once_per_n():
    relations = all_relations(6)
    assert isinstance(relations, tuple)
    assert all_relations(6) is relations
