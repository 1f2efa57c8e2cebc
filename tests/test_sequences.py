import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from grassdegen.plucker import InvalidSize
from grassdegen.sequences import (
    BASES,
    IteratedSequence,
    all_labels,
    count_labels,
    enumerate_sequences,
    format_label,
    label_of,
    level_prefixes,
    parse_label,
    representative_sequence,
    sequence_count,
    serialize_group,
    standard_sequence,
    validate_label,
)


@pytest.mark.parametrize("n,count", [(4, 6), (5, 144), (6, 8640)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_sequences(n)) == count
    assert sequence_count(n) == count


def test_counts_match_closed_form_up_to_8():
    for n in range(4, 9):
        expected = 1
        for l in range(n - 3):
            expected *= (n - l - 1) * (n - l - 2) * (n - l - 3)
        assert sequence_count(n) == expected


def test_enumeration_count_n7():
    assert sum(1 for _ in enumerate_sequences(7)) == sequence_count(7) == 1036800


def test_enumeration_is_unique_and_lexicographic():
    seen = list(enumerate_sequences(5))
    assert len(set(s.serialize() for s in seen)) == len(seen)
    keys = [s.triples for s in seen]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumeration_is_the_level_prefixes_times_the_bases(n):
    assert list(enumerate_sequences(n)) == [
        IteratedSequence(n, levels, base)
        for levels, base in itertools.product(level_prefixes(n), BASES)
    ]
    assert BASES == tuple(itertools.permutations((1, 2, 3)))


def test_rejects_small_n():
    with pytest.raises(InvalidSize):
        list(enumerate_sequences(3))
    with pytest.raises(InvalidSize):
        level_prefixes(3)
    with pytest.raises(InvalidSize):
        all_labels(3)
    with pytest.raises(InvalidSize):
        count_labels(3)
    assert count_labels(4) == len(list(all_labels(4))) == 1


def test_invalid_sequences_rejected():
    with pytest.raises(ValueError):
        IteratedSequence(6, ((1, 2, 5),), (1, 2, 3))  # missing a level
    with pytest.raises(ValueError):
        IteratedSequence(6, ((1, 2, 7), (1, 2, 3)), (1, 2, 3))  # out of range
    with pytest.raises(ValueError):
        IteratedSequence(6, ((1, 2, 2), (1, 2, 3)), (1, 2, 3))  # repeated entry
    with pytest.raises(ValueError):
        IteratedSequence(6, ((1, 2, 3), (1, 2, 3)), (1, 2, 4))  # non-PBW base


INVALID = [
    ((3, (), (1, 2, 3)), InvalidSize, "need n >= 4, got 3"),
    ((6, ((1, 2, 5),), (1, 2, 3)), ValueError, "expected 2 levels, got 1"),
    ((6, ((1, 2, 7), (1, 2, 3)), (1, 2, 3)), ValueError,
     "level-0 triple (1, 2, 7) has entries outside 1..5"),
    ((6, ((1, 2, 3), (1, 2, 2)), (1, 2, 3)), ValueError,
     "level-1 triple (1, 2, 2) must have 3 pairwise-distinct entries"),
    ((6, ((1, 2, 3), (1, 2, 3)), (1, 2, 4)), ValueError,
     "base permutation (1, 2, 4) has entries outside 1..3"),
    ((5, ((1, 2, 3),), (1, 1, 3)), ValueError,
     "base permutation (1, 1, 3) must have 3 pairwise-distinct entries"),
    ((5, ((1, 2),), (1, 2, 3)), ValueError,
     "level-0 triple (1, 2) must have 3 pairwise-distinct entries"),
]


@pytest.mark.parametrize("args,error,message", INVALID)
def test_the_constructor_and_unpickling_raise_each_message(args, error, message):
    with pytest.raises(error) as caught:
        IteratedSequence(*args)
    assert str(caught.value) == message
    # a pool moves sequences by pickle, which calls the constructor
    forged = tuple.__new__(IteratedSequence, args)
    with pytest.raises(error) as caught:
        pickle.loads(pickle.dumps(forged))
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        standard_sequence(6)._replace(**dict(zip(IteratedSequence._fields, args)))
    assert str(caught.value) == message


def test_repr_and_pickle_round_trip():
    seq = standard_sequence(6)
    assert repr(seq) == "IteratedSequence(n=6, levels=((1, 2, 3), (1, 2, 3)), base_perm=(1, 2, 3))"
    copy = pickle.loads(pickle.dumps(seq))
    assert type(copy) is IteratedSequence and copy == seq
    assert not hasattr(seq, "__dict__")


def test_label_projection():
    seq = IteratedSequence(6, ((1, 2, 3), (3, 4, 1)), (2, 1, 3))
    assert label_of(seq.levels) == ((1, 2), (3, 4))
    # third indices and base permutation do not enter the label
    other = IteratedSequence(6, ((1, 2, 4), (3, 4, 2)), (3, 1, 2))
    assert label_of(other.levels) == label_of(seq.levels)


@pytest.mark.parametrize("n,count", [(5, 12), (6, 240), (7, 7200)])
def test_label_counts(n, count):
    # product over levels of (n-l-1)(n-l-2), checked against enumeration
    assert count_labels(n) == count
    assert sum(1 for _ in all_labels(n)) == count


@pytest.mark.parametrize("n", [5, 6])
def test_labels_surjective_with_uniform_fibers(n):
    fibers = {}
    for seq in enumerate_sequences(n):
        fibers.setdefault(label_of(seq.levels), 0)
        fibers[label_of(seq.levels)] += 1
    assert len(fibers) == count_labels(n)
    # the base permutation and the free third index of each level
    assert set(fibers.values()) == {6 * math.prod(n - l - 3 for l in range(n - 4))}


def test_serialization_example():
    seq = IteratedSequence(6, ((1, 2, 3), (3, 4, 1)), (2, 1, 3))
    assert seq.serialize() == "6:[1,2,3|3,4,1|2,1,3]"
    assert IteratedSequence.parse("6:[1,2,3|3,4,1|2,1,3]") == seq


@pytest.mark.parametrize("n", [4, 5, 6])
def test_serialize_group_writes_the_text_parse_reads(n):
    for levels in level_prefixes(n):
        for base, text in zip(BASES, serialize_group(n, levels, BASES)):
            body = "|".join(",".join(map(str, t)) for t in levels + (base,))
            assert text == f"{n}:[{body}]"
            assert IteratedSequence.parse(text) == IteratedSequence(n, levels, base)


@given(st.integers(4, 7), st.randoms(use_true_random=False))
def test_serialization_roundtrip(n, rng):
    levels = []
    for t in range(n - 4):
        levels.append(tuple(rng.sample(range(1, n - t), 3)))
    base = tuple(rng.sample((1, 2, 3), 3))
    seq = IteratedSequence(n, tuple(levels), base)
    assert IteratedSequence.parse(seq.serialize()) == seq


def test_parse_rejects_garbage():
    for bad in ["", "6:[1,2,3]", "6:1,2,3|1,2,3|1,2,3", "x:[1,2,3]"]:
        with pytest.raises(ValueError):
            IteratedSequence.parse(bad)


def test_label_formatting_roundtrip():
    label = ((1, 3), (2, 1))
    assert format_label(label) == "(1,3;2,1)"
    assert parse_label("(1,3;2,1)") == label
    validate_label(label, 6)
    with pytest.raises(ValueError):
        validate_label(((9, 9), (9, 9)), 6)
    with pytest.raises(ValueError):
        parse_label("1,3;2,1")


def test_representative_sequence_has_its_label():
    for label in itertools.islice(all_labels(6), 40):
        assert label_of(representative_sequence(label, 6).levels) == label


def test_standard_sequence():
    assert standard_sequence(6).serialize() == "6:[1,2,3|1,2,3|1,2,3]"
