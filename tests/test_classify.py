import itertools

import pytest

from grassdegen.classify import (
    GR36_CLASSES,
    _moves,
    apply_transposition,
    classify_gr36,
    compute_orbits,
    fingerprint,
    label_fingerprints,
    orbit_closure,
)
from grassdegen.cli import MAX_N
from grassdegen.initial_forms import canonical_binomial, decode, relation_table
from grassdegen.sequences import (
    IteratedSequence,
    all_labels,
    enumerate_sequences,
    label_of,
    parse_label,
    representative_sequence,
    standard_sequence,
)
from oracles import reference_transposition


def apply_word(word, fp, n):
    """Apply a word in simple transpositions, rightmost letter first.

    General signed permutations are realized this way; the sign of a
    composite is whatever the letter-by-letter composition yields.
    """
    for i in reversed(tuple(word)):
        fp = apply_transposition(i, fp, n)
    return fp


def fingerprint_of(binomials, n):
    """The fingerprint, sorted ids, of binomials of the Gr(3,n) table."""
    return tuple(sorted(map(relation_table(n).binomials.index, binomials)))


def label_orbit(label):
    """Orbit id of the Gr(3,6) ideal with the given label."""
    return classify_gr36()[label].orbit_id


def gr36_reports():
    """The four Gr(3,6) orbit reports, in orbit id order."""
    by_id = {report.orbit_id: report for report in classify_gr36().values()}
    return [by_id[orbit_id] for orbit_id in sorted(by_id)]


def test_canonical_binomial_orientation():
    a = ((1, 2, 3), (4, 5, 6))
    b = ((1, 2, 4), (3, 5, 6))
    assert canonical_binomial(-1, a, 1, b) == (a, b, -1)
    assert canonical_binomial(1, b, -1, a) == (a, b, -1)
    assert canonical_binomial(1, a, 1, b) == (a, b, 1)


def test_standard_fingerprint_contains_worked_binomial():
    fp = fingerprint(standard_sequence(6))
    assert (((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1) in decode(fp, 6)
    assert len(fp) == len(set(fp)) and list(fp) == sorted(fp)
    assert list(decode(fp, 6)) == sorted(decode(fp, 6))


def test_fingerprints_equal_on_a_label_fiber():
    base = IteratedSequence(6, ((2, 4, 1), (3, 1, 2)), (1, 2, 3))
    fp = fingerprint(base)
    same_label = [
        IteratedSequence(6, ((2, 4, 3), (3, 1, 4)), (2, 3, 1)),
        IteratedSequence(6, ((2, 4, 5), (3, 1, 2)), (3, 2, 1)),
    ]
    for seq in same_label:
        assert label_of(seq) == label_of(base)
        assert fingerprint(seq) == fp


def test_fingerprints_differ_across_labels():
    fp1 = fingerprint(representative_sequence(((1, 2), (1, 2)), 6))
    fp2 = fingerprint(representative_sequence(((1, 2), (2, 1)), 6))
    assert fp1 != fp2


def test_transposition_sign_rule():
    # s_1 fixes the triple (1,2,3) and flips the sign of its variable
    gen = (((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1)
    image = decode(apply_transposition(1, fingerprint_of([gen], 6), 6), 6)
    # p_123 -> -p_123, p_456 fixed, p_124 -> -p_124, p_356 -> p_256... no:
    # s_1 swaps 1 and 2: (1,2,4) contains both -> sign -1; (3,5,6) unchanged.
    # lead monomial picks up -1 from p_123 and the trail from p_124, so the
    # trailing sign is unchanged while monomials stay put.
    assert image == ((((1, 2, 3), (4, 5, 6)), ((1, 2, 4), (3, 5, 6)), -1),)


def test_transposition_relabels_without_sign():
    # s_3 maps 3 <-> 4: p_135 -> p_145, p_246 -> p_236, no variable holds
    # both 3 and 4, so no signs appear.  The table holds this pair of
    # monomials with trailing sign -1.
    gen = (((1, 2, 3), (4, 5, 6)), ((1, 3, 5), (2, 4, 6)), -1)
    image = decode(apply_transposition(3, fingerprint_of([gen], 6), 6), 6)
    assert image == (((((1, 2, 4)), (3, 5, 6)), ((1, 4, 5), (2, 3, 6)), -1),)


def test_transpositions_are_involutions_on_fingerprints():
    fp = fingerprint(standard_sequence(6))
    for i in range(1, 6):
        assert apply_transposition(i, apply_transposition(i, fp, 6), 6) == fp


@pytest.mark.parametrize("i", [0, 6, -1, 7])
def test_transposition_outside_1_to_n_minus_1_is_rejected(i):
    # s_6 would write triples holding 7 into an n=6 fingerprint
    fp = fingerprint(standard_sequence(6))
    with pytest.raises(ValueError, match="s_1..s_5"):
        apply_transposition(i, fp, 6)


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_each_move_is_an_involutive_permutation_of_the_table(n):
    # _moves looks every image up in the table, so building it shows that
    # the table is closed under each s_i, sign included
    ids = range(len(relation_table(n).binomials))
    moves = _moves(n)
    assert len(moves) == n - 1
    for move in moves:
        assert sorted(move) == list(ids)
        assert all(move[move[k]] == k for k in ids)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_moves_equal_the_tuple_oracle_on_every_table_binomial(n):
    binomials = relation_table(n).binomials
    for i, move in enumerate(_moves(n), start=1):
        for binomial, image in zip(binomials, move):
            assert (binomials[image],) == reference_transposition(i, (binomial,))


@pytest.mark.parametrize("n", [5, 6])
def test_packed_action_equals_the_tuple_oracle_on_every_label(n):
    for fp in set(label_fingerprints(n).values()):
        for i in range(1, n):
            image = decode(apply_transposition(i, fp, n), n)
            assert image == reference_transposition(i, decode(fp, n))


def test_apply_word_composes_generators():
    fp = fingerprint(standard_sequence(6))
    assert apply_word((), fp, 6) == fp
    assert apply_word((2,), fp, 6) == apply_transposition(2, fp, 6)
    # rightmost letter acts first
    assert apply_word((1, 3), fp, 6) == apply_transposition(1, apply_transposition(3, fp, 6), 6)
    # a reduced word for the longest element squares to the identity action
    longest = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)
    assert apply_word(longest, apply_word(longest, fp, 6), 6) == fp


def test_braid_and_commutation_relations():
    fp = fingerprint(representative_sequence(((2, 4), (3, 1)), 6))
    for i in range(1, 5):
        image = fp
        for _ in range(3):
            image = apply_transposition(i, apply_transposition(i + 1, image, 6), 6)
        assert image == fp
    for i, j in itertools.combinations(range(1, 6), 2):
        if abs(i - j) >= 2:
            one = apply_transposition(i, apply_transposition(j, fp, 6), 6)
            two = apply_transposition(j, apply_transposition(i, fp, 6), 6)
            assert one == two


def test_singleton_invariant_orbit():
    # A fingerprint fixed by every generator forms one orbit of size 1.
    # The empty fingerprint is trivially invariant.  It is no Gr(3,6) ideal
    # and has no Gr(3,6) class, so it is run at n=5, where none is named.
    reports = compute_orbits({(): ()}, 5)
    assert len(reports) == 1
    assert reports[0].intersection_size == 1
    assert reports[0].ambient_size == 1


def test_orbit_closure_of_standard_fingerprint():
    # the standard sequence has label (1,2;1,2), which lies in O3, and O3
    # has 90 ideals in its full orbit
    fp = fingerprint(standard_sequence(6))
    closure = orbit_closure(fp, 6)
    assert fp in closure
    assert len(closure) == 90
    for member in closure:
        assert list(member) == sorted(member)
        for i in range(1, 6):
            assert apply_transposition(i, member, 6) in closure


@pytest.fixture(scope="module")
def closure_n7():
    fp = fingerprint(representative_sequence(((1, 2), (1, 2), (3, 4)), 7))
    return fp, orbit_closure(fp, 7)


def test_orbit_closure_n7_has_1260_members(closure_n7):
    fp, closure = closure_n7
    assert fp in closure
    assert len(closure) == 1260
    assert all(len(member) == len(fp) == 161 for member in closure)


def test_packed_action_equals_the_tuple_oracle_on_n7_closure_members(closure_n7):
    _, closure = closure_n7
    sample = sorted(closure)[::97]
    assert len(sample) == 13
    for member in sample:
        for i in range(1, 7):
            image = apply_transposition(i, member, 7)
            assert decode(image, 7) == reference_transposition(i, decode(member, 7))
            assert image in closure


def test_fingerprints_are_monomial_free():
    for fp in set(label_fingerprints(6).values()):
        for lead, trail, _ in decode(fp, 6):
            assert lead != trail


def test_gr36_classification_structure():
    reports = gr36_reports()
    sizes = sorted(r.intersection_size for r in reports)
    assert sizes == [48, 48, 48, 96]
    assert sum(sizes) == 240
    names = {r.name for r in reports}
    assert names == {"O1", "O2", "O3", "O4"}
    # orbits partition the 240 fingerprints
    members = [m for r in reports for m in r.members]
    assert len(members) == 240 == len(set(members))
    # some images leave the input set
    assert any(r.escaped_count > 0 for r in reports)


def matches_o2(label):
    """Pattern (k, s1; s2, k): first top-level index equals last pair's second."""
    return label[0][0] == label[1][1]


def matches_o3(label):
    """Pattern (s1, k; s2, k): both pairs share the same second index."""
    return label[0][1] == label[1][1]


def test_label_patterns_identify_o2_and_o3():
    assert matches_o2(((1, 3), (2, 1)))
    assert matches_o3(((3, 1), (2, 1)))
    orbit_of_label = classify_gr36()
    assert len(orbit_of_label) == 240
    for label, report in orbit_of_label.items():
        assert (report.name == "O2") == matches_o2(label), label
        assert (report.name == "O3") == matches_o3(label), label


def test_class_representatives_lie_in_four_distinct_orbits():
    orbit_of_label = classify_gr36()
    reports = [orbit_of_label[parse_label(label)] for label, _ in GR36_CLASSES.values()]
    assert [r.name for r in reports] == list(GR36_CLASSES) == ["O1", "O2", "O3", "O4"]
    assert len({r.orbit_id for r in reports}) == 4
    assert [r.ambient_size for r in reports] == [90, 180, 90, 360]
    assert [r.isomorphism_class for r in reports] == ["EEFF1", "EFFG", "EEFF2", "EEFG"]


def test_label_orbit_membership_unknown_label():
    orbit_of_label = classify_gr36()
    assert set(orbit_of_label) == set(all_labels(6))
    assert ((1, 1), (1, 1)) not in orbit_of_label


def test_fingerprints_constant_on_fibers_exhaustive_n5():
    fibers = {}
    for seq in enumerate_sequences(5):
        fibers.setdefault(label_of(seq), set()).add(fingerprint(seq))
    assert all(len(v) == 1 for v in fibers.values())
    distinct = {next(iter(v)) for v in fibers.values()}
    assert len(distinct) == len(fibers) == 12


def test_orbits_agree_with_full_word_enumeration_n5():
    """Independent oracle: apply all 120 group elements, realized as words
    over the Cayley graph, and partition by pairwise reachability."""
    fps = sorted({fingerprint(seq) for seq in enumerate_sequences(5)})
    assert len(fps) == 12

    identity = (1, 2, 3, 4, 5)
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        fresh = []
        for perm in frontier:
            for i in range(1, 5):
                image = list(perm)
                image[i - 1], image[i] = image[i], image[i - 1]
                image = tuple(image)
                if image not in words:
                    words[image] = (i,) + words[perm]
                    fresh.append(image)
        frontier = fresh
    assert len(words) == 120

    related = {fp: {fp} for fp in fps}
    input_set = set(fps)
    for word in words.values():
        for fp in fps:
            image = apply_word(word, fp, 5)
            if image in input_set:
                related[fp].add(image)
    classes = {frozenset(v) for v in related.values()}

    reports = compute_orbits({fp: () for fp in fps}, 5)
    assert {frozenset(r.members) for r in reports} == classes
    assert {(r.name, r.isomorphism_class) for r in reports} == {("", "")}


def test_fingerprint_rejects_a_valuation_row_outside_0_1(monkeypatch):
    from grassdegen import valuation

    real = valuation.compute_valuation

    def with_a_two(seq, K):
        row = real(seq, K)
        return (2, *row[1:]) if K == (3, 4, 5) else row

    monkeypatch.setattr(valuation, "compute_valuation", with_a_two)
    with pytest.raises(
        RuntimeError,
        match=r"^sequence 5:\[2,1,3\|1,2,3\]: valuation row \(2, .* is not a 0/1 vector of length 6",
    ) as info:
        fingerprint(IteratedSequence.parse("5:[2,1,3|1,2,3]"))
    assert isinstance(info.value.__cause__, ValueError)


def test_an_n6_orbit_of_no_class_is_named_in_the_error():
    with pytest.raises(
        RuntimeError,
        match=r"the Gr\(3,6\) orbit of labels \[\] and ambient size 1 holds no representative",
    ):
        compute_orbits({(): ()}, 6)
    labels = ((1, 2), (1, 3)), ((1, 2), (3, 4))
    with pytest.raises(
        RuntimeError, match=r"orbit of labels \[\(1,2;1,3\) \(1,2;3,4\)\] and ambient size 1 "
    ):
        compute_orbits({(): labels}, 6)
