import itertools
import random

import pytest

from grassdegen import classify
from grassdegen.classify import (
    GR36_CLASSES,
    _generators,
    _moves,
    apply_transposition,
    classify_gr36,
    compute_orbits,
    fingerprint,
    fingerprint_labels,
    orbit_closure,
)
from grassdegen.cli import MAX_N
from grassdegen.initial_forms import canonical_binomial, decode, relation_table
from grassdegen.plucker import all_relations
from grassdegen.sequences import (
    IteratedSequence,
    all_labels,
    enumerate_sequences,
    label_of,
    parse_label,
    representative_sequence,
    representatives,
    standard_sequence,
    validate_label,
)
from oracles import (
    _map_monomial,
    label_class,
    labels_by_ideal,
    reference_closure,
    reference_transposition,
)


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


def all_ideals(n):
    """The ideal -> labels map of every label of Gr(3,n)."""
    return fingerprint_labels(representatives(n))[0]


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
        assert label_of(seq.levels) == label_of(base.levels)
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
    for fp in all_ideals(n):
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


def test_orbit_closure_n7_equals_the_walk_over_every_transposition(closure_n7):
    fp, closure = closure_n7
    assert closure == reference_closure(fp, _moves(7))


@pytest.mark.parametrize("n", [5, 6])
def test_orbit_closure_equals_the_walk_over_every_transposition_on_every_orbit(n):
    unseen = set(all_ideals(n))
    orbits = 0
    while unseen:
        fp = min(unseen)
        closure = orbit_closure(fp, n)
        assert closure == reference_closure(fp, _moves(n))
        unseen -= closure
        orbits += 1
    assert orbits == {5: 1, 6: 4}[n]


def test_orbit_closure_of_fingerprints_with_fewer_than_two_ids():
    # the only Gr(3,4) fingerprint is empty; a forged one-id fingerprint's
    # orbit is the orbit of its binomial, and two ids take the usual path
    assert orbit_closure((), 4) == {()}
    assert orbit_closure((), 6) == {()}
    for fp in [(0,), (57,), (0, 57)]:
        closure = orbit_closure(fp, 6)
        assert closure == reference_closure(fp, _moves(6))
        assert len(closure) > 1
        assert all(len(member) == len(fp) for member in closure)


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_the_cycle_table_composes_the_transpositions(n):
    """The second generator is c = s_{n-1} ... s_1: s_1 acts first.  It is
    an n-cycle, so its n-th power is the identity of the table."""
    s_1, cycle = _generators(n)
    size = len(relation_table(n).binomials)
    assert s_1 == _moves(n)[0]
    assert sorted(cycle) == list(range(size))
    power = tuple(range(size))
    for _ in range(n):
        power = tuple(cycle[k] for k in power)
    assert power == tuple(range(size))
    rng = random.Random(n)
    samples = [fingerprint(standard_sequence(n))]
    samples += [tuple(sorted(rng.sample(range(size), rng.randint(0, size)))) for _ in range(20)]
    for fp in samples:
        image = fp
        for i in range(1, n):
            image = apply_transposition(i, image, n)
        assert tuple(sorted(cycle[k] for k in fp)) == image


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
    for fp in all_ideals(6):
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


def test_the_class_seeds_are_their_labels_ideals_from_four_kernels_and_no_walk(monkeypatch):
    ideal_of = {label: fp for fp, labels in all_ideals(6).items() for label in labels}
    calls = []
    real = classify.fingerprint

    def counted(seq):
        calls.append(seq)
        return real(seq)

    def unreachable(*args):
        raise AssertionError("walked a class")

    monkeypatch.setattr(classify, "fingerprint", counted)
    monkeypatch.setattr(classify, "apply_transposition", unreachable)
    classify._class_seeds.cache_clear()
    try:
        seeds = classify._class_seeds()
    finally:
        classify._class_seeds.cache_clear()
    assert len(calls) == 4
    assert seeds == {
        ideal_of[parse_label(label)]: (name, iso) for name, (label, iso) in GR36_CLASSES.items()
    }


def test_label_orbit_membership_unknown_label():
    orbit_of_label = classify_gr36()
    assert set(orbit_of_label) == set(all_labels(6))
    assert ((1, 1), (1, 1)) not in orbit_of_label


def test_fingerprints_constant_on_fibers_exhaustive_n5():
    fibers = {}
    for seq in enumerate_sequences(5):
        fibers.setdefault(label_of(seq.levels), set()).add(fingerprint(seq))
    assert all(len(v) == 1 for v in fibers.values())
    distinct = {next(iter(v)) for v in fibers.values()}
    assert len(distinct) == len(fibers) == 12


def own_kernel(label, n):
    """The ideal of a label from its own kernel run."""
    return fingerprint(representative_sequence(label, n))


def relabel(label, sigma):
    """The label with sigma, a map of 1..4, applied to each entry of each
    pair; indices outside sigma stay put."""
    return tuple((sigma.get(a, a), sigma.get(b, b)) for a, b in label)


def relabelling_mismatches(i, labels, n):
    """Apply s_i = (i, i+1) to each label and to its own kernel's ideal:
    the labels whose image ideal is not the own kernel's ideal of the image
    label, and the labels whose image is no label."""
    mismatches, not_labels = [], []
    for label in labels:
        image = relabel(label, {i: i + 1, i + 1: i})
        try:
            validate_label(image, n)
        except ValueError:
            not_labels.append(label)
            continue
        if apply_transposition(i, own_kernel(label, n), n) != own_kernel(image, n):
            mismatches.append(label)
    return mismatches, not_labels


def class_count(n):
    """The number of classes of labels under the 24 permutations of 1..4."""
    return len(set(map(label_class, all_labels(n))))


@pytest.mark.parametrize("n", [5, 6])
def test_fingerprint_labels_equal_every_labels_own_kernel(n):
    expected = labels_by_ideal({label: own_kernel(label, n) for label in all_labels(n)})
    got = all_ideals(n)
    assert got == expected
    assert list(got) == list(expected)


def test_fingerprint_labels_equal_the_own_kernel_on_sampled_n7_labels():
    ideal = {label: fp for fp, labels in all_ideals(7).items() for label in labels}
    assert len(ideal) == 7200
    for label in random.Random(7).sample(sorted(ideal), 200):
        assert ideal[label] == own_kernel(label, 7), label


def test_relabelling_1_to_4_moves_the_own_kernel_on_sampled_n8_labels():
    """Lemma C of the ``pipeline`` docstring, checked on kernels alone."""
    labels = random.Random(8).sample(list(all_labels(8)), 20)
    for i in (1, 2, 3):
        assert relabelling_mismatches(i, labels, 8) == ([], [])


def test_relabelling_4_and_5_does_not_move_the_ideal():
    """The negative control of the test above: s_4 moves the top index 5 of
    level 1 at n = 6, and no image label has the moved ideal."""
    mismatches, not_labels = relabelling_mismatches(4, all_labels(6), 6)
    assert len(mismatches) == 120
    assert len(not_labels) == 120


@pytest.mark.parametrize("n", [5, 6, 7])
def test_the_relations_are_closed_under_s1_s2_s3_up_to_sign(n):
    def up_to_sign(poly):
        """A relation as {monomial: coefficient}, its smallest monomial's
        coefficient made +1."""
        lead = poly[min(poly)]
        return frozenset((monomial, c * lead) for monomial, c in poly.items())

    relations = {
        up_to_sign({(A, B): sign for sign, A, B in terms}) for _, _, terms in all_relations(n)
    }
    for i in (1, 2, 3):
        for _, _, terms in all_relations(n):
            moved = {}
            for sign, A, B in terms:
                monomial, factor = _map_monomial(i, (A, B))
                moved[monomial] = sign * factor
            assert up_to_sign(moved) in relations


@pytest.mark.parametrize("n, classes", [(5, 1), (6, 13), (7, 336)])
def test_fingerprint_labels_runs_one_kernel_per_class(monkeypatch, n, classes):
    assert class_count(n) == classes
    calls = []
    real = classify.fingerprint

    def counted(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(classify, "fingerprint", counted)
    _, kernels = fingerprint_labels(representatives(n))
    assert len(calls) == kernels == classes
    assert calls[0] == representative_sequence(next(all_labels(n)), n)


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

    real = valuation.valuation_rows

    def with_a_two(seq, triples):
        rows = real(seq, triples)
        return tuple((2, *row[1:]) if K == (3, 4, 5) else row for K, row in zip(triples, rows))

    monkeypatch.setattr(valuation, "valuation_rows", with_a_two)
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
