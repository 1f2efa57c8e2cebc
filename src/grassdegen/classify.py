"""Canonical fingerprints of binomial initial ideals and their orbits under
the signed symmetric-group action on Pluecker variables.  At n = 6 an orbit
is named by the Gr(3,6) class O1..O4 whose representative label in
``GR36_CLASSES`` has its ideal in the orbit's closure: one example defines
each class, as in Speyer and Sturmfels' classes of cones of trop Gr(3,6).

A binomial is (lead, trail, sign): lead is the order-smallest of its two
degree-2 monomials, the lead coefficient is normalized to +1 and sign is the
trailing coefficient.  Its id is its position in the sorted tuple
``relation_table(n).binomials``, and a fingerprint is the sorted tuple of
the ids of the initial binomials of all nonzero relations;
``initial_forms.decode`` gives the binomials back.  Ids number the
binomials in sorted order, so decoding is increasing, and since tuples
compare element by element, id tuples compare, and sort, exactly like the
binomial tuples they decode to.

The simple transposition s_i = (i, i+1) sends p_T to p_{s_i(T)} when T
contains at most one of i, i+1 and to -p_T when it contains both; signs
multiply over the two factors of each monomial.  The table is closed under
each s_i, sign included: ``_moves`` looks up the re-oriented image of every
table binomial, and the test suite builds it for every n the CLI accepts,
4..8.  So each s_i is one permutation of the ids, built once per n on first
use, and the image of a fingerprint is the sorted tuple of its ids' images.

An orbit closure walks two generators, s_1 and the n-cycle
c = s_{n-1} ... s_1, which sends 1 to n and k to k - 1 for k > 1.  The
s_i act on binomials up to scalar as S_n acts on the columns of a 3 x n
matrix, which sends p_T to +-p_{sigma(T)}, so words in the s_i act as the
group elements they multiply to.  Conjugation by c shifts the index of a
simple transposition by one, c^-1 s_i c = s_{i+1}, so s_i = c^-(i-1) s_1
c^(i-1) and s_1, c generate all of S_n; since the group is finite, the
images of a fingerprint under words in s_1 and c alone are its whole
orbit, the set that words in s_1..s_{n-1} reach.  The closure therefore
takes two images per member, not n - 1.  The table of c composes the n - 1
tables of the s_i, and each image gathers a member's ids from a table in
C, through one ``operator.itemgetter`` per member.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .initial_forms import Fingerprint, canonical_binomial, initial_ideal, relation_table
from .plucker import all_triples
from .sequences import (
    IteratedSequence,
    Label,
    all_labels,
    format_label,
    parse_label,
    representative_sequence,
)
from .valuation import weighting_matrix


def fingerprint(seq: IteratedSequence) -> Fingerprint:
    """Sorted ids of the canonical initial binomials of all nonzero
    relations; raises RuntimeError, naming the sequence, for a valuation row
    that is not 0/1, for rows that fail the rank certificate and for a
    relation whose initial form is not a binomial."""
    try:
        return initial_ideal(weighting_matrix(seq).rows, seq.n)[0]
    except ValueError as exc:
        raise RuntimeError(f"sequence {seq.serialize()}: {exc}") from exc


@lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple[int, ...], ...]:
    """moves[i - 1][k] is the id of the image under s_i of binomial k of
    Gr(3,n); raises KeyError for an image outside the table."""
    binomials = relation_table(n).binomials
    ids = {b: k for k, b in enumerate(binomials)}
    moves = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        image = {
            t: (-1, t) if i in t and i + 1 in t else (1, tuple(sorted(swap.get(x, x) for x in t)))
            for t in all_triples(n)
        }

        def term(sign, monomial):
            (sign_a, a), (sign_b, b) = image[monomial[0]], image[monomial[1]]
            return sign * sign_a * sign_b, (min(a, b), max(a, b))

        moves.append(tuple(
            ids[canonical_binomial(*term(1, lead), *term(sign, trail))]
            for lead, trail, sign in binomials
        ))
    return tuple(moves)


def apply_transposition(i: int, fp: Fingerprint, n: int) -> Fingerprint:
    """Image of a fingerprint of Gr(3,n) under the signed transposition (i, i+1)."""
    if not 1 <= i < n:
        raise ValueError(f"Gr(3,{n}) has transpositions s_1..s_{n - 1}, got s_{i}")
    return tuple(sorted(map(_moves(n)[i - 1].__getitem__, fp)))


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The id permutations of s_1 and of the n-cycle c = s_{n-1} ... s_1,
    which applies s_1 first, of Gr(3,n)."""
    moves = _moves(n)
    cycle = tuple(range(len(moves[0])))
    for move in moves:
        cycle = tuple(map(move.__getitem__, cycle))
    return moves[0], cycle


def _few(*ids: int):
    """``itemgetter(*ids)`` for fewer than two ids, as a list: itemgetter
    takes at least one and returns a bare item for one."""
    return lambda table: [table[k] for k in ids]


def orbit_closure(fp: Fingerprint, n: int) -> set[Fingerprint]:
    """Full orbit of a fingerprint under the group generated by s_1..s_{n-1},
    walked over s_1 and the n-cycle (module docstring); a member's image
    under each is one gather of its ids and a sort."""
    generators = _generators(n)
    # every member has as many ids as fp: the action permutes the ids
    gather = itemgetter if len(fp) > 1 else _few
    seen = {fp}
    frontier = [fp]
    while frontier:
        fresh = []
        for current in frontier:
            images = gather(*current)
            for move in generators:
                image = tuple(sorted(images(move)))
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return seen


# Each Gr(3,6) class: the label whose ideal represents it, and the
# isomorphism class of its maximal tropical cone.
GR36_CLASSES = {
    "O1": ("(1,2;3,4)", "EEFF1"),
    "O2": ("(1,2;2,1)", "EFFG"),
    "O3": ("(1,2;1,2)", "EEFF2"),
    "O4": ("(1,2;1,3)", "EEFG"),
}


@lru_cache(maxsize=1)
def _class_seeds() -> dict[Fingerprint, tuple[str, str]]:
    """The ideal of each class representative, with its class and
    isomorphism class."""
    return {
        fingerprint(representative_sequence(parse_label(label), 6)): (name, iso)
        for name, (label, iso) in GR36_CLASSES.items()
    }


def _gr36_class(closure: set[Fingerprint], labels: tuple[Label, ...]) -> tuple[str, str]:
    """The class and isomorphism class of the Gr(3,6) orbit ``closure``:
    those of the class representative it holds."""
    for seed, named in _class_seeds().items():
        if seed in closure:
            return named
    raise RuntimeError(
        f"the Gr(3,6) orbit of labels [{' '.join(map(format_label, labels))}] and "
        f"ambient size {len(closure)} holds no representative of a class O1..O4"
    )


class OrbitReport(NamedTuple):
    orbit_id: int
    members: tuple[Fingerprint, ...]
    member_ids: tuple[int, ...]  # each member's position among the input's keys
    labels: tuple[Label, ...]
    ambient_size: int
    name: str  # the Gr(3,6) class O1..O4; "" for other n
    isomorphism_class: str  # its cone's class, e.g. EEFG; "" for other n

    @property
    def intersection_size(self) -> int:
        return len(self.members)

    @property
    def escaped_count(self) -> int:
        return self.ambient_size - len(self.members)


def compute_orbits(
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]], n: int
) -> list[OrbitReport]:
    """Partition the fingerprints, the keys of ``labels_by_fingerprint``,
    into orbits of the signed action, and name the Gr(3,6) classes.

    Two inputs are equivalent when some group element maps one to the other,
    even if intermediate images leave the input set; ``escaped_count``
    records how many images do.  Orbits are ordered by (intersection size,
    smallest member) and numbered from 1.  ``member_ids`` number the keys in
    their order, which is the id order of fingerprints.json when the keys
    are sorted.
    """
    ids = {fp: i for i, fp in enumerate(labels_by_fingerprint)}
    input_set = set(labels_by_fingerprint)
    raw = []
    unassigned = set(input_set)
    while unassigned:
        closure = orbit_closure(min(unassigned), n)
        members = tuple(sorted(input_set & closure))
        labels = tuple(sorted(lab for m in members for lab in labels_by_fingerprint[m]))
        named = _gr36_class(closure, labels) if n == 6 else ("", "")
        raw.append((members, labels, len(closure), named))
        unassigned -= set(members)
    raw.sort(key=lambda item: (len(item[0]), item[0][0]))
    return [
        OrbitReport(
            orbit_id=orbit_id,
            members=members,
            member_ids=tuple(ids[m] for m in members),
            labels=labels,
            ambient_size=ambient,
            name=name,
            isomorphism_class=iso,
        )
        for orbit_id, (members, labels, ambient, (name, iso)) in enumerate(raw, start=1)
    ]


def labels_by_ideal(fingerprints: dict[Label, Fingerprint]) -> dict[Fingerprint, tuple[Label, ...]]:
    """Each distinct ideal of a label -> ideal map, keys sorted, which is the
    id order of fingerprints.json, with its labels, sorted."""
    labels: dict[Fingerprint, list[Label]] = {}
    for lab in sorted(fingerprints):
        labels.setdefault(fingerprints[lab], []).append(lab)
    return {fp: tuple(labels[fp]) for fp in sorted(labels)}


def fingerprint_labels(n: int) -> dict[Fingerprint, tuple[Label, ...]]:
    """``labels_by_ideal`` of every label of Gr(3,n), under the ideal of its
    representative sequence, which is the ideal of every sequence of the
    label (the theorem of the ``pipeline`` docstring).

    One kernel runs per class of labels under the permutations of 1..4:
    on the first label of the class in ``all_labels`` order.  The walk over
    s_1, s_2, s_3 then relabels the pairs of each member and moves its ideal
    by the same s_i, which gives the image label's ideal (Lemma C of the
    ``pipeline`` docstring)."""
    fingerprints: dict[Label, Fingerprint] = {}
    for first in all_labels(n):
        if first in fingerprints:
            continue
        fingerprints[first] = fingerprint(representative_sequence(first, n))
        frontier = [first]
        while frontier:
            lab = frontier.pop()
            for i in (1, 2, 3):
                swap = {i: i + 1, i + 1: i}
                image = tuple((swap.get(a, a), swap.get(b, b)) for a, b in lab)
                if image not in fingerprints:
                    fingerprints[image] = apply_transposition(i, fingerprints[lab], n)
                    frontier.append(image)
    return labels_by_ideal(fingerprints)


@lru_cache(maxsize=1)
def classify_gr36() -> dict[Label, OrbitReport]:
    """The orbit of each of the 240 labels of Gr(3,6), through its initial ideal."""
    return {
        lab: report
        for report in compute_orbits(fingerprint_labels(6), 6)
        for lab in report.labels
    }
