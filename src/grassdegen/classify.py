"""Canonical fingerprints of binomial initial ideals and their orbits under
the signed symmetric-group action on Pluecker variables; at n = 6 each
orbit is named by its Gr(3,6) class, O1..O4.

A fingerprint is the sorted set of sign-normalized initial binomials of all
nonzero relations: each binomial is stored as (lead, trail, sign) where lead
is the order-smallest of its two degree-2 monomials, the lead coefficient is
normalized to +1 and sign is the trailing coefficient.  The simple
transposition s_i = (i, i+1) sends p_T to p_{s_i(T)} when T contains at most
one of i, i+1 and to -p_T when it contains both; signs multiply over the two
factors of each monomial.

The action runs on packed ints.  With the V triples of Gr(3,n) indexed
0..V-1 in lex order, a monomial (A, B), A <= B, is the int a*V + b, and a
binomial is ((lead*V^2 + trail) << 1) | (sign > 0).  Since b < V and
trail < V^2, comparing two packed ints compares lead first, then trail,
then the sign (-1 before +1): int order is the tuple order of
(lead, trail, sign), so a sorted tuple of packed binomials decodes to a
sorted fingerprint.  For each s_i one table, built once per n on first
use, maps a monomial id to (image id << 1) | (1 if the sign flips).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .initial_forms import (
    Binomial,
    Fingerprint,
    Monomial,
    binomial_ids,
    pack_rows,
    relation_table,
    select,
)
from .plucker import Triple, all_triples
from .sequences import (
    IteratedSequence,
    Label,
    all_labels,
    format_label,
    representative_sequence,
)
from .valuation import weighting_matrix


def fingerprint(seq: IteratedSequence) -> Fingerprint:
    """Sorted canonical initial binomials of all nonzero relations; raises
    ValueError for a valuation row that is not 0/1 and for a relation whose
    initial form is not a binomial."""
    table = relation_table(seq.n)
    packed = pack_rows(weighting_matrix(seq).rows, 3 * (seq.n - 3))
    ids = binomial_ids(select(packed, table), table)
    if None in ids:
        raise ValueError(f"non-binomial initial form for {seq.serialize()}")
    return tuple(map(table.binomials.__getitem__, sorted(ids)))


class _Action(NamedTuple):
    n: int
    size: int  # V, the number of triples
    position: dict[Triple, int]
    monomials: tuple[Monomial, ...]  # by monomial id a*V + b
    tables: tuple[tuple[int, ...], ...]  # tables[i] for s_i; tables[0] is empty


@lru_cache(maxsize=None)
def _action(n: int) -> _Action:
    """Positions of the triples, the shared monomials and the s_i tables of
    Gr(3,n), built on first use."""
    triples = all_triples(n)
    size = len(triples)
    position = {t: k for k, t in enumerate(triples)}
    tables: list[tuple[int, ...]] = [()]
    for i in range(1, n):
        images = []
        for t in triples:
            if i in t and i + 1 in t:
                images.append((position[t], 1))
            else:
                swapped = tuple(sorted(i + 1 if x == i else i if x == i + 1 else x for x in t))
                images.append((position[swapped], 0))
        table = []
        for image_a, negative_a in images:
            for image_b, negative_b in images:
                low, high = sorted((image_a, image_b))
                table.append(((low * size + high) << 1) | (negative_a ^ negative_b))
        tables.append(tuple(table))
    monomials = tuple((x, y) for x in triples for y in triples)
    return _Action(n, size, position, monomials, tuple(tables))


def _encode(fp: Fingerprint, action: _Action) -> tuple[int, ...]:
    size, position = action.size, action.position
    try:
        codes = [
            ((((position[a] * size + position[b]) * size + position[c]) * size + position[d]) << 1)
            | (sign > 0)
            for (a, b), (c, d), sign in fp
        ]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not a triple of Gr(3,{action.n})") from None
    return tuple(sorted(codes))


def _decode_binomial(code: int, action: _Action) -> Binomial:
    lead, trail = divmod(code >> 1, action.size * action.size)
    return (action.monomials[lead], action.monomials[trail], 1 if code & 1 else -1)


def _image(table: tuple[int, ...], code: int, square: int) -> int:
    """Packed image of one packed binomial under the s_i of ``table``."""
    lead, trail = divmod(code >> 1, square)
    a, b = table[lead], table[trail]
    positive = (a ^ b ^ code) & 1
    a >>= 1
    b >>= 1
    return ((a * square + b if a < b else b * square + a) << 1) | positive


def apply_transposition(i: int, fp: Fingerprint, n: int) -> Fingerprint:
    """Image of a fingerprint of Gr(3,n) under the signed transposition (i, i+1)."""
    if not 1 <= i < n:
        raise ValueError(f"Gr(3,{n}) has transpositions s_1..s_{n - 1}, got s_{i}")
    action = _action(n)
    square = action.size * action.size
    image = sorted(_image(action.tables[i], code, square) for code in _encode(fp, action))
    return tuple(_decode_binomial(code, action) for code in image)


def orbit_closure(fp: Fingerprint, n: int) -> set[Fingerprint]:
    """Full orbit of a fingerprint under the group generated by s_1..s_{n-1}.

    The binomials of all members are the orbit of the seed's binomials, a
    few hundred at n=7, so each s_i is first tabulated on them; a member's
    image is then one lookup per binomial and a sort.
    """
    action = _action(n)
    square = action.size * action.size
    seed = _encode(fp, action)
    moves: list[dict[int, int]] = [{} for _ in range(1, n)]
    binomials = set(seed)
    frontier = list(seed)
    while frontier:
        fresh = []
        for code in frontier:
            for table, move in zip(action.tables[1:], moves):
                image = move[code] = _image(table, code, square)
                if image not in binomials:
                    binomials.add(image)
                    fresh.append(image)
        frontier = fresh

    lookups = [move.__getitem__ for move in moves]
    seen = {seed}
    frontier = [seed]
    while frontier:
        fresh = []
        for current in frontier:
            for lookup in lookups:
                image = tuple(sorted(map(lookup, current)))
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    decoded = {code: _decode_binomial(code, action) for code in binomials}
    return {tuple(map(decoded.__getitem__, member)) for member in seen}


@dataclass(frozen=True)
class OrbitReport:
    orbit_id: int
    members: tuple[Fingerprint, ...]
    labels: tuple[Label, ...]
    intersection_size: int
    ambient_size: int
    escaped_count: int
    name: str  # the Gr(3,6) class O1..O4; "" for other n


def compute_orbits(
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]], n: int
) -> list[OrbitReport]:
    """Partition the fingerprints, the keys of ``labels_by_fingerprint``,
    into orbits of the signed action, and name the Gr(3,6) classes.

    Two inputs are equivalent when some group element maps one to the other,
    even if intermediate images leave the input set; ``escaped_count``
    records how many images do.  Orbits are ordered by (intersection size,
    smallest member) and numbered from 1.
    """
    input_set = set(labels_by_fingerprint)
    raw = []
    unassigned = set(input_set)
    while unassigned:
        seed = min(unassigned)
        closure = orbit_closure(seed, n)
        members = tuple(sorted(input_set & closure))
        raw.append((members, len(closure)))
        unassigned -= set(members)
    raw.sort(key=lambda item: (len(item[0]), item[0][0]))
    reports = []
    for orbit_id, (members, ambient) in enumerate(raw, start=1):
        labels = tuple(sorted(lab for m in members for lab in labels_by_fingerprint[m]))
        reports.append(
            OrbitReport(
                orbit_id=orbit_id,
                members=members,
                labels=labels,
                intersection_size=len(members),
                ambient_size=ambient,
                escaped_count=ambient - len(members),
                name=_gr36_class(labels, ambient) if n == 6 else "",
            )
        )
    return reports


def matches_o2(label: Label) -> bool:
    """Pattern (k, s1; s2, k): first top-level index equals last pair's second."""
    return len(label) == 2 and label[0][0] == label[1][1]


def matches_o3(label: Label) -> bool:
    """Pattern (s1, k; s2, k): both pairs share the same second index."""
    return len(label) == 2 and label[0][1] == label[1][1]


# Names of the isomorphism classes of the matching maximal tropical cones,
# attached as annotation only.
ORBIT_CLASS_NAMES = {"O1": "EEFF1", "O2": "EFFG", "O3": "EEFF2", "O4": "EEFG"}

# Full orbit size of the Gr(3,6) classes that no label pattern identifies.
_UNPATTERNED_BY_AMBIENT = {90: "O1", 360: "O4"}


def _gr36_class(labels: tuple[Label, ...], ambient_size: int) -> str:
    """The class O1..O4 of a Gr(3,6) orbit.

    O2 and O3 are identified by their label patterns.  Of the other two,
    O1 has 90 ideals in its full orbit and O4 has 360; the ambient size does
    not depend on which sequences the run included.
    """
    if labels and all(matches_o2(lab) for lab in labels):
        return "O2"
    if labels and all(matches_o3(lab) for lab in labels):
        return "O3"
    name = _UNPATTERNED_BY_AMBIENT.get(ambient_size)
    if name is None:
        raise ValueError(
            f"the Gr(3,6) orbit of labels [{' '.join(map(format_label, labels))}] and "
            f"ambient size {ambient_size} matches no class O1..O4"
        )
    return name


def label_fingerprints(n: int) -> dict[Label, Fingerprint]:
    """Fingerprint of each label of Gr(3,n), from its representative
    sequence; constancy on label fibers is covered by the test suite."""
    return {lab: fingerprint(representative_sequence(lab, n)) for lab in all_labels(n)}


@lru_cache(maxsize=1)
def classify_gr36() -> dict[Label, OrbitReport]:
    """The orbit of each of the 240 labels of Gr(3,6), through its initial ideal."""
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]] = {}
    for lab, fp in label_fingerprints(6).items():
        labels_by_fingerprint[fp] = labels_by_fingerprint.get(fp, ()) + (lab,)
    return {
        lab: report
        for report in compute_orbits(labels_by_fingerprint, 6)
        for lab in report.labels
    }
