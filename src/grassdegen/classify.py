"""Canonical fingerprints of binomial initial ideals and their orbits under
the signed symmetric-group action on Pluecker variables.

A fingerprint is the sorted set of sign-normalized initial binomials of all
nonzero relations: each binomial is stored as (lead, trail, sign) where lead
is the order-smallest of its two degree-2 monomials, the lead coefficient is
normalized to +1 and sign is the trailing coefficient.  The simple
transposition s_i = (i, i+1) sends p_T to p_{s_i(T)} when T contains at most
one of i, i+1 and to -p_T when it contains both; signs multiply over the two
factors of each monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .initial_forms import Monomial, initial_terms, relation_table
from .plucker import Triple
from .sequences import IteratedSequence, Label, all_labels, representative_sequence
from .valuation import weighting_matrix

Binomial = tuple[Monomial, Monomial, int]
Fingerprint = tuple[Binomial, ...]


def canonical_binomial(sign_a: int, mono_a: Monomial, sign_b: int, mono_b: Monomial) -> Binomial:
    """Normalize sign_a*mono_a + sign_b*mono_b to lead coefficient +1."""
    if mono_a <= mono_b:
        return (mono_a, mono_b, sign_a * sign_b)
    return (mono_b, mono_a, sign_a * sign_b)


def binomial_generators(initials) -> Fingerprint:
    """Sorted canonical binomials of the initial forms that have two terms."""
    gens = set()
    for terms in initials:
        if len(terms) == 2:
            (sa, ma), (sb, mb) = terms
            gens.add(canonical_binomial(sa, ma, sb, mb))
    return tuple(sorted(gens))


def fingerprint(seq: IteratedSequence) -> Fingerprint:
    """Sorted canonical initial binomials of all nonzero relations."""
    initials, _ = initial_terms(weighting_matrix(seq).rows, relation_table(seq.n))
    if any(len(terms) != 2 for terms in initials):
        raise ValueError(f"non-binomial initial form for {seq.serialize()}")
    return binomial_generators(initials)


def _map_triple(i: int, t: Triple) -> tuple[Triple, int]:
    if i in t and i + 1 in t:
        return t, -1
    image = tuple(sorted(i + 1 if x == i else i if x == i + 1 else x for x in t))
    return image, 1


def _map_monomial(i: int, m: Monomial) -> tuple[Monomial, int]:
    a, sa = _map_triple(i, m[0])
    b, sb = _map_triple(i, m[1])
    return ((a, b) if a <= b else (b, a)), sa * sb


def apply_transposition(i: int, fp: Fingerprint) -> Fingerprint:
    """Image of a fingerprint under the signed transposition (i, i+1)."""
    if i < 1:
        raise ValueError(f"transpositions are indexed from 1, got {i}")
    out = set()
    for lead, trail, sign in fp:
        lead_image, lead_sign = _map_monomial(i, lead)
        trail_image, trail_sign = _map_monomial(i, trail)
        out.add(canonical_binomial(lead_sign, lead_image, trail_sign * sign, trail_image))
    return tuple(sorted(out))


def orbit_closure(fp: Fingerprint, n: int) -> set[Fingerprint]:
    """Full orbit of a fingerprint under the group generated by s_1..s_{n-1}."""
    seen = {fp}
    frontier = [fp]
    while frontier:
        fresh = []
        for current in frontier:
            for i in range(1, n):
                image = apply_transposition(i, current)
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return seen


@dataclass(frozen=True)
class OrbitReport:
    orbit_id: int
    members: tuple[Fingerprint, ...]
    labels: tuple[Label, ...]
    intersection_size: int
    ambient_size: int
    escaped_count: int


def compute_orbits(
    fingerprints,
    n: int,
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]] | None = None,
) -> list[OrbitReport]:
    """Partition the input fingerprints into orbits of the signed action.

    Two inputs are equivalent when some group element maps one to the other,
    even if intermediate images leave the input set; ``escaped_count``
    records how many images do.  Orbits are ordered by (intersection size,
    smallest member) and numbered from 1.
    """
    input_set = set(fingerprints)
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
        labels = []
        if labels_by_fingerprint is not None:
            for member in members:
                labels.extend(labels_by_fingerprint.get(member, ()))
        reports.append(
            OrbitReport(
                orbit_id=orbit_id,
                members=members,
                labels=tuple(sorted(labels)),
                intersection_size=len(members),
                ambient_size=ambient,
                escaped_count=ambient - len(members),
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


def annotate_gr36_orbits(
    reports: list[OrbitReport],
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]],
) -> dict[int, str]:
    """Map orbit ids to the classes O1..O4 for Gr(3,6).

    O2 and O3 are identified by their label patterns.  Of the other two,
    O1 has 90 ideals in its full orbit and O4 has 360; the ambient size does
    not depend on which sequences the run included.
    """
    names: dict[int, str] = {}
    for report in reports:
        labels = [lab for member in report.members for lab in labels_by_fingerprint.get(member, ())]
        if labels and all(matches_o2(lab) for lab in labels):
            names[report.orbit_id] = "O2"
        elif labels and all(matches_o3(lab) for lab in labels):
            names[report.orbit_id] = "O3"
    for report in reports:
        if report.orbit_id in names:
            continue
        names[report.orbit_id] = _UNPATTERNED_BY_AMBIENT[report.ambient_size]
    return names


@dataclass(frozen=True)
class Gr36Classification:
    reports: tuple[OrbitReport, ...]
    fingerprint_of_label: dict[Label, Fingerprint]
    orbit_of_fingerprint: dict[Fingerprint, int]
    orbit_names: dict[int, str]


def label_fingerprints(n: int) -> dict[Label, Fingerprint]:
    """Fingerprint of each label of Gr(3,n), from its representative
    sequence; constancy on label fibers is covered by the test suite."""
    return {lab: fingerprint(representative_sequence(lab, n)) for lab in all_labels(n)}


@lru_cache(maxsize=1)
def classify_gr36() -> Gr36Classification:
    """Orbit classification of the 240 initial ideals of Gr(3,6)."""
    fingerprint_of_label = label_fingerprints(6)
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]] = {}
    for lab, fp in fingerprint_of_label.items():
        labels_by_fingerprint[fp] = labels_by_fingerprint.get(fp, ()) + (lab,)
    reports = compute_orbits(labels_by_fingerprint, 6, labels_by_fingerprint)
    orbit_of_fingerprint = {
        member: report.orbit_id for report in reports for member in report.members
    }
    names = annotate_gr36_orbits(reports, labels_by_fingerprint)
    return Gr36Classification(
        tuple(reports), fingerprint_of_label, orbit_of_fingerprint, names
    )
