"""Flatness and toricity evidence for binomial initial ideals.

Two necessary conditions are checked for each fingerprint: the dimensions of
the degree-2 and degree-3 graded pieces of the generated ideal must match
those of the full quadratic relation ideal (computed as exact Macaulay-matrix
ranks), and the lattice spanned by the exponent differences of the
generators must be saturated (all Smith invariant factors equal to 1), which
is necessary for the corresponding lattice ideal to be prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Binomial, Fingerprint
from .exactlinalg import exact_rank, smith_invariant_factors
from .plucker import PluckerRelation, all_triples

Form = dict  # degree-2 monomial (pair of variable triples) -> int coefficient


class Unsupported(ValueError):
    """Graded ranks are only computed in degrees 2 and 3."""


def relation_form(relation: PluckerRelation) -> Form:
    return {t.monomial: t.sign for t in relation.terms}


def binomial_form(gen: Binomial) -> Form:
    lead, trail, sign = gen
    return {lead: 1, trail: sign}


def graded_rank(generators, degree: int, n: int) -> int:
    """Exact rank of the degree-d Macaulay matrix of degree-2 generators.

    Rows are generator * (degree-(d-2) monomial) coefficient vectors against
    degree-d monomial columns; the rank is the dimension of the degree-d
    graded piece of the generated ideal.
    """
    if degree == 2:
        rows = (dict(form) for form in generators)
    elif degree == 3:
        variables = all_triples(n)
        rows = (
            {tuple(sorted((*mono, v))): c for mono, c in form.items()}
            for form in generators
            for v in variables
        )
    else:
        raise Unsupported(f"degree must be 2 or 3, got {degree}")
    return exact_rank(rows)


@dataclass(frozen=True)
class LatticeCertificate:
    invariant_factors: tuple[int, ...]
    non_pure_generators: tuple[Binomial, ...]

    @property
    def saturated(self) -> bool:
        return all(f == 1 for f in self.invariant_factors)

    @property
    def pure_difference(self) -> bool:
        return not self.non_pure_generators


def _sign_normalizable(rows, signs):
    """Offending rows of the GF(2) system asking for a +-1 variable rescaling
    that turns every generator into a pure difference.

    Generator p^a + s p^b becomes pure under p_i -> (-1)^{x_i} p_i iff
    (a - b).x = (1 - s)/2 mod 2; the system is consistent exactly when the
    coefficient signs form a character of the difference lattice.
    """
    pivots: dict[int, tuple[int, int]] = {}
    offenders = []
    for index, (row, sign) in enumerate(zip(rows, signs)):
        vec = 0
        for j, v in enumerate(row):
            if v % 2:
                vec |= 1 << j
        rhs = 1 if sign == 1 else 0
        for j, (pvec, prhs) in pivots.items():
            if vec >> j & 1:
                vec ^= pvec
                rhs ^= prhs
        if vec:
            pivots[vec.bit_length() - 1] = (vec, rhs)
        elif rhs:
            offenders.append(index)
    return offenders


def lattice_saturation(fp: Fingerprint) -> LatticeCertificate:
    """Smith-form saturation certificate for a fingerprint's lattice.

    Every generator contributes its exponent-difference row.  A generator
    whose trailing sign stays + under the best global variable rescaling is
    not expressible as a lattice binomial; it is reported, not fatal.
    """
    columns = sorted({v for lead, trail, _ in fp for v in (*lead, *trail)})
    position = {v: i for i, v in enumerate(columns)}
    basis = []
    for lead, trail, _ in fp:
        row = [0] * len(columns)
        for v in lead:
            row[position[v]] += 1
        for v in trail:
            row[position[v]] -= 1
        basis.append(tuple(row))
    offenders = _sign_normalizable(basis, [gen[2] for gen in fp])
    non_pure = tuple(fp[i] for i in offenders)
    factors = smith_invariant_factors([list(r) for r in basis]) if basis else []
    return LatticeCertificate(tuple(factors), non_pure)
