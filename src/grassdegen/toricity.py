"""Flatness and toricity evidence for binomial initial ideals.

Two necessary conditions are checked for each fingerprint: the dimensions of
the degree-2 and degree-3 graded pieces of the generated ideal must match
those of the full quadratic relation ideal (computed as exact Macaulay-matrix
ranks), and the lattice spanned by the exponent differences of the
generators must be saturated (all Smith invariant factors equal to 1), which
is necessary for the corresponding lattice ideal to be prime.  A third
check asks whether a variable rescaling p_i -> (-1)^{x_i} p_i turns every
generator into a pure difference m_a - m_b, a lattice binomial.

It maps a generator m_a + s m_b to (-1)^{a.x} (m_a + s (-1)^{(a-b).x} m_b),
a pure difference exactly when (a - b).x = (1 + s)/2 mod 2.  So a rescaling
exists exactly when the GF(2) system A x = r, one row a - b and one entry
(1 + s)/2 per generator, is consistent.  By Rouche-Capelli it is consistent
exactly when rank A = rank [A | r] over GF(2): appending r raises the rank
exactly when r lies outside the column space of A.  ``lattice_saturation``
packs each row of A mod 2 above bit 0, puts its entry of r in bit 0 and
compares the two ``rank_mod2`` values.

The reference ranks, ``plucker_rank``, are computed one block per S_n-orbit
of contents.  Grade S = Q[p_T] by content, deg p_T = sum_{i in T} e_i in
Z^n.  Let Q be the ideal the quadratic relations generate and Q_d its
degree-d piece, spanned by the Macaulay rows relation * monomial.

* Every relation is content-homogeneous: its terms p_{I+j} p_{J-j} all have
  content e_I + e_J.  So every Macaulay row is, and the degree-d matrix is
  block-diagonal over the contents c in Z^n with |c| = 3d.  The rows of
  block c span Q_{d,c}, and rank = sum over c of dim Q_{d,c}.
* The signed column action of sigma in S_n, p_T -> +-p_{sigma(T)} (the
  action of the permutation matrix on the Pluecker vector), is a graded ring
  automorphism phi that maps the span of the relations, I_2, onto itself:
  I_2 is the degree-2 piece of the Pluecker ideal, which the action
  preserves (Sturmfels, Algorithms in Invariant Theory, 1993, ch. 3).  So
  phi(Q_d) = phi(I_2) phi(S_{d-2}) = Q_d.  phi maps S_{d,c} onto
  S_{d,sigma c}, so it maps Q_{d,c} isomorphically onto Q_{d,sigma c}.
* Hence dim Q_{d,c} is constant on the orbit O of c, and the rank is the
  sum over orbits O of |O| times the rank of the block of one member.  The
  sorted vector of c names its orbit and is a member; |O| is the multinomial
  n! / prod_k m_k!, where m_k counts the entries of c equal to k.  A block
  with a row has positive rank, so every member of its orbit has rows too.
* Every content of degree 3 is r + e_T for a relation content r and a
  triple T, and sigma(r + e_T) = sigma(r) + e_{sigma(T)}.  So the orbits of
  degree 3 are the orbits of r + e_T over the sorted relation contents r and
  every triple T.

``tests/oracles.py`` builds the full Macaulay matrix and compares.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import add, sub

from .exactlinalg import exact_rank, rank_mod2, smith_invariant_factors
from .initial_forms import Binomial
from .plucker import Relation, all_relations, all_triples

Form = dict  # degree-2 monomial (pair of variable triples) -> int coefficient


class Unsupported(ValueError):
    """Graded ranks are only computed in degrees 2 and 3."""


def relation_form(relation: Relation) -> Form:
    _, _, terms = relation
    return {(A, B): sign for sign, A, B in terms}


def binomial_form(gen: Binomial) -> Form:
    lead, trail, sign = gen
    return {lead: 1, trail: sign}


def _times(form: Form, variable) -> Form:
    """A degree-2 form times one variable: a degree-3 Macaulay row."""
    return {tuple(sorted((*mono, variable))): c for mono, c in form.items()}


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
        rows = (_times(form, v) for form in generators for v in variables)
    else:
        raise Unsupported(f"degree must be 2 or 3, got {degree}")
    return exact_rank(rows)


def _content(triples, n: int) -> tuple[int, ...]:
    counts = [0] * n
    for triple in triples:
        for i in triple:
            counts[i - 1] += 1
    return tuple(counts)


def _orbit_size(content: tuple[int, ...]) -> int:
    size = math.factorial(len(content))
    for multiplicity in Counter(content).values():
        size //= math.factorial(multiplicity)
    return size


def plucker_rank(degree: int, n: int) -> int:
    """dim of the degree-d piece of the ideal of the quadratic Pluecker
    relations of Gr(3,n), d = 2 or 3: the rank of one Macaulay block per
    S_n-orbit of contents, times the orbit's size (module docstring)."""
    if degree not in (2, 3):
        raise Unsupported(f"degree must be 2 or 3, got {degree}")
    by_content: dict[tuple[int, ...], list[Form]] = {}
    for relation in all_relations(n):
        form = relation_form(relation)
        by_content.setdefault(_content(next(iter(form)), n), []).append(form)
    orbits = {tuple(sorted(r, reverse=True)) for r in by_content}
    if degree == 2:
        return sum(_orbit_size(c) * exact_rank(by_content[c]) for c in orbits)
    units = [(v, _content((v,), n)) for v in all_triples(n)]
    total = 0
    for c in {tuple(sorted(map(add, r, e), reverse=True)) for r in orbits for _, e in units}:
        rows = [
            _times(form, v) for v, e in units for form in by_content.get(tuple(map(sub, c, e)), ())
        ]
        total += _orbit_size(c) * exact_rank(rows)
    return total


@dataclass(frozen=True)
class LatticeCertificate:
    invariant_factors: tuple[int, ...]
    pure_difference: bool

    @property
    def saturated(self) -> bool:
        return all(f == 1 for f in self.invariant_factors)


def lattice_saturation(fp: tuple[Binomial, ...]) -> LatticeCertificate:
    """Smith-form saturation certificate for a fingerprint's lattice.

    Every generator contributes its exponent-difference row.  A set whose
    signs no rescaling turns into pure differences (module docstring) has
    ``pure_difference`` false; it is reported, not fatal.
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
        basis.append(row)
    # column j in bit j + 1, the right-hand side (1 + s)/2 in bit 0
    packed = [sum((v & 1) << (j + 1) for j, v in enumerate(row)) for row in basis]
    augmented = [bits | (sign == 1) for bits, (_, _, sign) in zip(packed, fp)]
    factors = tuple(smith_invariant_factors(basis))
    return LatticeCertificate(factors, rank_mod2(packed) == rank_mod2(augmented))
