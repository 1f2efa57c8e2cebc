"""Flatness and toricity evidence for binomial initial ideals.

Two necessary conditions are checked for each fingerprint, read as its
binomials (lead, trail, sign) (``initial_forms.Binomial``): the dimensions
of the degree-2 and degree-3 graded pieces of the ideal they generate,
exact Macaulay-matrix ranks, must match those of the full quadratic
relation ideal (``plucker_rank``), and the lattice spanned by the exponent
differences of the generators must be saturated (all Smith invariant
factors equal to 1), which is necessary for the corresponding lattice ideal
to be prime.  A third check asks whether a variable rescaling
p_i -> (-1)^{x_i} p_i turns every generator into a pure difference
m_a - m_b, a lattice binomial.

It maps a generator m_a + s m_b to (-1)^{a.x} (m_a + s (-1)^{(a-b).x} m_b),
a pure difference exactly when (a - b).x = (1 + s)/2 mod 2.  So a rescaling
exists exactly when the GF(2) system A x = r, one row a - b and one entry
(1 + s)/2 per generator, is consistent.  By Rouche-Capelli it is consistent
exactly when rank A = rank [A | r] over GF(2): appending r raises the rank
exactly when r lies outside the column space of A.  ``lattice_saturation``
packs each row of A mod 2 above bit 0, puts its entry of r in bit 0 and
compares the two ``rank_mod2`` values.

The reference ranks, ``plucker_rank``, are classical.  The quadratic
relations span the degree-2 piece of the Pluecker ideal I, which they
generate, so the degree-d piece of the ideal they generate is I_d.  The
degree-d piece of the coordinate ring S/I has a basis of standard
monomials, one per semistandard tableau of shape (d,d,d) with entries in
[n] (Hodge; Sturmfels, Algorithms in Invariant Theory, 1993, ch. 3).  So
dim I_d = C(N + d - 1, d) - SSYT(d, n), with N = C(n, 3) variables, and the
hook-content formula counts the tableaux (Stanley, Enumerative
Combinatorics 2, section 7.21).  ``tests/test_toricity.py`` compares the result
with the rank of the full Macaulay matrix, ``oracles.plucker_macaulay_rank``,
and with an enumeration of the tableaux, ``oracles.ssyt_count``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactlinalg import exact_rank, rank_mod2, smith_invariant_factors
from .initial_forms import Binomial
from .plucker import all_triples


class Unsupported(ValueError):
    """Graded ranks are only computed in degrees 2 and 3."""


def graded_rank(binomials, degree: int, n: int) -> int:
    """Exact rank of the degree-d Macaulay matrix of degree-2 binomials
    lead + sign * trail, given as ``initial_forms.Binomial`` tuples.

    Rows are binomial * (degree-(d-2) monomial) coefficient vectors against
    degree-d monomial columns; the rank is the dimension of the degree-d
    graded piece of the generated ideal.  A column is keyed by the int
    sum of 4^pos(v) over its variables v, pos(v) the index of v in
    ``all_triples(n)``: its base-4 digits count each variable.  For d <= 3
    no variable occurs more than 3 times, so no digit carries, distinct
    monomials get distinct keys, and a degree-3 row is a degree-2 row with
    4^pos(v) added to every key.  The degree-2 row is {key(lead): 1,
    key(trail): sign}, and {key: 1 + sign} when lead and trail are one
    monomial, its two factors written in either order.
    """
    if degree not in (2, 3):
        raise Unsupported(f"degree must be 2 or 3, got {degree}")
    power = {v: 4**i for i, v in enumerate(all_triples(n))}
    keys = ((power[a] + power[b], power[c] + power[d], s) for (a, b), (c, d), s in binomials)
    rows = [{x: 1, y: s} if x != y else {x: 1 + s} for x, y, s in keys]
    if degree == 3:
        rows = ({key + p: c for key, c in row.items()} for row in rows for p in power.values())
    return exact_rank(rows)


def _tableaux(d: int, n: int) -> int:
    """Semistandard tableaux of shape (d,d,d) with entries in [n], by the
    hook-content formula: prod (n + j - i) / prod hook(i, j) over the cells.
    The two products are divided once: a running quotient cell by cell
    need not be an integer."""
    cells = [(i, j) for i in range(3) for j in range(d)]
    contents = math.prod(n + j - i for i, j in cells)
    hooks = math.prod((d - j) + (2 - i) for i, j in cells)
    return contents // hooks


def plucker_rank(degree: int, n: int) -> int:
    """dim of the degree-d piece of the ideal of the quadratic Pluecker
    relations of Gr(3,n), d = 2 or 3: the degree-d monomials less the
    standard ones (module docstring)."""
    if degree not in (2, 3):
        raise Unsupported(f"degree must be 2 or 3, got {degree}")
    return math.comb(math.comb(n, 3) + degree - 1, degree) - _tableaux(degree, n)


class LatticeCertificate(NamedTuple):
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
