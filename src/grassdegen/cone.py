"""Exact feasibility for the open cone {e : e.d > 0 for all d}.

The strict system is solved as a slack-maximization LP over the rationals:

    maximize t   subject to   e.d >= t for all d,   -1 <= e_i <= 1,

with e split into nonnegative parts.  The open cone is closed under positive
scaling, so it meets the unit box exactly when it is nonempty: one LP
decides it.  A positive optimum is scaled to an integer certificate with
e.d >= 1 everywhere; an optimum of zero certifies that the open cone is
empty.

The simplex tableau is exact and condensed: it stores only the 2 dim + 1
nonbasic columns, because a basic column is a unit column.  Each row is one
list of integers, those columns and then the rhs, over the row's own
positive denominator.  ``var[j]`` is the variable of column j and
``basis[i]`` the basic variable of row i.  A pivot on the entry p of row r
and column c exchanges var[c] and basis[r]; p > 0, by the ratio test, so
every denominator stays positive.  Column c then holds the leaving
variable, whose dense column after the pivot is 1 / P in row r and -F / P
in row i, for the values P = p / d_r and F = f / d_i of the entries in
column c:

* row r keeps its integers and gets denominator p, with d_r in column c;
* a row i with an entry f in column c becomes (row * p - f * pivot row)
  over d_i * p, with -f d_r in column c, and is divided by the gcd of its
  entries and denominator; a row with a zero there is not touched.

When p = 1, which is most pivots, only the pivot row's nonzero columns
change, and a row over denominator 1 needs no gcd.  At n = 7 a pivot row
has about 9 nonzeros in 26 columns.

The pivots are those of a dense tableau with one common denominator and a
column per variable, because every decision compares rationals that a
row's own denominator does not change, over the same candidates:

* A dense basic column is 0 in the objective row, so pricing looks only
  at the nonbasic columns.  Dantzig pricing takes the most negative entry,
  and the smallest-index rule the negative entry of the smallest variable:
  both compare entries of one row, whose denominator is positive, and a
  tie goes to the smaller variable var[j], the dense column's index.
* The ratio test compares rhs_i / coeff_i across rows by cross-multiplying,
  in which row i's denominator cancels, and breaks ties by the smaller
  basic variable.
* The stall count compares the objective value with the last one by
  cross-multiplying numerators and denominators.

``tests/test_cone.py`` checks (t*, e*) and the pivot count against the
dense solver in ``tests/oracles.py`` on every n = 5 and n = 6 label, a
sample of n = 7 labels, some of which switch to the smallest-index rule,
and seeded small systems, feasible and not, which ``solve-cone`` accepts.

The sweep needs no LP to show that a cone is nonempty: the ``initial_forms``
docstring shows that e_i = -5^(dim-1-i) gives e.d >= 1 for every d of its
inequality sets, from the base-5 packing of the rows.
"""

from __future__ import annotations

import math

from .valuation import DimensionError, Vector

# Dantzig pricing is used while the objective moves; after this many pivots
# without improvement the rule switches to smallest-index (Bland), which
# cannot cycle.
_STALL_LIMIT = 24


class Infeasible(Exception):
    """The open cone has no interior point."""


def _solve_box_lp(diffs: tuple[Vector, ...], dim: int):
    """Max-slack LP over the unit box; returns (t*, e*, pivots), t* and e*
    as Fractions."""
    from fractions import Fraction  # imported here: only an LP loads it

    nvars = 2 * dim + 1
    m = len(diffs) + 2 * dim
    rhs = nvars  # the last column

    # one list per row: the nonbasic columns, then the rhs
    rows = [[-x for x in d] + list(d) + [1, 0] for d in diffs]
    for i in range(2 * dim):
        row = [0] * (nvars + 1)
        row[i] = row[rhs] = 1
        rows.append(row)
    rows.append([0] * (2 * dim) + [-1, 0])  # the objective, max t
    dens = [1] * (m + 1)
    var = list(range(nvars))  # the variable of each column
    basis = list(range(nvars, nvars + m))  # the slacks

    pivots = stall = 0
    last_num, last_den = 0, 1
    while True:
        obj = rows[m]
        priced = [j for j in range(nvars) if obj[j] < 0]
        if not priced:
            break
        if stall < _STALL_LIMIT:
            c = min(priced, key=lambda j: (obj[j], var[j]))
        else:
            c = min(priced, key=var.__getitem__)
        column = [row[c] for row in rows]
        r = -1
        best_num = best_den = 0
        for i in range(m):
            coeff = column[i]
            if coeff <= 0:
                continue
            num = rows[i][rhs]
            if r == -1 or num * best_den < best_num * coeff or (
                num * best_den == best_num * coeff and basis[i] < basis[r]
            ):
                r, best_num, best_den = i, num, coeff
        if r == -1:
            raise RuntimeError("boxed LP cannot be unbounded")

        pivot_row, p, pivot_den = rows[r], column[r], dens[r]
        if p == 1:
            support = [j for j, b in enumerate(pivot_row) if b and j != c]
        for i, f in enumerate(column):
            if not f or i == r:
                continue
            row, den = rows[i], dens[i]
            if p == 1:
                for j in support:
                    row[j] -= f * pivot_row[j]
            else:
                row = [a * p - f * b for a, b in zip(row, pivot_row)]
                den *= p
            row[c] = -f * pivot_den
            if den != 1:
                g = math.gcd(den, *row)
                if g > 1:
                    row = [a // g for a in row]
                    den //= g
            rows[i], dens[i] = row, den
        pivot_row[c] = pivot_den
        dens[r] = p
        var[c], basis[r] = basis[r], var[c]
        pivots += 1

        num, den = rows[m][rhs], dens[m]
        stall = stall + 1 if num * last_den == last_num * den else 0
        last_num, last_den = num, den

    t_value = Fraction(rows[m][rhs], dens[m])
    solution = [Fraction(0)] * nvars
    for i, v in enumerate(basis):
        if v < nvars:
            solution[v] = Fraction(rows[i][rhs], dens[i])
    e = [solution[i] - solution[dim + i] for i in range(dim)]
    return t_value, e, pivots


class InteriorPoint(tuple):
    """An integer point of the open cone, a plain tuple of its coordinates
    that also carries ``pivots``, the number of simplex pivots its LP took
    (0 when no LP ran)."""

    pivots: int = 0


def strict_interior_point(diffs, dim: int) -> InteriorPoint:
    """Integer e with e.d >= 1 for every d; all-ones when no constraints.

    Raises Infeasible when the LP optimum is zero.
    """
    diffs = tuple(tuple(d) for d in diffs)
    if any(len(d) != dim for d in diffs):
        raise DimensionError(f"all inequality vectors must have length {dim}")
    if not diffs:
        return InteriorPoint((1,) * dim)

    t_value, e, pivots = _solve_box_lp(diffs, dim)
    if t_value <= 0:
        raise Infeasible(f"open cone is empty (slack optimum {t_value})")
    scale = math.lcm(*(x.denominator for x in e))
    cleared = [int(x * scale) for x in e]
    g = math.gcd(*cleared)
    if g > 1:
        cleared = [x // g for x in cleared]
    point = InteriorPoint(cleared)
    if any(sum(a * b for a, b in zip(point, d)) < 1 for d in diffs):
        raise RuntimeError(f"solver returned unsound projection {point}")
    point.pivots = pivots
    return point


def weight_vector(e: Vector, rows) -> Vector:
    """Scalar weights e . row(K), one per row of a weighting matrix."""
    if any(len(row) != len(e) for row in rows):
        raise DimensionError("projection length does not match matrix rows")
    return tuple(sum(a * b for a, b in zip(e, row)) for row in rows)
