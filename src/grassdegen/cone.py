"""Exact feasibility for the open cone {e : e.d > 0 for all d}.

The strict system is solved as a slack-maximization LP over the rationals:

    maximize t   subject to   e.d >= t for all d,   -1 <= e_i <= 1,

with e split into nonnegative parts.  The open cone is closed under positive
scaling, so it meets the unit box exactly when it is nonempty: one LP
decides it.  A positive optimum is scaled to an integer certificate with
e.d >= 1 everywhere; an optimum of zero certifies that the open cone is
empty.

The simplex tableau is exact and sparse.  Each row is a ``{column: int}``
dict of its nonzero entries over its own positive denominator, and is
divided by the gcd of its entries and denominator after each update.  A
pivot on entry p of row r leaves row r's integers as they are and gives it
denominator p; a row with an entry f in the pivot column becomes
(row * p - f * pivot row) over its denominator times p; a row with a zero
there is not touched.  At n = 7 about a tenth of the tableau is nonzero,
and an LP takes about half the time of a dense tableau.

The pivots are those of a dense tableau with one common denominator,
because every decision compares rationals that a row's own denominator
does not change:

* Dantzig pricing takes the most negative objective entry (the smallest
  column on a tie), and the smallest-index rule takes the first negative
  one: both compare entries of one row, whose denominator is positive.
* The ratio test compares rhs_i / coeff_i across rows, in which row i's
  denominator cancels, and breaks ties by the smaller basic variable.
* The stall count compares the objective value as a Fraction.

``tests/test_cone.py`` checks (t*, e*) and the pivot count against the
dense solver in ``tests/oracles.py`` on every n = 5 and n = 6 label and a
sample of n = 7 labels, some of which switch to the smallest-index rule.

The sweep needs no LP to show that a cone is nonempty: the ``initial_forms``
docstring shows that e_i = -3^(dim-1-i) gives e.d >= 1 for every d of its
inequality sets.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .valuation import DimensionError, Vector

# Dantzig pricing is used while the objective moves; after this many pivots
# without improvement the rule switches to smallest-index (Bland), which
# cannot cycle.
_STALL_LIMIT = 24


class Infeasible(Exception):
    """The open cone has no interior point."""


def _eliminate(row: dict[int, int], den: int, pivot_row: dict[int, int], c: int, p: int):
    """Row minus (row[c] / p) times the pivot row, over den * p, reduced by
    the gcd of its entries and denominator."""
    f = row[c]
    new = {j: a * p for j, a in row.items()} if p != 1 else dict(row)
    for j, b in pivot_row.items():
        a = new.get(j, 0) - f * b
        if a:
            new[j] = a
        else:  # a cancellation, so j was in the row
            del new[j]
    den *= p
    g = math.gcd(den, *new.values())
    if g > 1:
        return {j: a // g for j, a in new.items()}, den // g
    return new, den


def _solve_box_lp(diffs: tuple[Vector, ...], dim: int):
    """Max-slack LP over the unit box; returns (t*, e*, pivots), t* and e*
    as Fractions."""
    num_d = len(diffs)
    nvars = 2 * dim + 1
    m = num_d + 2 * dim
    t_col, rhs = 2 * dim, nvars + m

    rows: list[dict[int, int]] = []
    for k, d in enumerate(diffs):
        row = {t_col: 1, nvars + k: 1}
        for i, di in enumerate(d):
            if di:
                row[i], row[dim + i] = -di, di
        rows.append(row)
    for i in range(2 * dim):
        rows.append({i: 1, nvars + num_d + i: 1, rhs: 1})
    rows.append({t_col: -1})  # the objective
    dens = [1] * (m + 1)

    basis = [nvars + i for i in range(m)]
    pivots = stall = 0
    last_value = Fraction(0)
    while True:
        obj = rows[m]
        priced = [j for j, a in obj.items() if a < 0 and j != rhs]
        if not priced:
            break
        if stall < _STALL_LIMIT:
            c = min(priced, key=lambda j: (obj[j], j))
        else:
            c = min(priced)
        r = -1
        best_num = best_den = 0
        for i in range(m):
            coeff = rows[i].get(c, 0)
            if coeff <= 0:
                continue
            num = rows[i].get(rhs, 0)
            if r == -1 or num * best_den < best_num * coeff or (
                num * best_den == best_num * coeff and basis[i] < basis[r]
            ):
                r, best_num, best_den = i, num, coeff
        if r == -1:
            raise RuntimeError("boxed LP cannot be unbounded")
        pivot_row, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r and c in row:
                rows[i], dens[i] = _eliminate(row, dens[i], pivot_row, c, p)
        dens[r] = p
        basis[r] = c
        pivots += 1
        value = Fraction(rows[m].get(rhs, 0), dens[m])
        stall = stall + 1 if value == last_value else 0
        last_value = value

    t_value = Fraction(rows[m].get(rhs, 0), dens[m])
    solution = [Fraction(0)] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            solution[var] = Fraction(rows[i].get(rhs, 0), dens[i])
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
