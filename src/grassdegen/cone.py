"""Exact feasibility for the open cone {e : e.d > 0 for all d}.

The strict system is solved as a slack-maximization LP, in integers only:

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

The optimum is read over one common denominator D, the lcm of the row
denominators, which divides |det B| for the final basis B: t* = T / D and
e* = E / D.  The point is E over its gcd, the one primitive integer vector
on the ray of e*, which clearing the reduced denominators of e* first
gives too.  As e*.d >= t* > 0, the integer e.d is at least 1.

``tests/test_cone.py`` checks (t*, e*) and the pivot count against the
dense solver in ``tests/oracles.py`` on every n = 5 and n = 6 label, a
sample of n = 7 labels, some of which switch to the smallest-index rule,
and seeded small systems, feasible and not, which ``solve-cone`` accepts,
and that the point is the primitive vector of the dense e*.

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
    """Max-slack LP over the unit box; returns (D, T, E, pivots), the
    optimum t* = T / D and e* = E / D over one common denominator D > 0."""
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

    common = math.lcm(*dens)
    solution = [0] * nvars
    for i, v in enumerate(basis):
        if v < nvars:
            solution[v] = rows[i][rhs] * (common // dens[i])
    e = [solution[i] - solution[dim + i] for i in range(dim)]
    return common, rows[m][rhs] * (common // dens[m]), e, pivots


def strict_interior_point(diffs, dim: int) -> tuple[Vector, int]:
    """``(e, pivots)``: e, the primitive integer vector on the ray of the
    LP optimum e*, has e.d >= 1 for every d, and pivots is the number of
    simplex pivots its LP took; ``((1,) * dim, 0)`` with no constraints.

    Raises Infeasible when the LP optimum is zero.
    """
    diffs = tuple(tuple(d) for d in diffs)
    if any(len(d) != dim for d in diffs):
        raise DimensionError(f"all inequality vectors must have length {dim}")
    if not diffs:
        return (1,) * dim, 0

    _, t_num, e, pivots = _solve_box_lp(diffs, dim)
    if t_num <= 0:  # t is a nonnegative variable, so t* = 0
        raise Infeasible("open cone is empty (slack optimum 0)")
    g = math.gcd(*e)
    point = tuple(x // g for x in e)
    if any(sum(a * b for a, b in zip(point, d)) < 1 for d in diffs):
        raise RuntimeError(f"solver returned unsound projection {point}")
    return point, pivots


def weight_vector(e: Vector, rows) -> Vector:
    """Scalar weights e . row(K), one per row of a weighting matrix."""
    if any(len(row) != len(e) for row in rows):
        raise DimensionError("projection length does not match matrix rows")
    return tuple(sum(a * b for a, b in zip(e, row)) for row in rows)
