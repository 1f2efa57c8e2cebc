"""Exact feasibility for the open cone {e : e.d > 0 for all d}.

The strict system is solved as a slack-maximization LP, in integers only:

    maximize t   subject to   e.d >= t for all d,   -1 <= e_i <= 1,

with e split into nonnegative parts.  The open cone is closed under positive
scaling, so it meets the unit box exactly when it is nonempty: one LP
decides it.  A positive optimum is scaled to an integer certificate with
e.d >= 1 everywhere; an optimum of zero certifies that the open cone is
empty.

The simplex tableau is exact and fraction-free (Edmonds; Bareiss): every
entry is an integer numerator over one common denominator D > 0, which
starts at 1.  It is condensed: it stores only the 2 dim + 1 nonbasic
columns, because a basic column is D times a unit column.  Each row is one
list of integers, those columns and then the rhs.  ``var[j]`` is the
variable of column j and ``basis[i]`` the basic variable of row i.  A pivot
on the entry p of row r and column c exchanges var[c] and basis[r]; p > 0,
by the ratio test, so D stays positive.  With b the pivot row's entry in
the same column:

* row r is kept, with the old D in column c;
* a row i with an entry f != 0 in column c becomes (a p - f b) // D, with
  -f in column c;
* a row with a zero in column c becomes a p // D;
* then D = p.

Column c now holds the leaving variable, whose dense column D e_r goes to
exactly these entries.  By Sylvester's identity each new entry is, up to
sign, a minor of the starting tableau, so every division is exact.  When
p = D, which is most pivots, a row with f != 0 changes only on the pivot
row's nonzero columns, by f b // D, and a row with f = 0 is not touched.
At n = 7 a pivot row has about 9 nonzeros in 26 columns.

Every numerator is the one of the dense tableau in ``tests/oracles.py``,
which keeps a column per variable over the same D, so every pricing, ratio
and stall decision is its comparison over the same candidates: a basic
column is 0 in the objective row, and ties go to the smaller variable,
var[j] being the dense column's index.  The optimum is t* = T / D and
e* = E / D.  The point is E over its gcd, the one primitive integer vector
on the ray of e*.  As e*.d >= t* > 0, the integer e.d is at least 1.

``tests/test_cone.py`` checks (t*, e*) and the pivot count against the
dense solver in ``tests/oracles.py`` on every n = 5 and n = 6 label, a
sample of n = 7 labels, some of which switch to the smallest-index rule,
and seeded small systems, feasible and not, which ``solve-cone`` accepts,
and that the point is the primitive vector of the dense e*.  As the dense
solver divides as this one does, it also checks t* against vertex
enumeration over Fraction, which shares no update with either.

The sweep needs no LP to show that a cone is nonempty: the ``initial_forms``
docstring shows that e_i = -5^(dim-1-i) gives e.d >= 1 for every d of its
inequality sets, from the base-5 packing of the rows.
"""

from __future__ import annotations

import math

from .valuation import Vector

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
    var = list(range(nvars))  # the variable of each column
    basis = list(range(nvars, nvars + m))  # the slacks

    D, pivots, stall = 1, 0, 0
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

        pivot_row, p = rows[r], column[r]
        if p == D:
            support = [j for j, b in enumerate(pivot_row) if b and j != c]
            for i, f in enumerate(column):
                if f and i != r:
                    row = rows[i]
                    for j in support:
                        row[j] -= f * pivot_row[j] // D
                    row[c] = -f
        else:
            for i, f in enumerate(column):
                if i == r:
                    continue
                if f:
                    row = [(a * p - f * b) // D for a, b in zip(rows[i], pivot_row)]
                    row[c] = -f
                    rows[i] = row
                else:
                    rows[i] = [a * p // D for a in rows[i]]
        pivot_row[c] = D
        D = p
        var[c], basis[r] = basis[r], var[c]
        pivots += 1

        num = rows[m][rhs]
        stall = stall + 1 if num * last_den == last_num * D else 0
        last_num, last_den = num, D

    solution = [0] * nvars
    for i, v in enumerate(basis):
        if v < nvars:
            solution[v] = rows[i][rhs]
    e = [solution[i] - solution[dim + i] for i in range(dim)]
    return D, rows[m][rhs], e, pivots


def strict_interior_point(diffs, dim: int) -> tuple[Vector, int]:
    """``(e, pivots)``: e, the primitive integer vector on the ray of the
    LP optimum e*, has e.d >= 1 for every d, and pivots is the number of
    simplex pivots its LP took; ``((1,) * dim, 0)`` with no constraints.

    Raises Infeasible when the LP optimum is zero.
    """
    diffs = tuple(tuple(d) for d in diffs)
    if any(len(d) != dim for d in diffs):
        raise ValueError(f"all inequality vectors must have length {dim}")
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
        raise ValueError("projection length does not match matrix rows")
    return tuple(sum(a * b for a, b in zip(e, row)) for row in rows)
