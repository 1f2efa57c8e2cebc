"""Exact feasibility for the open cone {e : e.d > 0 for all d}.

The strict system is solved as a slack-maximization LP over the rationals:

    maximize t   subject to   e.d >= t for all d,   -1 <= e_i <= 1,

with e split into nonnegative parts.  The open cone is closed under positive
scaling, so it meets the unit box exactly when it is nonempty: one LP
decides it.  The simplex tableau is kept integral by fraction-free pivoting
(every entry is the stored integer divided by one common denominator), so
the optimum is exact.  A positive optimum is scaled to an integer
certificate with e.d >= 1 everywhere; an optimum of zero certifies that the
open cone is empty.

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


def _pivot(tableau: list[list[int]], basis: list[int], r: int, c: int, denom: int) -> int:
    pivot_row = tableau[r]
    p = pivot_row[c]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            tableau[i] = [(a * p - f * b) // denom for a, b in zip(row, pivot_row)]
        elif p != denom:
            tableau[i] = [(a * p) // denom for a in row]
    basis[r] = c
    return p


def _solve_box_lp(diffs: tuple[Vector, ...], dim: int):
    """Max-slack LP over the unit box; returns (t*, e*) as Fractions."""
    num_d = len(diffs)
    nvars = 2 * dim + 1
    m = num_d + 2 * dim
    width = nvars + m + 1
    t_col, rhs = 2 * dim, width - 1

    tableau = []
    for k, d in enumerate(diffs):
        row = [0] * width
        for i, di in enumerate(d):
            row[i] = -di
            row[dim + i] = di
        row[t_col] = 1
        row[nvars + k] = 1
        tableau.append(row)
    for i in range(2 * dim):
        row = [0] * width
        row[i] = 1
        row[nvars + num_d + i] = 1
        row[rhs] = 1
        tableau.append(row)
    objective = [0] * width
    objective[t_col] = -1
    tableau.append(objective)

    basis = [nvars + i for i in range(m)]
    denom = 1
    stall = 0
    last_value = Fraction(0)
    while True:
        obj = tableau[m]
        if stall < _STALL_LIMIT:
            c = min(range(width - 1), key=lambda j: obj[j])
        else:
            c = next((j for j in range(width - 1) if obj[j] < 0), 0)
        if obj[c] >= 0:
            break
        r = -1
        best_num = best_den = 0
        for i in range(m):
            coeff = tableau[i][c]
            if coeff <= 0:
                continue
            num = tableau[i][rhs]
            if r == -1 or num * best_den < best_num * coeff or (
                num * best_den == best_num * coeff and basis[i] < basis[r]
            ):
                r, best_num, best_den = i, num, coeff
        if r == -1:
            raise RuntimeError("boxed LP cannot be unbounded")
        denom = _pivot(tableau, basis, r, c, denom)
        value = Fraction(tableau[m][rhs], denom)
        stall = stall + 1 if value == last_value else 0
        last_value = value

    t_value = Fraction(tableau[m][rhs], denom)
    solution = [Fraction(0)] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            solution[var] = Fraction(tableau[i][rhs], denom)
    e = [solution[i] - solution[dim + i] for i in range(dim)]
    return t_value, e


def strict_interior_point(diffs, dim: int) -> Vector:
    """Integer e with e.d >= 1 for every d; all-ones when no constraints.

    Raises Infeasible when the LP optimum is zero.
    """
    diffs = tuple(tuple(d) for d in diffs)
    if any(len(d) != dim for d in diffs):
        raise DimensionError(f"all inequality vectors must have length {dim}")
    if not diffs:
        return (1,) * dim

    t_value, e = _solve_box_lp(diffs, dim)
    if t_value <= 0:
        raise Infeasible(f"open cone is empty (slack optimum {t_value})")
    scale = math.lcm(*(x.denominator for x in e))
    cleared = [int(x * scale) for x in e]
    g = math.gcd(*cleared)
    if g > 1:
        cleared = [x // g for x in cleared]
    point = tuple(cleared)
    if any(sum(a * b for a, b in zip(point, d)) < 1 for d in diffs):
        raise RuntimeError(f"solver returned unsound projection {point}")
    return point


def weight_vector(e: Vector, rows) -> Vector:
    """Scalar weights e . row(K), one per row of a weighting matrix."""
    if any(len(row) != len(e) for row in rows):
        raise DimensionError("projection length does not match matrix rows")
    return tuple(sum(a * b for a, b in zip(e, row)) for row in rows)
