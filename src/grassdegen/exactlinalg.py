"""Exact integer linear algebra: sparse fraction-free rank, rank mod 2 and
Smith form.

Rank elimination keeps rows as sparse {column: int} maps and eliminates with
integer cross-multiplication followed by content reduction, so every step is
exact and coefficients stay small for the incidence-like matrices produced
by binomial generators.

``rank_mod2`` eliminates over GF(2) on rows packed into ints, one bit per
column.  It bounds the rational rank from below: the rank of an integer
matrix over a field is the largest size of a nonzero minor, and a minor
that is odd, nonzero mod 2, is nonzero.  So an integer matrix whose
reduction mod 2 has rank r has rank at least r over Q, and full rank mod 2
proves full rank over Q.  ``toricity.lattice_saturation`` uses it.  The
converse fails: the rows (1,1,0), (0,1,1), (1,0,1) have determinant 2,
rank 3 over Q and rank 2 mod 2.
"""

from __future__ import annotations

import math

SparseRow = dict


def _content_reduce(row: SparseRow) -> SparseRow:
    g = math.gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def exact_rank(rows) -> int:
    """Rank over the rationals of the matrix with the given sparse rows.

    Columns may be keyed by any totally ordered hashable values.
    """
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _content_reduce(row)
                rank += 1
                break
            a, b = pivot[lead], row[lead]
            merged = {c: v * a for c, v in row.items()}
            for c, v in pivot.items():
                value = merged.get(c, 0) - v * b
                if value:
                    merged[c] = value
                else:
                    merged.pop(c, None)
            row = _content_reduce(merged) if merged else merged
    return rank


def rank_mod2(rows) -> int:
    """Rank over GF(2) of the matrix whose rows are given as ints, bit j of
    a row being its entry mod 2 in column j."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def smith_invariant_factors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    top = 0
    while top < min(rows, cols):
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
            if pivot is not None and abs(m[pivot[0]][pivot[1]]) == 1:
                break  # no entry is smaller, so the whole scan would keep this one
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        if m[top][top] < 0:
            m[top] = [-x for x in m[top]]

        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // m[top][top]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // m[top][top]
            if q:
                for r in range(rows):
                    m[r][j] -= q * m[r][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue

        d = m[top][top]
        if d > 1:  # a unit divides every entry
            rest = range(top + 1, rows)
            offender = next((i for i in rest if any(x % d for x in m[i][top + 1:])), None)
            if offender is not None:
                m[top] = [a + b for a, b in zip(m[top], m[offender])]
                continue

        factors.append(d)
        top += 1

    for i in range(1, len(factors)):
        if factors[i] % factors[i - 1]:
            raise RuntimeError(
                f"invariant factor {factors[i]} is not a multiple of {factors[i - 1]}"
            )
    return factors
