"""Lowest-term valuations of Pluecker coordinates and weighting matrices.

For an iterated sequence the valuation of a coordinate p_I is computed by a
greedy descent: walk the levels top-down and, whenever the current top index
sits in the multi-index, trade it for the first admissible index of the
level's triple, charging one unit to the corresponding position.  The result
is the lexicographic maximum of the monomial support of the pullback of p_I
under the birational parametrization.  ``tests/oracles.py`` expands that
support in full by recursion and checks the greedy result against it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .plucker import all_triples, triple_key
from .sequences import IteratedSequence

Vector = tuple[int, ...]


class DimensionError(ValueError):
    """Vector length does not match 3(n-3)."""


def compute_valuation(seq: IteratedSequence, I) -> Vector:
    """Greedy descent valuation of the Pluecker coordinate p_I."""
    n = seq.n
    coords = [0] * (3 * (n - 3))
    current = set(I)
    for t, triple in enumerate(seq.triples):
        top = n - t
        if top not in current:
            continue
        for j, candidate in enumerate(triple):
            if candidate not in current:
                coords[3 * t + j] = 1
                current.remove(top)
                current.add(candidate)
                break
    assert current == {1, 2, 3}
    return tuple(coords)


@dataclass(frozen=True)
class WeightingMatrix:
    """One valuation row per K in lex-ordered I_{3,n}."""

    triples: tuple[tuple[int, int, int], ...]
    rows: tuple[Vector, ...]

    def items(self):
        return zip(self.triples, self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for triple, row in self.items():
            writer.writerow([triple_key(triple), *row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "WeightingMatrix":
        triples, rows = [], []
        for record in csv.reader(io.StringIO(text)):
            if not record:
                continue
            triples.append(tuple(int(c) for c in record[0]))
            rows.append(tuple(int(x) for x in record[1:]))
        return cls(tuple(triples), tuple(rows))


def weighting_matrix(seq: IteratedSequence) -> WeightingMatrix:
    """Stack the valuations of all Pluecker coordinates in lex row order."""
    triples = tuple(all_triples(seq.n))
    rows = tuple(compute_valuation(seq, K) for K in triples)
    return WeightingMatrix(triples, rows)
