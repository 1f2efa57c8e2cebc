"""Initial forms of Pluecker relations under a weighting matrix.

Each term p_A * p_B of a relation is valued by row(A) + row(B).  The initial
form is the set of terms that are minimal in the height-weighted reverse
lexicographic order: smallest height-weighted total, ties going to the
lexicographically larger vector.  All terms of one relation share the same
height-weighted total, so that minimum is attained exactly at the
lexicographically largest valuation vectors, and the kernel selects those
without computing the order; ``tests/oracles.py`` holds the order and checks
this lemma.  Every non-initial term contributes the strict inequality
e . (v(term) - v(initial)) > 0 that an order-preserving projection e has to
satisfy.

The kernel reads a relation table: the (I, J, terms) tuples of ``plucker``
compiled so that each term (sign, A, B) becomes (sign, row of A, row of B,
monomial).
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache
from operator import add, sub

from .plucker import Relation, Triple, all_relations, all_triples
from .sequences import IteratedSequence
from .valuation import Vector, WeightingMatrix

Monomial = tuple[Triple, Triple]
# One term sign * p_A * p_B as (sign, row of A, row of B, monomial), the rows
# indexing the lex-ordered triples of the weighting matrix.
CompiledTerm = tuple[int, int, int, Monomial]
RelationTable = tuple[tuple[CompiledTerm, ...], ...]
InitialTerms = tuple[tuple[int, Monomial], ...]


def _compile(relations, n: int) -> RelationTable:
    position = {t: i for i, t in enumerate(all_triples(n))}
    return tuple(
        tuple((sign, position[A], position[B], (A, B)) for sign, A, B in terms)
        for _, _, terms in relations
    )


@lru_cache(maxsize=None)
def _full_table(n: int) -> RelationTable:
    return _compile(all_relations(n), n)


def relation_table(n: int, relations: list[Relation] | None = None) -> RelationTable:
    """Compiled terms of the given relations of Gr(3,n); by default all of
    them in ``all_relations`` order, a table built once per n."""
    return _full_table(n) if relations is None else _compile(relations, n)


def reduce_content(d: Vector) -> Vector:
    g = math.gcd(*d)
    return d if g in (0, 1) else tuple(x // g for x in d)


def initial_terms(
    rows, table: RelationTable
) -> tuple[tuple[InitialTerms, ...], tuple[Vector, ...]]:
    """Initial terms of every relation of the table, and the inequality set.

    ``rows`` are the rows of a weighting matrix.  A term is valued by the sum
    of its two factors' rows; the initial terms of a relation, as
    (sign, monomial) pairs, are those attaining the lex-max vector.  The
    inequality set holds the differences v(non-initial) - v(initial) over
    all relations, reduced by the gcd of their entries, deduplicated and
    sorted; the leading nonzero entry of each is negative.
    """
    initials = []
    diffs = set()
    for terms in table:
        vectors = [tuple(map(add, rows[a], rows[b])) for _, a, b, _ in terms]
        best = max(vectors)
        initials.append(tuple((s, mono) for v, (s, _, _, mono) in zip(vectors, terms) if v == best))
        diffs.update(tuple(map(sub, v, best)) for v in vectors if v != best)
    return tuple(initials), tuple(sorted({reduce_content(d) for d in diffs}))


def inequality_set(
    seq: IteratedSequence,
    matrix: WeightingMatrix,
    relations: list[Relation] | None = None,
) -> tuple[Vector, ...]:
    """The inequality set of ``initial_terms`` for the given relations,
    by default all of Gr(3,n)."""
    return initial_terms(matrix.rows, relation_table(seq.n, relations))[1]


def inequalities_from_csv(text: str) -> tuple[Vector, ...]:
    out = []
    for record in csv.reader(io.StringIO(text)):
        if record:
            out.append(tuple(int(x) for x in record))
    return tuple(out)
