"""The quadratic Pluecker relations of Gr(3,n), as plain tuples.

Plucker variables p_K are indexed by strictly increasing triples K in [n].
For a pair I and a quadruple J, both strictly increasing, the relation
R_{I,J} is the sum over j in J of (-1)^(#{i in I : i < j} + #{j' in J : j < j'})
* p_{I+j} * p_{J-j}, where p_{I+j} is zero whenever j already lies in I.

A relation is the tuple (I, J, terms).  Each term is (sign, A, B) with
A <= B, so that (A, B) is its monomial; the terms follow the order of J.
Relations with |I & J| >= 2 vanish identically (the two surviving terms
carry the same monomial with opposite signs) and are represented as ``None``.
"""

from __future__ import annotations

import itertools

Triple = tuple[int, int, int]
Term = tuple[int, Triple, Triple]
Relation = tuple[tuple[int, ...], tuple[int, ...], tuple[Term, ...]]


class InvalidSize(ValueError):
    """Ambient size n is too small for the requested construction."""


def triple_key(t) -> str:
    """The digits of an index tuple, ``"124"`` for (1, 2, 4): how the CSV and
    JSON files write a triple."""
    return "".join(str(x) for x in t)


def plucker_relation(I: tuple[int, ...], J: tuple[int, ...]) -> Relation | None:
    """The relation R_{I,J}, or ``None`` when |I & J| >= 2."""
    if len(set(I) & set(J)) >= 2:
        return None
    terms = []
    for j in J:
        if j in I:
            continue
        A = tuple(sorted((*I, j)))
        B = tuple(x for x in J if x != j)
        exponent = sum(i < j for i in I) + sum(j < x for x in J)
        terms.append((-1 if exponent % 2 else 1, min(A, B), max(A, B)))
    return (I, J, tuple(terms))


def all_triples(n: int) -> list[Triple]:
    """All strictly increasing triples in [n], lexicographically ordered."""
    return list(itertools.combinations(range(1, n + 1), 3))


def all_relations(n: int) -> list[Relation]:
    """Every nonzero R_{I,J} in lexicographic (I, J) order."""
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    relations = (
        plucker_relation(I, J)
        for I in itertools.combinations(range(1, n + 1), 2)
        for J in itertools.combinations(range(1, n + 1), 4)
    )
    return [R for R in relations if R is not None]
