"""Initial forms of Pluecker relations under a weighting matrix, on packed
base-3 rows.

Each term p_A * p_B of a relation is valued by row(A) + row(B).  The initial
form is the set of terms that are minimal in the height-weighted reverse
lexicographic order: smallest height-weighted total, ties going to the
lexicographically larger vector.  All terms of one relation share the same
height-weighted total, so that minimum is attained exactly at the
lexicographically largest valuation vectors; ``tests/oracles.py`` holds the
order and checks this lemma.  Every non-initial term contributes the strict
inequality e . (v(term) - v(initial)) > 0 that an order-preserving
projection e has to satisfy.

Packing.  Read a vector v in {0,1,2}^dim as the base-3 integer
pack3(v) = sum_i v_i 3^(dim-1-i).  ``pack_rows`` parses each valuation row
this way and rejects a row that is not 0/1: premise (a).  A term's vector
r_A + r_B then has digits at most 2, so the addition never carries and
pack3(r_A + r_B) = P_A + P_B.  On {0,1,2}^dim lex order is int order: if
two vectors first differ at position i, with k = dim-1-i, the larger digit
adds at least 3^k and the later digits differ by at most
2 (3^(k-1) + ... + 1) = 3^k - 1.  So the initial terms of a relation are the
terms whose packed sums attain the maximum, and pack3 is injective, so the
vectors of the inequality set are recovered by unpacking the distinct
(maximum, other) pairs of packed sums.

The certificate.  With c_i = -3^(dim-1-i), premise (b) is
c . row(K) = -pack3(row(K)) for every row K.  The sweep checks it on every
sequence, computing the left side by dot products (``cone.weight_vector``)
and the right side by the base-3 parse.  From (b), c . v = -(P_A + P_B) for
every term, and then:

(i) the scalar weights w = c.M score a term by w_A + w_B = -(P_A + P_B), so
    their minimizers are the maximizers of the packed sum, the initial
    terms: the scalar weights reproduce every initial form (the sweep's
    ``scalar_matches``);
(ii) for a non-initial v and an initial term with vector best,
     c . (v - best) = pack3(best) - pack3(v) >= 1.  The gcd-reduced
     d = (v - best) / g has c . d = (pack3(best) - pack3(v)) / g > 0, an
     integer since c and d are integer vectors, so c . d >= 1, also when
     g = 2: c lies in the open cone of the inequality set (the sweep's
     ``projection_sound``).

Both premises are checks on rows, so no term-level check is needed in the
sweep; ``tests/oracles.py`` holds the term-level tuple kernel, and the test
suite compares the two on every sequence of n <= 6 and a sample at n = 7.

The relation table is the per-n plan of the selection, built on first use:
the rows of the two factors of each distinct monomial, so that each
monomial's packed sum is computed once; the monomial of each term, laid out
slot-major (term k of relation r at k * count + r; a relation with three
terms has a padding fourth term whose packed sum is negative); and for each
relation a map from its max-term pattern, one bool per slot, to the id of
its canonical binomial.  Binomial ids number the table's binomials in sorted
order; a fingerprint is the sorted tuple of its binomials' ids.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from functools import lru_cache
from operator import add, eq, sub
from typing import NamedTuple

from .plucker import Relation, Triple, all_relations, all_triples
from .sequences import IteratedSequence
from .valuation import Vector, WeightingMatrix

Monomial = tuple[Triple, Triple]
Binomial = tuple[Monomial, Monomial, int]
Fingerprint = tuple[int, ...]  # sorted ids into relation_table(n).binomials

# A relation has at most four terms.
_SLOTS = 4


def canonical_binomial(sign_a: int, mono_a: Monomial, sign_b: int, mono_b: Monomial) -> Binomial:
    """Normalize sign_a*mono_a + sign_b*mono_b to lead coefficient +1."""
    if mono_a <= mono_b:
        return (mono_a, mono_b, sign_a * sign_b)
    return (mono_b, mono_a, sign_a * sign_b)


class RelationTable(NamedTuple):
    count: int  # relations
    first: tuple[int, ...]  # row of each monomial's first factor
    second: tuple[int, ...]  # row of each monomial's second factor
    terms: tuple[int, ...]  # monomial of each term, slot-major
    patterns: tuple[dict[tuple[bool, ...], int], ...]  # per relation
    binomials: tuple[Binomial, ...]  # by id, sorted


def _compile(relations, n: int) -> RelationTable:
    position = {t: i for i, t in enumerate(all_triples(n))}
    factor_rows = [[(position[A], position[B]) for _, A, B in terms] for _, _, terms in relations]
    monomials = sorted({m for by_term in factor_rows for m in by_term})
    index = {m: i for i, m in enumerate(monomials)}
    padding = len(monomials)  # the monomial whose packed sum is negative
    slots = [
        index[by_term[slot]] if slot < len(by_term) else padding
        for slot in range(_SLOTS)
        for by_term in factor_rows
    ]
    # the max-term pattern of each pair of slots: a bool per slot
    pattern = {
        pair: tuple(k in pair for k in range(_SLOTS))
        for pair in itertools.combinations(range(_SLOTS), 2)
    }
    pairs = []
    for _, _, terms in relations:
        pairs.append({
            pattern[i, j]: canonical_binomial(terms[i][0], terms[i][1:], terms[j][0], terms[j][1:])
            for i, j in itertools.combinations(range(len(terms)), 2)
        })
    binomials = tuple(sorted({b for by_pattern in pairs for b in by_pattern.values()}))
    ids = {b: i for i, b in enumerate(binomials)}
    return RelationTable(
        len(relations),
        tuple(a for a, _ in monomials),
        tuple(b for _, b in monomials),
        tuple(slots),
        tuple({p: ids[b] for p, b in by_pattern.items()} for by_pattern in pairs),
        binomials,
    )


@lru_cache(maxsize=None)
def _full_table(n: int) -> RelationTable:
    return _compile(all_relations(n), n)


# keyed by the relations themselves, which the full table need not keep
@lru_cache(maxsize=8)
def _listed_table(relations: tuple[Relation, ...], n: int) -> RelationTable:
    return _compile(relations, n)


def relation_table(n: int, relations: list[Relation] | None = None) -> RelationTable:
    """The selection plan of the given relations of Gr(3,n); by default all
    of them in ``all_relations`` order.  A table is built once per n, and
    once per list of relations among the last few lists given."""
    return _full_table(n) if relations is None else _listed_table(tuple(relations), n)


def decode(fp: Fingerprint, n: int) -> tuple[Binomial, ...]:
    """The binomials of a fingerprint of Gr(3,n), in sorted order."""
    return tuple(map(relation_table(n).binomials.__getitem__, fp))


# bytes.translate table: byte 0 -> "0", 1 -> "1", any other -> "#", which is
# no base-3 digit
_DIGITS = b"01" + b"#" * 254


def pack_rows(rows, dim: int) -> list[int]:
    """pack3 of each row; raises ValueError for a row outside {0,1}^dim."""
    packed = []
    for row in rows:
        try:
            value = int(bytes(row).translate(_DIGITS), 3)
        except (TypeError, ValueError):  # an entry that is no 0 or 1
            value = None
        if value is None or len(row) != dim:
            raise ValueError(f"valuation row {tuple(row)} is not a 0/1 vector of length {dim}")
        packed.append(value)
    return packed


def unpack3(x: int, dim: int) -> Vector:
    """The base-3 digits of x, most significant first."""
    digits = [0] * dim
    for i in range(dim - 1, -1, -1):
        x, digits[i] = divmod(x, 3)
    return tuple(digits)


Selection = tuple[tuple[list[int], ...], list[int]]


def select(packed: list[int], table: RelationTable) -> Selection:
    """The initial-term selection: the packed sum of every term, one list
    per slot, and the maximum of each relation."""
    get = packed.__getitem__
    monomial_sums = list(map(add, map(get, table.first), map(get, table.second)))
    monomial_sums.append(-1)  # the padding term
    sums = list(map(monomial_sums.__getitem__, table.terms))
    count = table.count
    slots = tuple(sums[k * count : (k + 1) * count] for k in range(_SLOTS))
    return slots, list(map(max, *slots))


def binomial_ids(selection: Selection, table: RelationTable) -> set:
    """Ids of the initial binomials; a relation whose initial form is not a
    binomial contributes ``None``."""
    slots, maxima = selection
    patterns = zip(*(map(eq, slot, maxima) for slot in slots))
    return set(map(dict.get, table.patterns, patterns))


def reduce_content(d: Vector) -> Vector:
    g = math.gcd(*d)
    return d if g in (0, 1) else tuple(x // g for x in d)


def inequalities(selection: Selection, dim: int) -> tuple[Vector, ...]:
    """The inequality set: v(non-initial) - v(initial) over all relations,
    reduced by the gcd of its entries, deduplicated and sorted; the leading
    nonzero entry of each is negative."""
    slots, maxima = selection
    pairs = set()
    for slot in slots:
        pairs.update(zip(maxima, slot))
    diffs = set()
    for best, other in pairs:
        if 0 <= other < best:
            diffs.add(reduce_content(tuple(map(sub, unpack3(other, dim), unpack3(best, dim)))))
    return tuple(sorted(diffs))


def inequality_set(
    seq: IteratedSequence,
    matrix: WeightingMatrix,
    relations: list[Relation] | None = None,
) -> tuple[Vector, ...]:
    """The inequality set of the given relations, by default all of Gr(3,n)."""
    dim = 3 * (seq.n - 3)
    table = relation_table(seq.n, relations)
    return inequalities(select(pack_rows(matrix.rows, dim), table), dim)


def inequalities_from_csv(text: str) -> tuple[Vector, ...]:
    out = []
    for record in csv.reader(io.StringIO(text)):
        if record:
            out.append(tuple(int(x) for x in record))
    return tuple(out)
