"""Initial forms of Pluecker relations under a weighting matrix, on packed
base-5 rows.

Each term p_A * p_B of a relation is valued by row(A) + row(B).  The initial
form is the set of terms that are minimal in the height-weighted reverse
lexicographic order: smallest height-weighted total, ties going to the
lexicographically larger vector.  All terms of one relation share the same
height-weighted total, so that minimum is attained exactly at the
lexicographically largest valuation vectors; ``tests/oracles.py`` holds the
order and checks this lemma.  Every non-initial term contributes the strict
inequality e . (v(term) - v(initial)) > 0 that an order-preserving
projection e has to satisfy.

Packing.  Read a vector v in {0,...,4}^dim as the base-5 integer
pack5(v) = sum_i v_i 5^(dim-1-i).  ``row_digits`` writes each valuation row
as a string of the digits 0 and 1 and rejects a row that is not 0/1 of
length dim: premise (a).  ``pack`` reads each string as a base-5 numeral.
A term's vector r_A + r_B then has digits at most 2, so the addition never
carries and pack5(r_A + r_B) = P_A + P_B.  On {0,...,4}^dim lex order is
int order: if two vectors first differ at position i, with k = dim-1-i, the
larger digit adds at least 5^k and the later digits differ by at most
4 (5^(k-1) + ... + 1) = 5^k - 1.  So the initial terms of a relation are
the terms whose packed sums attain the maximum.

Differences.  A non-initial term v of a relation whose initial vector is
best has v - best in {-2,...,2}^dim.  With TWOS = pack5(2, ..., 2), their
packed sums P and Q give P - Q + TWOS = pack5(v - best + 2): each digit
lies in 0..4, so nothing borrows, and the int determines the vector.
``inequalities`` unpacks each distinct such int once, three digits at a
time (dim = 3(n-3)).  The entries of v - best are not all 0, so their gcd
is 2 if every entry is even and 1 otherwise: halving the even vectors
reduces each.

The certificate.  With c_i = -5^(dim-1-i), fact (b) is
c . row(K) = -pack5(row(K)) for every row K that passes premise (a).  It
needs no check: ``row_digits`` returns a string only for a row of length
dim whose every entry is 0 or 1, its digits in the row's order, and
``pack`` returns int(digits, 5) for it, which by the definition of a base-5
numeral is sum_i r_i 5^(dim-1-i) = -c . r.  A unit test compares both
sides on every 0/1 row of length 3 to 12.  From (b),
c . v = -(P_A + P_B) for every term, and then:

(i) the scalar weights w = c.M score a term by w_A + w_B = -(P_A + P_B), so
    their minimizers are the maximizers of the packed sum, the initial
    terms: the scalar weights reproduce every initial form (the sweep's
    ``scalar_matches``);
(ii) for a non-initial v and an initial term with vector best,
     c . (v - best) = pack5(best) - pack5(v) >= 1.  The reduced
     d = (v - best) / g, g = 1 or 2, has c . d = (pack5(best) - pack5(v)) / g
     > 0, an integer since c and d are integer vectors, so c . d >= 1: c lies
     in the open cone of the inequality set (the sweep's ``projection_sound``).

Both follow from premise (a) alone, a check on rows that ``row_digits``
makes, so no term-level check is needed in the sweep; ``tests/oracles.py``
holds the term-level tuple kernel, and the test suite compares the two on
every sequence of n <= 6 and samples at n = 7 and 8.

The relation table is the plan of the selection over every relation of
Gr(3,n), one per n, built on first use: the rows of the two factors of each
distinct monomial, so that each monomial's packed sum is computed once; the
monomial of each term, laid out slot-major (term k of relation r at
k * count + r; a relation with three terms has a padding fourth term whose
packed sum is negative); and for each relation a map from its max-term
pattern, one bool per slot, to the id of its canonical binomial.  Binomial
ids number the table's binomials in sorted order; a fingerprint is the
sorted tuple of its binomials' ids.  ``inequality_set`` takes the checked
selection, so its rows pass premise (a) and the rank certificate, and
given a list of relations it keeps their slots of that one selection.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import lru_cache
from operator import add, eq
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


@lru_cache(maxsize=None)
def relation_table(n: int) -> RelationTable:
    """The selection plan of every relation of Gr(3,n), in ``all_relations``
    order, built once per n."""
    relations = all_relations(n)
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


def decode(fp: Fingerprint, n: int) -> tuple[Binomial, ...]:
    """The binomials of a fingerprint of Gr(3,n), in sorted order."""
    return tuple(map(relation_table(n).binomials.__getitem__, fp))


# bytes.translate table: byte 0 -> "0", 1 -> "1", any other -> "#", which
# marks an entry that is no 0 or 1
_DIGITS = b"01" + b"#" * 254


def row_digits(rows, dim: int) -> list[bytes]:
    """Each row as a string of the digits 0 and 1; raises ValueError for a
    row outside {0,1}^dim."""
    strings = []
    for row in rows:
        try:
            digits = bytes(row).translate(_DIGITS)
        except (TypeError, ValueError):  # an entry that is no int in 0..255
            digits = b"#"
        if b"#" in digits or len(row) != dim:
            raise ValueError(f"valuation row {tuple(row)} is not a 0/1 vector of length {dim}")
        strings.append(digits)
    return strings


def pack(digits: list[bytes]) -> list[int]:
    """pack5 of each row, from its digit string (``row_digits``)."""
    return [int(row, 5) for row in digits]


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


def check_leads(digits: list[bytes], dim: int) -> None:
    """The certificate of rank ``dim`` (``valuation``): for each position
    0..dim-1 some row's first 1 lies there; raises ValueError naming the
    first position where none does.  Rows whose leading positions are
    pairwise distinct are independent, so a pass proves the rank."""
    missing = set(range(dim)).difference(map(bytes.find, digits, itertools.repeat(b"1")))
    if missing:
        position = min(missing)
        raise ValueError(f"rank certificate: no valuation row has its first 1 at position {position}")


def checked_selection(rows, n: int) -> Selection:
    """The selection that the valuation rows of Gr(3,n) make; raises
    ValueError for a row outside 0/1 (``row_digits``) and for rows that
    fail the rank certificate (``check_leads``)."""
    dim = 3 * (n - 3)
    digits = row_digits(rows, dim)
    check_leads(digits, dim)
    return select(pack(digits), relation_table(n))


def initial_ideal(rows, n: int) -> Fingerprint:
    """The fingerprint of the initial ideal that the valuation rows of
    Gr(3,n) select; raises ValueError where ``checked_selection`` does and
    for a relation whose initial form is not a binomial."""
    ids = binomial_ids(checked_selection(rows, n), relation_table(n))
    if None in ids:
        raise ValueError("non-binomial initial form")
    return tuple(sorted(ids))


# the three digits of each x in 0..124, most significant first, minus 2
_TRIADS = tuple(itertools.product(range(-2, 3), repeat=3))


def inequalities(selection: Selection, dim: int) -> tuple[Vector, ...]:
    """The inequality set: v(non-initial) - v(initial) over all relations,
    halved where every entry is even, deduplicated and sorted; the leading
    nonzero entry of each is negative."""
    slots, maxima = selection
    pairs = set()
    for slot in slots:
        pairs.update(zip(maxima, slot))
    twos = (5**dim - 1) // 2
    vectors = set()
    for x in {other - best + twos for best, other in pairs if 0 <= other < best}:
        vector = ()
        for _ in range(dim // 3):
            x, low = divmod(x, 125)
            vector = _TRIADS[low] + vector
        if 1 not in vector and -1 not in vector:
            vector = tuple(d // 2 for d in vector)
        vectors.add(vector)
    return tuple(sorted(vectors))


def inequality_set(
    seq: IteratedSequence,
    matrix: WeightingMatrix,
    relations: list[Relation] | None = None,
) -> tuple[Vector, ...]:
    """The inequality set of the given relations, by default all of Gr(3,n),
    from the ``checked_selection`` of the matrix's rows, and so raising
    ValueError where it does: each given relation keeps its slots and
    maximum, found by its (I, J) in ``all_relations`` order."""
    slots, maxima = checked_selection(matrix.rows, seq.n)
    if relations is not None:
        index = {(I, J): r for r, (I, J, _) in enumerate(all_relations(seq.n))}
        kept = [index[I, J] for I, J, _ in relations]
        slots = tuple([slot[r] for r in kept] for slot in slots)
        maxima = [maxima[r] for r in kept]
    return inequalities((slots, maxima), 3 * (seq.n - 3))


def inequalities_from_csv(text: str) -> tuple[Vector, ...]:
    out = []
    for record in csv.reader(io.StringIO(text)):
        if record:
            out.append(tuple(int(x) for x in record))
    return tuple(out)
