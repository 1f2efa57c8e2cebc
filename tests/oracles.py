"""Independent oracles used to freeze expected values.

Everything here is deliberately brute force and imports nothing from the
package: the full pullback-support recursion behind the greedy valuation,
the height-weighted order behind the lex-max initial-term rule, the
initial-term selection on tuples of integers with its scalar check, polynomial
expansion with explicit cancellation, the signed transposition on tuples of
triples, dense rational Gaussian elimination, and semistandard-tableau
enumeration for graded dimensions.  A sequence is read only through its
``n`` and ``triples`` attributes.  The recorded output hashes of
``perfbench/expected/`` are read here too, and only read.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
from fractions import Fraction

EXPECTED_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected")


def recorded_hashes(name):
    """{relative path: sha256} of the recorded ``sha256sum`` file ``name``."""
    with open(os.path.join(EXPECTED_DIR, name)) as fh:
        return {path: digest for digest, path in (line.split() for line in fh)}


def output_hashes(outdir):
    """{relative path: sha256} of every file a run wrote, but its manifest,
    which holds timings."""
    hashes = {}
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    del hashes["manifest.json"]
    return hashes


def expand_relation(i_pair, j_quad):
    """Expand the signed sum defining R_{I,J} as {monomial: coefficient},
    cancelling explicitly."""
    poly = {}
    for j in j_quad:
        if j in i_pair:
            continue
        a = tuple(sorted(i_pair + (j,)))
        b = tuple(x for x in j_quad if x != j)
        sign = (-1) ** (
            sum(1 for i in i_pair if i < j) + sum(1 for jp in j_quad if j < jp)
        )
        key = (a, b) if a <= b else (b, a)
        poly[key] = poly.get(key, 0) + sign
    return {k: v for k, v in poly.items() if v}


def _row_positions(rows):
    """Index of each triple among the lex-ordered rows of a weighting matrix
    of Gr(3,n), n read off the number of rows."""
    n = 3
    while math.comb(n, 3) < len(rows):
        n += 1
    return {t: i for i, t in enumerate(itertools.combinations(range(1, n + 1), 3))}


def initial_terms(rows, relations):
    """Initial terms of every relation and the inequality set, on tuples.

    ``rows`` are the rows of a weighting matrix, ``relations`` are
    (I, J, terms) tuples with terms (sign, A, B).  A term is valued by the
    sum of its two factors' rows; the initial terms of a relation, as
    (sign, monomial) pairs, are those attaining the lex-max vector.  The
    inequality set holds the differences v(non-initial) - v(initial) over
    all relations, each divided by the gcd of its entries, deduplicated and
    sorted.
    """
    row = {t: rows[i] for t, i in _row_positions(rows).items()}
    initials = []
    diffs = set()
    for _, _, terms in relations:
        vectors = [tuple(map(operator.add, row[a], row[b])) for _, a, b in terms]
        best = max(vectors)
        initials.append(tuple((s, (a, b)) for v, (s, a, b) in zip(vectors, terms) if v == best))
        for v in vectors:
            if v != best:
                d = tuple(map(operator.sub, v, best))
                g = math.gcd(*d)
                diffs.add(tuple(x // g for x in d))
    return tuple(initials), tuple(sorted(diffs))


def binomial_generators(initials):
    """Sorted binomials (smaller monomial, larger monomial, product of the
    signs) of the initial forms that have two terms."""
    gens = set()
    for terms in initials:
        if len(terms) == 2:
            (sign_a, lead), (sign_b, trail) = sorted(terms, key=lambda term: term[1])
            gens.add((lead, trail, sign_a * sign_b))
    return tuple(sorted(gens))


def scalar_matches(weights, relations, initials):
    """Whether the scalar weights, one per row, pick the same initial
    monomials as the matrix order, relation by relation: a term scores the
    sum of its factors' weights and the lowest score wins."""
    weight = {t: weights[i] for t, i in _row_positions(weights).items()}
    for (_, _, terms), initial in zip(relations, initials):
        scored = [(weight[a] + weight[b], (a, b)) for _, a, b in terms]
        low = min(score for score, _ in scored)
        if {m for score, m in scored if score == low} != {m for _, m in initial}:
            return False
    return True


def root_heights(seq):
    """Heights j - i of the sequence's roots, one per position 3t+j: level
    t has top index n - t, and i runs over the level's triple."""
    return tuple(seq.n - t - i for t, triple in enumerate(seq.triples) for i in triple)


def height_order_key(seq, v):
    """Sort key of the height-weighted reverse lexicographic order: the
    height-weighted total, then the negated vector, so that ties go to the
    lexicographically larger vector."""
    heights = root_heights(seq)
    if len(v) != len(heights):
        raise ValueError(f"expected length {len(heights)}, got {len(v)}")
    return sum(h * x for h, x in zip(heights, v)), tuple(-x for x in v)


def pullback_support(seq, I):
    """Exponent-vector support of the pullback of p_I (coefficients dropped).

    Recursive: with top index r absent, prepend a zero triad to the level
    below; with r present, branch over the admissible triple entries.  The
    branches write distinct units into the leading triad, so no two of them
    collide and the union is disjoint.
    """
    triples = seq.triples

    def expand(r, idx):
        if r == 3:
            return [()]
        triple = triples[seq.n - r]
        if r not in idx:
            return [(0, 0, 0) + v for v in expand(r - 1, idx)]
        rest = idx - {r}
        out = []
        for j, candidate in enumerate(triple):
            if candidate in rest:
                continue
            unit = tuple(1 if u == j else 0 for u in range(3))
            out.extend(unit + v for v in expand(r - 1, rest | {candidate}))
        return out

    return frozenset(expand(seq.n, frozenset(I)))


def brute_force_fingerprint(seq):
    """Sorted canonical initial binomials of every nonzero relation.

    Each relation is expanded by ``expand_relation``; a term p_A p_B is
    valued by the sum of the lex-max exponent vectors of the supports of p_A
    and p_B.  The initial terms are the minima of ``height_order_key``.
    Each binomial is (smaller monomial, larger monomial, product of the
    signs).
    """
    n = seq.n
    valuation = {
        K: max(pullback_support(seq, K)) for K in itertools.combinations(range(1, n + 1), 3)
    }

    def order_key(monomial):
        a, b = monomial
        return height_order_key(seq, [x + y for x, y in zip(valuation[a], valuation[b])])

    gens = set()
    for i_pair in itertools.combinations(range(1, n + 1), 2):
        for j_quad in itertools.combinations(range(1, n + 1), 4):
            poly = expand_relation(i_pair, j_quad)
            if not poly:
                continue
            low = min(order_key(m) for m in poly)
            initial = sorted(m for m in poly if order_key(m) == low)
            assert len(initial) == 2, (seq, i_pair, j_quad)
            lead, trail = initial
            gens.add((lead, trail, poly[lead] * poly[trail]))
    return tuple(sorted(gens))


def _map_triple(i, t):
    if i in t and i + 1 in t:
        return t, -1
    image = tuple(sorted(i + 1 if x == i else i if x == i + 1 else x for x in t))
    return image, 1


def _map_monomial(i, m):
    a, sa = _map_triple(i, m[0])
    b, sb = _map_triple(i, m[1])
    return ((a, b) if a <= b else (b, a)), sa * sb


def reference_transposition(i, fp):
    """Image of a fingerprint under the signed transposition (i, i+1),
    computed on the tuples themselves: each triple is relabelled and
    re-sorted (a triple holding both i and i+1 keeps its indices and flips
    its sign), and every binomial is re-oriented so that its smaller
    monomial leads with coefficient +1."""
    out = set()
    for lead, trail, sign in fp:
        lead_image, lead_sign = _map_monomial(i, lead)
        trail_image, trail_sign = _map_monomial(i, trail)
        pair = sorted((lead_image, trail_image))
        out.add((pair[0], pair[1], lead_sign * trail_sign * sign))
    return tuple(sorted(out))


def count_nonzero_relations(n):
    """(#nonzero, #three-term, #four-term) by expanding every pair."""
    total = three = four = 0
    for i_pair in itertools.combinations(range(1, n + 1), 2):
        for j_quad in itertools.combinations(range(1, n + 1), 4):
            poly = expand_relation(i_pair, j_quad)
            if poly:
                total += 1
                if len(poly) == 3:
                    three += 1
                elif len(poly) == 4:
                    four += 1
    return total, three, four


def dense_rank(rows, ncols):
    """Rank by dense Gaussian elimination over Fraction."""
    matrix = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    col = 0
    nrows = len(matrix)
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if matrix[i][col]), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for i in range(nrows):
            if i != rank and matrix[i][col]:
                f = matrix[i][col]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
        col += 1
    return rank


def ssyt_count(ncols, maxval):
    """Semistandard tableaux with 3 rows of length ncols, entries <= maxval:
    rows weakly increasing, columns strictly increasing.  Counts the
    standard-monomial basis of the degree-ncols graded piece of the
    coordinate ring."""

    def weak_rows(length, lo, hi):
        if length == 0:
            yield ()
            return
        for first in range(lo, hi + 1):
            for rest in weak_rows(length - 1, first, hi):
                yield (first,) + rest

    total = 0
    for r1 in weak_rows(ncols, 1, maxval):
        for r2 in weak_rows(ncols, 1, maxval):
            if any(a >= b for a, b in zip(r1, r2)):
                continue
            for r3 in weak_rows(ncols, 1, maxval):
                if not any(a >= b for a, b in zip(r2, r3)):
                    total += 1
    return total


def degree2_monomial_index(n):
    """All unordered pairs of variable triples in lex order, as an index map."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    monos = [
        (a, b) for idx, a in enumerate(triples) for b in triples[idx:]
    ]
    monos.sort()
    return {m: i for i, m in enumerate(monos)}
