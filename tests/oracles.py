"""Independent oracles used to freeze expected values.

Everything here is deliberately brute force and imports nothing from the
package: the full pullback-support recursion behind the greedy valuation,
the height-weighted order behind the lex-max initial-term rule, the
initial-term selection on tuples of integers with its scalar check, whether a
packed selection is decided above the base (Lemma B), polynomial
expansion with explicit cancellation, the signed transposition on tuples of
triples, the orbit closure over every simple transposition, the class of a
label under the permutations of 1..4, the grouping of labels by their
ideals, dense and sparse rational Gaussian elimination, the Smith form
from determinantal divisors, the full Macaulay matrix of the quadratic
relations, and semistandard-tableau enumeration for graded dimensions.  A
sequence is read only through its ``n`` and ``triples`` attributes.  The recorded output hashes of
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



def decided_above_base(selection):
    """Whether a packed selection ``(slots, maxima)`` is decided above the
    base: every relation's non-initial terms have packed sum // 125
    strictly below its maximum's, for a selection whose every relation has
    exactly two initial terms.  The base triad is the last, so its three
    digits are the lowest base-5 digits of a packed sum, and sum // 125 is
    the term's vector without them.  A term's sum // 125 is at least the
    maximum's exactly when the sum is at least the maximum with its base
    digits cleared, which counts the two initial terms and every term that
    ties them above the base."""
    slots, maxima = selection
    floors = [m - m % 125 for m in maxima]
    return sum(sum(map(operator.ge, slot, floors)) for slot in slots) == 2 * len(maxima)

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


def certificate_triples(seq):
    """The rows K_{t,j} of the rank proof in ``valuation``, in the order of
    their positions 3t + j.  At level t, with top index r and triple
    (a, b, c): {r} and the two smallest indices of [r-1] - {a}; {r, a, y}
    with y the smallest index of [r-1] - {a, b}; and {r, a, b}."""
    triples = []
    for t, (a, b, _) in enumerate(seq.triples):
        r = seq.n - t
        below = [i for i in range(1, r) if i != a]
        y = min(i for i in below if i != b)
        triples += [(*below[:2], r), tuple(sorted((a, y))) + (r,), tuple(sorted((a, b))) + (r,)]
    return triples


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


def reference_closure(fp, moves):
    """Orbit of a fingerprint, a sorted tuple of binomial ids, under the
    group that the id permutations ``moves`` generate, one per simple
    transposition s_1..s_{n-1}: a breadth-first walk that maps every member
    by every move, one lookup per id and a sort."""
    seen = {fp}
    frontier = [fp]
    while frontier:
        fresh = []
        for current in frontier:
            for move in moves:
                image = tuple(sorted(move[k] for k in current))
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return seen


def label_class(label):
    """The class of a label under the 24 permutations of 1..4, each applied
    to every entry of every pair, named by its smallest member."""
    return min(
        tuple((sigma.get(a, a), sigma.get(b, b)) for a, b in label)
        for sigma in (dict(zip((1, 2, 3, 4), p)) for p in itertools.permutations((1, 2, 3, 4)))
    )


def labels_by_ideal(ideals):
    """The ideal -> labels map of a label -> ideal map: one key per distinct
    ideal, keys sorted, each with its labels, sorted."""
    return {
        fp: tuple(sorted(label for label in ideals if ideals[label] == fp))
        for fp in sorted(set(ideals.values()))
    }


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


def _determinant(matrix):
    """Determinant of a square integer matrix by Laplace expansion along
    the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * x * _determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, x in enumerate(matrix[0])
        if x
    )


def smith_by_minors(matrix):
    """Nonzero invariant factors of an integer matrix from its determinantal
    divisors: D_k, the gcd of all k x k minors, is d_1 ... d_k, so
    d_k = D_k / D_(k-1) for every k up to the rank."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        divisor = math.gcd(*(
            _determinant([[matrix[i][j] for j in chosen_cols] for i in chosen_rows])
            for chosen_rows in itertools.combinations(range(rows), k)
            for chosen_cols in itertools.combinations(range(cols), k)
        ))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def sparse_rank(rows):
    """Rank over Q of the matrix with the given sparse {column: number}
    rows, by elimination over Fraction against pivots scaled to lead 1."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                pivots[lead] = {c: v / scale for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
    return len(pivots)


def plucker_macaulay_rank(degree, n):
    """Rank of the full degree-d Macaulay matrix of the quadratic Pluecker
    relations of Gr(3,n): every nonzero expanded R_{I,J} times every
    monomial of degree d - 2, one row each, against the degree-d monomials
    as sorted tuples of triples."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    multipliers = list(itertools.combinations_with_replacement(triples, degree - 2))
    rows = []
    for i_pair in itertools.combinations(range(1, n + 1), 2):
        for j_quad in itertools.combinations(range(1, n + 1), 4):
            poly = expand_relation(i_pair, j_quad)
            for extra in multipliers if poly else ():
                rows.append({tuple(sorted(m + extra)): c for m, c in poly.items()})
    return sparse_rank(rows)


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


# Dantzig pricing is used while the objective moves; after this many pivots
# without improvement the rule switches to smallest-index (Bland), which
# cannot cycle.
DENSE_STALL_LIMIT = 24


def _dense_pivot(tableau, basis, r, c, denom):
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


def dense_box_lp(diffs, dim):
    """The max-slack LP over the unit box,

        maximize t   subject to   e.d >= t for all d,   -1 <= e_i <= 1,

    with e split into nonnegative parts, on a dense fraction-free tableau
    whose entries share one common denominator.  Returns (t*, e*, pivots),
    t* and e* as Fractions, and the largest stall the pricing reached."""
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
    stall = max_stall = pivots = 0
    last_value = Fraction(0)
    while True:
        obj = tableau[m]
        if stall < DENSE_STALL_LIMIT:
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
        denom = _dense_pivot(tableau, basis, r, c, denom)
        pivots += 1
        value = Fraction(tableau[m][rhs], denom)
        stall = stall + 1 if value == last_value else 0
        max_stall = max(max_stall, stall)
        last_value = value

    t_value = Fraction(tableau[m][rhs], denom)
    solution = [Fraction(0)] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            solution[var] = Fraction(tableau[i][rhs], denom)
    e = [solution[i] - solution[dim + i] for i in range(dim)]
    return t_value, e, pivots, max_stall
