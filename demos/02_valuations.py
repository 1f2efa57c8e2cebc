"""Lowest-term valuations and the weighting matrix of a sequence.

Walks the greedy descent for a few Pluecker coordinates of the standard
iterated sequence, confirms the result against the full pullback support,
and prints the 20 x 9 weighting matrix together with the nine rows that
form an upper-triangular submatrix with unit diagonal.
"""

from grassdegen.sequences import standard_sequence
from grassdegen.valuation import valuation_rows, weighting_matrix


def pullback_support(seq, I):
    """Exponent vectors of the pullback of p_I: walk the levels top-down and,
    at each level whose top index r is in I, branch over the triple entries
    that can replace r (a short copy of the recursion in tests/oracles.py)."""
    out = set()

    def expand(r, idx, prefix):
        if r == 3:
            out.add(prefix)
            return
        triple = seq.triples[seq.n - r]
        if r not in idx:
            expand(r - 1, idx, prefix + (0, 0, 0))
            return
        for j, candidate in enumerate(triple):
            if candidate not in idx:
                unit = tuple(int(u == j) for u in range(3))
                expand(r - 1, idx - {r} | {candidate}, prefix + unit)

    expand(seq.n, frozenset(I), ())
    return out


TRIANGULAR_COORDINATES = [
    (4, 5, 6), (1, 5, 6), (1, 2, 6),
    (3, 4, 5), (1, 4, 5), (1, 2, 5),
    (2, 3, 4), (1, 3, 4), (1, 2, 4),
]


def main():
    seq = standard_sequence(6)
    print("sequence:", seq.serialize())

    coordinates = [(1, 2, 3), (1, 2, 6), (4, 5, 6)]
    for K, valuation in zip(coordinates, valuation_rows(seq, coordinates)):
        support = pullback_support(seq, K)
        print(f"\np_{K}: valuation {valuation}")
        print(f"  pullback support has {len(support)} monomials, lex-max {max(support)}")
        heights = [seq.n - t - i for t, triple in enumerate(seq.triples) for i in triple]
        total = sum(h * x for h, x in zip(heights, valuation))
        print(f"  height-weighted total {total} = {sum(K)} - 6")

    M = weighting_matrix(seq)
    print("\nweighting matrix (rows in lex order):")
    for triple, row in M.items():
        print("  ", "".join(map(str, triple)), row)

    print("\ntriangular witness rows:")
    for K in TRIANGULAR_COORDINATES:
        print("  ", "".join(map(str, K)), M.rows[M.triples.index(K)])


if __name__ == "__main__":
    main()
