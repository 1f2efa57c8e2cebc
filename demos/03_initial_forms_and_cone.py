"""From initial forms to a point of the tropical Grassmannian.

Computes the binomial initial forms of all 135 relations for one sequence,
extracts the strict inequalities an order-preserving projection must
satisfy, solves the cone exactly, and checks that the scalar weight vector
reproduces every matrix initial form.
"""

from grassdegen.cone import strict_interior_point, weight_vector
from grassdegen.initial_forms import initial_terms, relation_table
from grassdegen.sequences import IteratedSequence
from grassdegen.valuation import weighting_matrix


def main():
    seq = IteratedSequence.parse("6:[2,4,1|3,1,2|1,2,3]")
    M = weighting_matrix(seq)
    table = relation_table(6)

    initials, diffs = initial_terms(M.rows, table)
    print(f"{sum(len(t) == 2 for t in initials)} of {len(initials)} initial forms are binomial")
    print("example:", list(initials[0]))

    print(f"\n{len(diffs)} distinct strict inequalities, e.g. {diffs[0]}")

    e = strict_interior_point(diffs, 9)
    print("projection e =", e)
    print("slacks:", sorted({sum(a * b for a, b in zip(e, d)) for d in diffs}))

    w = weight_vector(e, M.rows)
    agreements = 0
    for terms, initial in zip(table, initials):
        scores = [w[a] + w[b] for _, a, b, _ in terms]
        low = min(scores)
        scalar = {mono for (_, _, _, mono), s in zip(terms, scores) if s == low}
        if scalar == {mono for _, mono in initial}:
            agreements += 1
    print(f"\nscalar weight w = e.M reproduces {agreements}/{len(table)} initial forms")
    print("w =", w)


if __name__ == "__main__":
    main()
