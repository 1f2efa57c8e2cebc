"""From initial forms to a point of the tropical Grassmannian.

Packs each valuation row as a base-5 integer, selects the initial terms of
all 135 relations as the terms of maximal packed sum, extracts the strict
inequalities an order-preserving projection must satisfy, each one int
difference of packed sums unpacked, solves the cone exactly in integers
(``strict_interior_point`` returns the point and its LP's pivot count),
and checks that the scalar weight vector reproduces every initial form.
The closed-form point c_i = -5^(8-i) scores each row by minus its packed
value.
"""

from grassdegen.cone import strict_interior_point, weight_vector
from grassdegen.initial_forms import (
    binomial_ids,
    inequalities,
    pack,
    relation_table,
    row_digits,
    select,
)
from grassdegen.plucker import triple_key
from grassdegen.sequences import IteratedSequence
from grassdegen.valuation import weighting_matrix


def main():
    seq = IteratedSequence.parse("6:[2,4,1|3,1,2|1,2,3]")
    M = weighting_matrix(seq)
    table = relation_table(6)

    packed = pack(row_digits(M.rows, 9))
    for triple, row, value in list(zip(M.triples, M.rows, packed))[:3]:
        print(f"row {triple_key(triple)} = {row} packs to {value}")
    certificate = tuple(-(5 ** (8 - i)) for i in range(9))
    print("c.M == -packed rows:", weight_vector(certificate, M.rows) == tuple(-p for p in packed))

    selection = select(packed, table)
    ids = binomial_ids(selection, table)
    print(f"\nall {table.count} initial forms binomial: {None not in ids}")
    print(f"{len(ids)} distinct initial binomials, e.g. {table.binomials[min(ids)]}")

    diffs = inequalities(selection, 9)
    print(f"\n{len(diffs)} distinct strict inequalities, e.g. {diffs[0]}")

    e, pivots = strict_interior_point(diffs, 9)
    print(f"projection e = {e} after {pivots} simplex pivots")
    print("slacks:", sorted({sum(a * b for a, b in zip(e, d)) for d in diffs}))

    w = weight_vector(e, M.rows)
    slots, maxima = selection
    agreements = 0
    for r in range(table.count):
        monomials = [table.terms[k] for k in range(r, 4 * table.count, table.count)]
        terms = [
            (w[table.first[m]] + w[table.second[m]], slot[r] == maxima[r])
            for m, slot in zip(monomials, slots)
            if slot[r] >= 0  # a three-term relation's padding slot is negative
        ]
        low = min(score for score, _ in terms)
        if all((score == low) == initial for score, initial in terms):
            agreements += 1
    print(f"\nscalar weight w = e.M reproduces {agreements}/{table.count} initial forms")
    print("w =", w)


if __name__ == "__main__":
    main()
