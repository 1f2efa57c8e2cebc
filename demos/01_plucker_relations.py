"""The quadratic Pluecker relations of Gr(3,6).

Builds every nonzero relation R_{I,J}, shows the sign pattern of the
classical four-term relation for I = (1,2), J = (3,4,5,6), and counts how
relation shapes split by the overlap of I and J.
"""

from grassdegen.plucker import all_relations, plucker_relation, triple_key


def pretty(relation):
    _, _, terms = relation
    parts = []
    for sign, a, b in terms:
        parts.append(f"{'-' if sign < 0 else '+'} p_{triple_key(a)}*p_{triple_key(b)}")
    return " ".join(parts)


def main():
    relations = all_relations(6)
    three = [R for R in relations if len(R[2]) == 3]
    four = [R for R in relations if len(R[2]) == 4]
    print(f"Gr(3,6): {len(relations)} nonzero relations "
          f"({len(three)} with three terms, {len(four)} with four)")

    R = plucker_relation((1, 2), (3, 4, 5, 6))
    print("\nR_{(1,2),(3,4,5,6)} =", pretty(R))

    degenerate = plucker_relation((1, 2), (1, 2, 3, 4))
    print("\nR_{(1,2),(1,2,3,4)} =", degenerate, "(two overlaps: terms cancel in pairs)")

    I, J, _ = three[0]
    print("\nFirst three-term relation:", pretty(three[0]),
          f"   (I = {triple_key(I)}, J = {triple_key(J)})")


if __name__ == "__main__":
    main()
