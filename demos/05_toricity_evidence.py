"""Evidence that an initial ideal is a flat toric degeneration target.

For one fingerprint: compares the degree-2 and degree-3 graded dimensions of
the binomial ideal with those of the full relation ideal (equal dimensions
are what a flat degeneration predicts), and certifies that the exponent
lattice is saturated via Smith normal form.  The relation ideal's ranks
come from ``plucker_rank``, the count of standard monomials that
verify.json records as its reference.
"""

from grassdegen.classify import fingerprint
from grassdegen.initial_forms import decode
from grassdegen.sequences import representative_sequence
from grassdegen.toricity import graded_rank, lattice_saturation, plucker_rank


def main():
    r2 = plucker_rank(2, 6)
    r3 = plucker_rank(3, 6)
    print(f"relation ideal: degree-2 rank {r2} (of 210 monomials), "
          f"degree-3 rank {r3} (of 1540)")

    fp = decode(fingerprint(representative_sequence(((2, 4), (3, 1)), 6)), 6)
    print(f"\nfingerprint of label (2,4;3,1): {len(fp)} binomial generators")
    f2 = graded_rank(fp, 2, 6)
    f3 = graded_rank(fp, 3, 6)
    print(f"graded ranks {f2} / {f3} "
          f"({'match' if (f2, f3) == (r2, r3) else 'MISMATCH'})")

    cert = lattice_saturation(fp)
    print(f"\nlattice rank {len(cert.invariant_factors)}, "
          f"invariant factors {sorted(set(cert.invariant_factors))}, "
          f"saturated: {cert.saturated}")
    plus = sum(1 for g in fp if g[2] == 1)
    print(f"{plus} generators normalize to sums; "
          f"rescaling consistent: {cert.pure_difference}")


if __name__ == "__main__":
    main()
