"""The full Gr(3,6) classification, from scratch.

Sweeps all 8640 iterated sequences, deduplicates their initial ideals into
240 fingerprints, and partitions those into the four orbits of the signed
S6 action.  Takes about a second on two cores.
"""

from collections import Counter

from grassdegen.pipeline import run_pipeline
from grassdegen.sequences import IteratedSequence, format_label, label_of


def main():
    result = run_pipeline(6)
    print(result.summary())

    # a sequence's ideal is its label's
    ideal_of = {label: fp for fp, labels in result.labels_by_fingerprint.items() for label in labels}
    fibers = Counter(
        ideal_of[label_of(IteratedSequence.parse(outcome.serialized).levels)]
        for outcome in result.outcomes
    )
    print(f"\nevery ideal comes from exactly "
          f"{min(fibers.values())} = {max(fibers.values())} sequences")

    print("\norbit table:")
    for report in result.orbit_reports:
        first = format_label(report.labels[0])
        print(f"  orbit {report.orbit_id} ({report.name}): {report.intersection_size} ideals, "
              f"ambient orbit {report.ambient_size}, "
              f"{report.escaped_count} images outside the set, first label {first}")

    o2 = next(r for r in result.orbit_reports if r.name == "O2")
    print("\nlabels of the O2 orbit all share the pattern (k,*;*,k):")
    print("  ", " ".join(format_label(l) for l in o2.labels[:8]), "...")


if __name__ == "__main__":
    main()
