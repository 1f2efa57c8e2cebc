"""Command-line driver: enumerate, pipeline, orbit-of, verify, solve-cone,
version.

Every command but ``pipeline`` prints to stdout; ``pipeline --out`` is the
one that writes files.  Exit codes: 0 on success (also when the reader
closes stdout early, as ``| head`` does), 1 on an empty open cone for
``solve-cone`` and on an internal invariant violation, 2 on usage errors,
which include every ValueError.
n must be in 4..8; ``pipeline -n 8`` needs ``--seq``, and ``verify -n 8`` is
refused (``verify --fingerprints`` takes an n=8 file); ``pipeline --out``
must be missing or an empty directory; ``pipeline --jobs`` sets the worker
count, from 1 to the CPU count, which is the default.  Every ``pipeline``
run verifies its ideals and writes verify.json, which is what ``verify
--fingerprints`` prints for its fingerprints.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .classify import classify_gr36, compute_orbits, fingerprint_labels
from .cone import Infeasible, strict_interior_point, weight_vector
from .initial_forms import decode, inequalities_from_csv
from .pipeline import json_chunks, run_pipeline, verify_fingerprints, write_outputs
from .plucker import all_triples, triple_key
from .sequences import (
    IteratedSequence,
    count_labels,
    enumerate_sequences,
    format_label,
    parse_label,
    representatives,
    sequence_count,
    validate_label,
)
from .valuation import WeightingMatrix

# Triple keys, matrix CSVs, label file names and the schemas write one digit
# per index, so n cannot pass 9; n = 9 itself has 7.3e10 sequences, so the
# ceiling is 8.
MAX_N = 8
# A full sweep at n = 8 has 217,728,000 sequences: more than a run can
# enumerate and hold, so pipeline takes n = 8 only with --seq, and verify -n
# refuses it: its 13,320 kernels are cheap, but it would hold the ideals of
# all 302,400 labels and close their orbits.
MAX_SWEEP_N = 7


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grass-degen",
        description="Toric degenerations of Gr(3,n) from iterated birational sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all iterated sequences")
    p.set_defaults(run=cmd_enumerate)
    p.add_argument("-n", type=int, required=True)

    p = sub.add_parser("pipeline", help="run the full degeneration pipeline")
    p.set_defaults(run=cmd_pipeline)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out", default="grass-degen-out", help="output directory")
    p.add_argument("--seq", help="run a single serialized sequence")
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("orbit-of", help="orbit of a Gr(3,6) label, e.g. '(1,3;2,1)'")
    p.set_defaults(run=cmd_orbit_of)
    p.add_argument("label")

    p = sub.add_parser("verify", help="toricity evidence for a fingerprint set")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--fingerprints", help="fingerprints.json from a pipeline run")
    p.add_argument("-n", type=int, help="compute fingerprints for this n instead")

    p = sub.add_parser("solve-cone", help="interior point for an inequality CSV")
    p.set_defaults(run=cmd_solve_cone)
    p.add_argument("--inequalities", required=True)
    p.add_argument("--matrix", required=True, help="weighting-matrix CSV")

    p = sub.add_parser("version", help="print the tool version")
    p.set_defaults(run=cmd_version)
    return parser


def _check_n(parser, n: int, where: str = ""):
    if not 4 <= n <= MAX_N:
        parser.error(f"{where}n must be in 4..{MAX_N}, got {n}")


def cmd_enumerate(args, parser) -> int:
    _check_n(parser, args.n)
    out = sys.stdout
    count = 0
    for seq in enumerate_sequences(args.n):
        out.write(seq.serialize() + "\n")
        count += 1
    print(f"count={count}", file=sys.stderr)
    return 0


def cmd_pipeline(args, parser) -> int:
    _check_n(parser, args.n)
    if args.n > MAX_SWEEP_N and not args.seq:
        parser.error(
            f"pipeline -n {args.n} needs --seq: a full sweep of its "
            f"{sequence_count(args.n):,} sequences cannot finish"
        )
    # a run never mixes its files with those of an earlier run
    if os.path.lexists(args.out) and (not os.path.isdir(args.out) or os.listdir(args.out)):
        parser.error(f"--out {args.out} exists and is not an empty directory")
    sequences = [IteratedSequence.parse(args.seq)] if args.seq else None
    result = run_pipeline(args.n, jobs=args.jobs, sequences=sequences)
    write_outputs(result, args.out)
    print(result.summary())
    return 0


def cmd_orbit_of(args, parser) -> int:
    label = parse_label(args.label)
    validate_label(label, 6)
    report = classify_gr36()[label]
    print(
        f"label={format_label(label)} orbit={report.orbit_id} class={report.name} "
        f"isomorphism_class={report.isomorphism_class} "
        f"intersection={report.intersection_size} ambient={report.ambient_size}"
    )
    return 0


def _fingerprints_from_file(parser, path: str):
    """n and the fingerprints of a fingerprints.json; a file of the wrong
    shape is a usage error that names the path."""

    def need(ok: bool, what: str):
        if not ok:
            parser.error(f"{path}: {what}")

    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            parser.error(f"{path}: not JSON ({exc})")
    need(isinstance(payload, dict) and type(payload.get("n")) is int, "needs an integer 'n'")
    n = payload["n"]
    _check_n(parser, n, f"{path}: ")
    keys = {triple_key(t): t for t in all_triples(n)}

    def monomial(pair):
        need(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(k, str) and k in keys for k in pair),
            f"{pair!r} is not two increasing triples in 1..{n}",
        )
        # the graded ranks index a monomial by its sorted pair of triples
        return tuple(sorted((keys[pair[0]], keys[pair[1]])))

    entries = payload.get("fingerprints")
    need(isinstance(entries, list), "needs a 'fingerprints' list")
    fps = []
    for entry in entries:
        need(isinstance(entry, dict) and isinstance(entry.get("generators"), list),
             "every fingerprint needs a 'generators' list")
        gens = []
        for g in entry["generators"]:
            need(isinstance(g, dict) and {"lead", "trail", "sign"} <= g.keys(),
                 "every generator needs 'lead', 'trail' and 'sign'")
            need(type(g["sign"]) is int and g["sign"] in (1, -1), "a sign must be 1 or -1")
            lead, trail = monomial(g["lead"]), monomial(g["trail"])
            need(lead != trail, "a generator's lead and trail must be different monomials")
            gens.append((lead, trail, g["sign"]))
        fps.append(tuple(sorted(gens)))
    return n, fps


def cmd_verify(args, parser) -> int:
    if (args.fingerprints is None) == (args.n is None):
        parser.error("give exactly one of --fingerprints or -n")
    if args.fingerprints is not None:
        n, fps = _fingerprints_from_file(parser, args.fingerprints)
        # a file need not be closed under the action: every entry is computed
        count, orbits = len(fps), [(fp, (i,)) for i, fp in enumerate(fps)]
    else:
        n = args.n
        _check_n(parser, n)
        if n > MAX_SWEEP_N:
            parser.error(
                f"verify -n {n} cannot finish: it would hold the ideals of all "
                f"{count_labels(n):,} labels and close their orbits; give --fingerprints instead"
            )
        labels, _ = fingerprint_labels(representatives(n))
        count = len(labels)
        orbits = [(decode(r.members[0], n), r.member_ids) for r in compute_orbits(labels, n)]
    sys.stdout.writelines(json_chunks(verify_fingerprints(count, n, orbits)))
    return 0


def cmd_solve_cone(args, parser) -> int:
    with open(args.inequalities) as fh:
        diffs = inequalities_from_csv(fh.read())
    with open(args.matrix) as fh:
        try:
            matrix = WeightingMatrix.from_csv(fh.read())
        except ValueError as exc:
            parser.error(f"{args.matrix}: {exc}")
    if not matrix.rows:
        parser.error(f"{args.matrix} has no matrix rows")
    e, _ = strict_interior_point(diffs, len(matrix.rows[0]))
    w = weight_vector(e, matrix.rows)
    payload = {"e": list(e), "w": dict(zip(map(triple_key, matrix.triples), w))}
    sys.stdout.writelines(json_chunks(payload))
    return 0


def cmd_version(args, parser) -> int:
    print(__version__)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (Infeasible, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
