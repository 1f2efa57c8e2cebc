"""One operation of the benchmark in a fresh process, traced or not.

    child.py [--spans FILE --run-id ID] cli ARG...
        run ``grass-degen ARG...`` in this process
    child.py [--spans FILE --run-id ID] fibers --input SEQS --out DIR --stats JSON
        run_pipeline over the serialized sequences in SEQS (one per line),
        write_outputs into DIR, and write the outcome invariants to JSON

With ``--spans`` every cross-module call of the package is recorded and the
spans are written to FILE when the operation ends; the last line of FILE
holds the seconds spent writing them, so that the caller can take them off
the process wall time.  The package is imported from ``src/`` of the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_fibers(input_path: str, outdir: str, stats_path: str) -> int:
    from grassdegen.pipeline import run_pipeline, write_outputs
    from grassdegen.sequences import IteratedSequence

    with open(input_path) as fh:
        sequences = [IteratedSequence.parse(line) for line in fh if line.strip()]
    result = run_pipeline(sequences[0].n, jobs=1, sequences=sequences)
    broken = [
        o.serialized
        for o in result.outcomes
        if not (o.all_binomial and o.projection_sound and o.scalar_matches)
    ]
    write_outputs(result, outdir)
    with open(stats_path, "w") as fh:
        json.dump({"sequences": len(result.outcomes), "broken": broken[:5],
                   "broken_count": len(broken)}, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="0")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("fibers")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", required=True)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        missing = tracer.install()
        if missing:
            print(f"untraced (not defined): {', '.join(missing)}", file=sys.stderr)
    try:
        if args.mode == "cli":
            from grassdegen.cli import main as cli_main

            code = cli_main(args.argv)
        else:
            code = run_fibers(args.input, args.out, args.stats)
    finally:
        if tracer is not None:
            tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
