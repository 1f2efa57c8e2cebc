"""Self-test of the benchmark at reduced size: the n=5 pipeline in place of
n=6, a single n=7 fiber, one orbit-of query.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that --trace 0 prints every
end-to-end metric and --trace 1 every per-layer metric, each with the unit
BENCHMARK.json gives it, and that the reduced run is correct.  Then checks
that a corrupted output file is counted as a failed operation.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

SMALL = dataclasses.replace(
    run.FULL,
    full_n=5,
    full_sequences=144,
    full_summary="sequences=144 ideals=12 orbits=[12]",
    full_hashes="gr35_full.sha256",
    orbit_fibers=1,
    orbit_of_queries=1,
    verify_queries=0,
)


def printed_result(workload: str, trace: int) -> tuple[dict, str]:
    """Run the benchmark's command line at reduced size; returns the last
    line's object and everything printed."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=SMALL)
    text = out.getvalue()
    if code != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {code}")
    return json.loads(text.strip().splitlines()[-1]), text


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[kind]}
        for workload in (w["name"] for w in bench["workloads"]):
            result, text = printed_result(workload, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != wanted:
                problems.append(f"{workload} --trace {trace}: metrics {units} != {wanted}")
            lines = text.splitlines()
            for name, unit in wanted.items():
                if not any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines):
                    problems.append(f"{workload} --trace {trace}: {name} [{unit}] not printed")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: reduced run not correct")
            print(f"ok {workload} --trace {trace}: {result['attempted']} operations", file=sys.stderr)

    check = run.check_pipeline_outputs

    def corrupting(outdir, stdout_text, sizes):
        with open(os.path.join(outdir, "weights.json"), "a") as fh:
            fh.write(" ")
        return check(outdir, stdout_text, sizes)

    print("the next FAILED line is expected: weights.json is corrupted on purpose", file=sys.stderr)
    run.check_pipeline_outputs = corrupting
    try:
        result, _ = printed_result("gr36-full", 0)
    finally:
        run.check_pipeline_outputs = check
    pipelines = result["attempted"] - (run.SETUP_PROBES + 1)
    if result["correct"] or pipelines < 1 or result["failed"] != pipelines:
        problems.append(f"corrupted weights.json not counted as a failure: {result}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
