"""grassdegen benchmark: end-to-end metrics of three workloads, or the
per-layer split of one workload from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists):
    gr36-full       grass-degen pipeline -n 6 --jobs 2, the paper's run
    gr37-one-orbit  run_pipeline(7, jobs=1) + write_outputs on whole label
                    fibers drawn by the seed from one signed-S7 orbit
    gr36-queries    closed loop, one client: grass-degen orbit-of and
                    grass-degen verify -n 6, one fresh process per query

Every operation runs the package from src/ of this checkout in a fresh
process and has its outputs checked.  With --trace 0 the operations repeat
until --seconds have passed and the end-to-end metrics are medians over
them.  With --trace 1 the workload's fixed work runs once untraced and once
traced, and the per-layer metrics come from the spans.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")

# Every run must end within 180 s; stop repeating operations before this.
DEADLINE_S = 165.0
SETUP_PROBES = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "sequences_per_s": "1/s",
    "query_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Workload sizes; the self-test shrinks them."""

    full_n: int = 6
    full_jobs: int = 2
    full_sequences: int = 8640
    full_summary: str = "sequences=8640 ideals=240 orbits=[48,48,48,96]"
    full_hashes: str = "gr36_full.sha256"
    # One signed-S7 orbit, fixed by a label on it; the seed draws the fibers.
    orbit_n: int = 7
    orbit_label: tuple = ((1, 2), (1, 2), (3, 4))
    orbit_ambient: int = 1260
    orbit_fibers: int = 4
    # One pass of the query loop: this many orbit-of and verify -n 6 calls.
    orbit_of_queries: int = 5
    verify_queries: int = 1


FULL = Sizes()


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict:
    # Bytecode caching stays on, as for an installed package, whatever the
    # caller's environment says; the first `version` launch fills the cache.
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: list[str], stdout_path: str, deadline: float) -> tuple[float, int, float]:
    """Run argv to completion; returns (wall seconds, exit code, max RSS in MB).

    The max RSS comes from wait4, so it covers the process and every worker
    it waited for.  A process still running at the deadline is killed.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "grassdegen.cli", *args]


def child_argv(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), *args]


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_pipeline_outputs(outdir: str, stdout_text: str, sizes: Sizes) -> list[str]:
    """Summary line and the sha256 of every data file except the manifest."""
    problems = []
    lines = stdout_text.strip().splitlines()
    if not lines or lines[-1] != sizes.full_summary:
        problems.append(f"summary {lines[-1:]!r} != {sizes.full_summary!r}")
    expected = {}
    with open(os.path.join(EXPECTED, sizes.full_hashes)) as fh:
        for line in fh:
            digest, path = line.split(maxsplit=1)
            expected[path.strip()] = digest
    found = set()
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            found.add(os.path.relpath(os.path.join(dirpath, name), outdir))
    if "manifest.json" not in found:
        problems.append("manifest.json missing")
    found.discard("manifest.json")
    if found != set(expected):
        problems.append(f"data files differ: {sorted(found ^ set(expected))[:5]}")
    for path in sorted(found & set(expected)):
        if _sha256(os.path.join(outdir, path)) != expected[path]:
            problems.append(f"sha256 of {path} differs")
    return problems


def check_orbit_outputs(outdir: str, stats_path: str, draw: dict) -> list[str]:
    """Invariants of a one-orbit run: every outcome binomial, sound and
    scalar-matching, one ideal per fiber, one orbit, Pluecker-rank verify."""
    problems = []
    with open(stats_path) as fh:
        stats = json.load(fh)
    if stats["sequences"] != draw["sequences"]:
        problems.append(f"swept {stats['sequences']} of {draw['sequences']} sequences")
    if stats["broken_count"]:
        problems.append(f"{stats['broken_count']} outcomes break an invariant, e.g. {stats['broken']}")
    with open(os.path.join(outdir, "fingerprints.json")) as fh:
        fingerprints = json.load(fh)
    labels = sorted(tuple(entry["labels"]) for entry in fingerprints["fingerprints"])
    if labels != sorted((label,) for label in draw["labels"]):
        problems.append(f"ideals per label {labels} do not match one ideal per fiber")
    with open(os.path.join(outdir, "orbits.json")) as fh:
        orbits = json.load(fh)["orbits"]
    if [(o["intersection_size"], o["ambient_size"]) for o in orbits] != [
        (len(draw["labels"]), draw["ambient"])
    ]:
        problems.append(f"orbits {[(o['intersection_size'], o['ambient_size']) for o in orbits]}")
    with open(os.path.join(outdir, "verify.json")) as fh:
        verify = json.load(fh)
    ranks = (verify["plucker"]["rank2"], verify["plucker"]["rank3"])
    records = verify["fingerprints"]
    if len(records) != len(draw["labels"]) or not all(
        (r["rank2"], r["rank3"]) == ranks and r["snf_ok"] for r in records
    ):
        problems.append("verify records differ from the Pluecker ranks or fail snf_ok")
    return problems


def _expected_orbit_of() -> dict[str, str]:
    with open(os.path.join(EXPECTED, "gr36_orbit_of.txt")) as fh:
        return {line.split()[0][len("label="):]: line.rstrip("\n") for line in fh}


def check_orbit_of(stdout_text: str, expected_line: str) -> list[str]:
    got = stdout_text.rstrip("\n")
    return [] if got == expected_line else [f"orbit-of printed {got!r}, expected {expected_line!r}"]


GR36_PLUCKER_RANKS = (35, 560)
GR36_IDEALS = 240


def check_verify(stdout_text: str) -> list[str]:
    try:
        report = json.loads(stdout_text)
    except ValueError:
        return ["verify -n 6 printed no JSON"]
    ranks = (report["plucker"]["rank2"], report["plucker"]["rank3"])
    records = report["fingerprints"]
    problems = []
    if ranks != GR36_PLUCKER_RANKS:
        problems.append(f"Pluecker ranks {ranks}")
    if len(records) != GR36_IDEALS:
        problems.append(f"{len(records)} fingerprints, expected {GR36_IDEALS}")
    if not all((r["rank2"], r["rank3"]) == ranks for r in records):
        problems.append("a fingerprint is not at the Pluecker ranks")
    return problems


# ---------------------------------------------------------------------------
# bookkeeping of one benchmark run


class Run:
    """Operations of one benchmark run, their timings and their failures."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self._count = itertools.count()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{next(self._count)}-{name}")

    def operation(self, argv: list[str], check) -> tuple[float, str]:
        """Run one operation in a fresh process and check it.

        ``check(stdout_text)`` returns the problems found in the output of
        a process that exited with 0.  Returns the wall time and the stdout
        path.
        """
        stdout_path = self.path("stdout")
        wall, code, rss = run_process(argv, stdout_path, self.deadline)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        with open(stdout_path) as fh:
            text = fh.read()
        problems = [f"exit code {code}"] if code else []
        if not problems:
            try:
                problems = check(text)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            with open(stdout_path + ".err") as fh:
                tail = fh.read()[-400:]
            print(f"FAILED {' '.join(argv[1:])}: {problems[:3]} {tail}", file=sys.stderr)
        return wall, stdout_path

    def time_left(self, expected: float) -> bool:
        return time.monotonic() + expected < self.deadline

    def repeat(self, once) -> list:
        """Call once() until --seconds have passed (at least once)."""
        results = []
        start = time.monotonic()
        while True:
            before = time.monotonic()
            results.append(once())
            took = time.monotonic() - before
            if time.monotonic() - start >= self.seconds or not self.time_left(took):
                return results


def measure_setup(run: Run) -> float:
    """Median wall time of `grass-degen version` in a fresh process: the
    interpreter start and package import that every CLI call pays."""

    def check(text: str) -> list[str]:
        return [] if text.strip() else ["version printed nothing"]

    run.operation(cli_argv("version"), check)  # warm the bytecode cache
    walls = [run.operation(cli_argv("version"), check)[0] for _ in range(SETUP_PROBES)]
    return statistics.median(walls)


def traced_operation(run: Run, argv: list[str], check, run_id: str) -> tuple[float, list]:
    """Run child.py traced; returns (wall without the span write, spans)."""
    from tracing import read_spans

    os.makedirs(TRACES, exist_ok=True)
    spans_path = os.path.join(
        TRACES, f"{run.workload}-seed{run.seed}-{os.getpid()}-{run_id}.jsonl.gz"
    )
    wall, _ = run.operation(child_argv("--spans", spans_path, "--run-id", run_id, *argv), check)
    if not os.path.exists(spans_path):
        return wall, []  # the operation is already counted as failed
    spans, tail = read_spans(spans_path)
    return wall - tail["write_s"], spans


# ---------------------------------------------------------------------------
# gr36-full


def _pipeline_op(run: Run, sizes: Sizes, jobs: int, traced_id: str | None = None):
    outdir = run.path("out")
    args = ("pipeline", "-n", str(sizes.full_n), "--jobs", str(jobs), "--out", outdir)

    def check(text: str) -> list[str]:
        return check_pipeline_outputs(outdir, text, sizes)

    if traced_id is None:
        wall, _ = run.operation(cli_argv(*args), check)
        spans = None
    else:
        wall, spans = traced_operation(run, ["cli", *args], check, traced_id)
    try:
        with open(os.path.join(outdir, "manifest.json")) as fh:
            timings = json.load(fh)["timings"]
    except (OSError, ValueError, KeyError):
        timings = {}  # the operation is already counted as failed
    shutil.rmtree(outdir, ignore_errors=True)
    return wall, timings, spans


def gr36_full(run: Run, sizes: Sizes, setup_s: float) -> dict:
    if not run.trace:
        walls = [w for w, _, _ in run.repeat(lambda: _pipeline_op(run, sizes, sizes.full_jobs))]
        return end_to_end(run, walls, [w * 1000 for w in walls], sizes.full_sequences, setup_s)
    _, parallel, _ = _pipeline_op(run, sizes, sizes.full_jobs)
    serial_wall, serial, _ = _pipeline_op(run, sizes, 1)
    traced_wall, _, spans = _pipeline_op(run, sizes, 1, traced_id="0")
    extra = {
        "pipeline.parallel_efficiency": (
            serial.get("sweep", 0.0) / (sizes.full_jobs * parallel["sweep"])
            if parallel.get("sweep") else 0.0
        ),
        "trace.overhead_ratio": traced_wall / serial_wall,
    }
    return per_layer([spans], extra)


# ---------------------------------------------------------------------------
# gr37-one-orbit


def fiber(label, n: int) -> list:
    """Every sequence with the given label, in enumeration order."""
    from grassdegen.sequences import IteratedSequence

    pools = [
        [(a, b, c) for c in range(1, n - t) if c not in (a, b)] for t, (a, b) in enumerate(label)
    ]
    return [
        IteratedSequence(n, levels, base)
        for levels in itertools.product(*pools)
        for base in itertools.permutations((1, 2, 3))
    ]


def _distinct_lp_keys(members: list, relations) -> bool:
    """True when no two sequences share an inequality set, the key of the
    pipeline's LP cache, so that every sequence of the fiber solves an LP."""
    from grassdegen.initial_forms import inequality_set
    from grassdegen.valuation import weighting_matrix

    seen = set()
    for seq in members:
        key = inequality_set(seq, weighting_matrix(seq), relations)
        if key in seen:
            return False
        seen.add(key)
    return True


def draw_orbit_fibers(seed: int, sizes: Sizes) -> dict:
    """Labels of one signed-S_n orbit, drawn by the seed, with their fibers.

    Scans the labels in a seeded order and keeps those whose representative's
    fingerprint lies in the orbit closure and whose fiber has pairwise
    distinct LP inputs.  Asserts that a second, seeded member of every chosen
    fiber has its ideal in the same orbit; a draw that breaks this raises
    instead of being drawn again.
    """
    from grassdegen.classify import fingerprint, orbit_closure
    from grassdegen.plucker import all_relations
    from grassdegen.sequences import all_labels, format_label, representative_sequence

    n = sizes.orbit_n
    orbit = orbit_closure(fingerprint(representative_sequence(sizes.orbit_label, n)), n)
    if len(orbit) != sizes.orbit_ambient:
        raise BenchError(f"orbit of {sizes.orbit_label} has {len(orbit)} ideals, "
                         f"expected {sizes.orbit_ambient}")
    relations = all_relations(n)
    rng = random.Random(seed)
    labels = list(all_labels(n))
    rng.shuffle(labels)
    chosen = []
    for label in labels:
        if fingerprint(representative_sequence(label, n)) not in orbit:
            continue
        members = fiber(label, n)
        if _distinct_lp_keys(members, relations):
            chosen.append((label, members))
            if len(chosen) == sizes.orbit_fibers:
                break
    if len(chosen) < sizes.orbit_fibers:
        raise BenchError(f"orbit holds only {len(chosen)} fibers to draw from")
    sequences = []
    for label, members in chosen:
        witness = rng.choice(members)
        if fingerprint(witness) not in orbit:
            raise BenchError(f"fiber {format_label(label)} leaves the orbit at {witness}")
        sequences.extend(members)
    return {
        "labels": [format_label(label) for label, _ in chosen],
        "ambient": len(orbit),
        "sequences": len(sequences),
        "serialized": [s.serialize() for s in sequences],
    }


def _orbit_op(run: Run, draw: dict, input_path: str, traced_id: str | None = None):
    outdir, stats = run.path("out"), run.path("stats.json")
    args = ["fibers", "--input", input_path, "--out", outdir, "--stats", stats]

    def check(text: str) -> list[str]:
        return check_orbit_outputs(outdir, stats, draw)

    if traced_id is None:
        wall, _ = run.operation(child_argv(*args), check)
        spans = None
    else:
        wall, spans = traced_operation(run, args, check, traced_id)
    shutil.rmtree(outdir, ignore_errors=True)
    return wall, spans


def gr37_one_orbit(run: Run, sizes: Sizes, setup_s: float) -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    draw = draw_orbit_fibers(run.seed, sizes)
    input_path = run.path("sequences.txt")
    with open(input_path, "w") as fh:
        fh.write("\n".join(draw.pop("serialized")) + "\n")
    print("inputs: " + json.dumps(draw, sort_keys=True))
    if not run.trace:
        walls = [w for w, _ in run.repeat(lambda: _orbit_op(run, draw, input_path))]
        return end_to_end(run, walls, [w * 1000 for w in walls], draw["sequences"], setup_s)
    untraced_wall, _ = _orbit_op(run, draw, input_path)
    traced_wall, spans = _orbit_op(run, draw, input_path, traced_id="0")
    return per_layer([spans], {"trace.overhead_ratio": traced_wall / untraced_wall})


# ---------------------------------------------------------------------------
# gr36-queries

# Each query fingerprints one representative sequence per Gr(3,6) label.
SEQUENCES_PER_QUERY = 240


def query_plan(seed: int, sizes: Sizes) -> list[tuple[str, ...]]:
    """One pass of the closed loop: seeded orbit-of labels and verify calls
    in a seeded order."""
    rng = random.Random(seed)
    labels = rng.sample(sorted(_expected_orbit_of()), sizes.orbit_of_queries)
    plan = [("orbit-of", label) for label in labels]
    plan += [("verify", "-n", "6")] * sizes.verify_queries
    rng.shuffle(plan)
    return plan


def _query_op(run: Run, query: tuple[str, ...], expected: dict, traced_id: str | None = None):
    if query[0] == "orbit-of":
        def check(text: str) -> list[str]:
            return check_orbit_of(text, expected[query[1]])
    else:
        check = check_verify
    if traced_id is None:
        return run.operation(cli_argv(*query), check)[0], None
    return traced_operation(run, ["cli", *query], check, traced_id)


def gr36_queries(run: Run, sizes: Sizes, setup_s: float) -> dict:
    plan = query_plan(run.seed, sizes)
    expected = _expected_orbit_of()
    print("inputs: " + json.dumps({"queries": [" ".join(q) for q in plan]}))
    if not run.trace:
        passes = run.repeat(lambda: [_query_op(run, q, expected)[0] for q in plan])
        latencies = [w * 1000 for walls in passes for w in walls]
        return end_to_end(
            run, [sum(walls) for walls in passes], latencies, SEQUENCES_PER_QUERY * len(plan), setup_s
        )
    untraced = sum(_query_op(run, q, expected)[0] for q in plan)
    traced = [_query_op(run, q, expected, traced_id=str(i)) for i, q in enumerate(plan)]
    return per_layer(
        [spans for _, spans in traced],
        {"trace.overhead_ratio": sum(w for w, _ in traced) / untraced},
    )


# ---------------------------------------------------------------------------
# results


def end_to_end(run: Run, walls: list[float], latencies_ms: list[float], sequences: int,
               setup_s: float) -> dict:
    """``walls``: one wall time per repetition of the workload's fixed work,
    which sweeps ``sequences`` sequences; ``latencies_ms``: one per process."""
    print("operations: " + json.dumps({
        "wall_s": [round(w, 3) for w in walls],
        "latency_ms": [round(x, 1) for x in latencies_ms],
    }))
    return {
        "wall_s": statistics.median(walls),
        "sequences_per_s": statistics.median(sequences / w for w in walls),
        "query_p50_ms": statistics.median(latencies_ms),
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(runs: list[list], extra: dict) -> dict:
    from tracing import layer_metrics

    metrics = layer_metrics(runs)
    metrics.setdefault("pipeline.parallel_efficiency", 0.0)
    metrics.update(extra)
    return metrics


WORKLOADS = {
    "gr36-full": gr36_full,
    "gr37-one-orbit": gr37_one_orbit,
    "gr36-queries": gr36_queries,
}


def provenance(seed: int, sizes: Sizes) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    paths = []
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths.extend(os.path.relpath(os.path.join(dirpath, name), SRC) for name in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(SRC, path), "rb") as fh:
            digest.update(fh.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "sizes": dataclasses.asdict(sizes),
        "loadavg": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one workload and return the result object the last line prints."""
    if not os.path.isfile(os.path.join(SRC, "grassdegen", "cli.py")):
        raise BenchError(f"no grassdegen package under {SRC}")
    print("provenance: " + json.dumps(provenance(seed, sizes), sort_keys=True))
    run = Run(workload, seed, seconds, trace)
    os.makedirs(run.workdir, exist_ok=True)
    try:
        setup_s = measure_setup(run)
        metrics = WORKLOADS[workload](run, sizes, setup_s)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if trace:
        from tracing import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        # pipeline.sweep_s contains the sweep's layers, so it is left out
        times = sorted(
            ((m["value"], name) for name, m in result["metrics"].items()
             if m["unit"] == "s" and name != "pipeline.sweep_s"),
            reverse=True,
        )
        print("layers by time: " + ", ".join(f"{name}={value:.3g}" for value, name in times[:4]))
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
