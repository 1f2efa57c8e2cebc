"""End-to-end driver: valuations -> initial forms -> cone -> classification
-> toricity evidence, in stages that share one worker pool.

The sweep checks and fingerprints every sequence through
``initial_forms.initial_ideal``, the kernel of ``classify.fingerprint`` too:
a worker builds each sequence's ``SequenceOutcome``, which carries its
initial ideal, and raises a RuntimeError that names the first sequence that
breaks an invariant.  The merge keeps one map from fingerprint to labels,
whose sorted order numbers the ideals.  The LP stage then solves one LP per
label, on the label's first sequence in run order, whose point weights.json
holds.  All emitted files are byte-stable across runs and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool

from . import __version__
from .classify import compute_orbits, OrbitReport
from .cone import strict_interior_point, weight_vector
from .exactlinalg import exact_rank
from .initial_forms import Binomial, Fingerprint, decode, inequality_set, initial_ideal
from .plucker import all_relations, all_triples, triple_key
from .sequences import (
    IteratedSequence,
    Label,
    enumerate_sequences,
    format_label,
    label_of,
)
from .toricity import binomial_form, graded_rank, lattice_saturation, relation_form
from .valuation import weighting_matrix


# slots: the parent unpickles one outcome per sequence and keeps them all
@dataclass(frozen=True, slots=True)
class SequenceOutcome:
    serialized: str
    label: Label
    fingerprint: Fingerprint
    all_binomial: bool
    projection_sound: bool
    scalar_matches: bool


@dataclass
class PipelineResult:
    n: int
    outcomes: list[SequenceOutcome]
    # keys sorted, which is the id order of fingerprints.json; labels sorted
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]]
    label_weights: dict[Label, tuple[str, tuple[int, ...], tuple[int, ...]]]
    orbit_reports: list[OrbitReport]
    verify: dict | None  # the verify.json document; None when skipped
    timings: dict[str, float]
    counters: dict[str, int]

    @property
    def fingerprints(self) -> list[Fingerprint]:
        return list(self.labels_by_fingerprint)

    def summary(self) -> str:
        sizes = ",".join(str(s) for s in sorted(r.intersection_size for r in self.orbit_reports))
        return (
            f"sequences={len(self.outcomes)} ideals={len(self.labels_by_fingerprint)} "
            f"orbits=[{sizes}]"
        )


def _sweep_chunk(chunk: list[str]) -> list[SequenceOutcome]:
    """Check and fingerprint one chunk of serialized sequences; returns
    their outcomes in order.

    ``initial_ideal`` checks premise (a) of ``initial_forms``, that every
    valuation row is 0/1, from which the scalar check and the soundness of
    the closed-form point c follow, as (i) and (ii) there.  A row outside 0/1,
    a non-binomial initial form, a weighting matrix of rank below 3(n-3) or
    any other failure raises one RuntimeError that names the sequence, so
    every flag of a returned outcome holds.  Equal fingerprints are one
    object within the chunk, so that pickling sends each ideal once.
    """
    shared: dict[Fingerprint, Fingerprint] = {}
    outcomes = []
    for serialized in chunk:
        try:
            seq = IteratedSequence.parse(serialized)
            rows = weighting_matrix(seq).rows
            fp = initial_ideal(rows, seq.n)
            rank = exact_rank({i: x for i, x in enumerate(row) if x} for row in rows)
            if rank != 3 * (seq.n - 3):
                raise ValueError(f"weighting matrix has rank {rank}, below 3(n-3)")
        except Exception as exc:
            raise RuntimeError(f"sequence {serialized}: {exc}") from exc
        fp = shared.setdefault(fp, fp)
        outcomes.append(SequenceOutcome(serialized, label_of(seq), fp, True, True, True))
    return outcomes


def _label_point(serialized: str) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """The LP point e of one sequence's cone and its weight vector e.M."""
    try:
        seq = IteratedSequence.parse(serialized)
        matrix = weighting_matrix(seq)
        e = strict_interior_point(inequality_set(seq, matrix), 3 * (seq.n - 3))
        return serialized, e, weight_vector(e, matrix.rows)
    except Exception as exc:
        raise RuntimeError(f"sequence {serialized}: {exc}") from exc


def _verify_entry(item) -> dict:
    fp_id, fp, n = item
    forms = [binomial_form(g) for g in fp]
    cert = lattice_saturation(fp)
    return {
        "id": fp_id, "rank2": graded_rank(forms, 2, n), "rank3": graded_rank(forms, 3, n),
        "snf_ok": cert.saturated, "pure_difference": cert.pure_difference,
    }


def _chunked(items: list, pieces: int) -> list[list]:
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def verify_fingerprints(
    fingerprints: list[tuple[Binomial, ...]], n: int, mapper=map
) -> dict:
    """The verify.json document: degree-2 and degree-3 ranks of the Pluecker
    relation ideal, and the entry of each decoded fingerprint, with ids
    numbering them in order.  ``mapper`` maps over the fingerprints, e.g. a
    pool's ``map``."""
    reference_forms = [relation_form(R) for R in all_relations(n)]
    items = [(fp_id, fp, n) for fp_id, fp in enumerate(fingerprints)]
    return {
        "n": n,
        "plucker": {
            "rank2": graded_rank(reference_forms, 2, n),
            "rank3": graded_rank(reference_forms, 3, n),
        },
        "fingerprints": list(mapper(_verify_entry, items)),
    }


def run_pipeline(
    n: int,
    jobs: int | None = None,
    skip_verify: bool = False,
    sequences: list[IteratedSequence] | None = None,
) -> PipelineResult:
    """Run the whole chain for Gr(3,n); raises ValueError for a sequence of
    another n, and RuntimeError, naming the sequence, on a bug or on a
    sequence that breaks an invariant, before the orbit stage.  ``jobs`` is
    at least 1, else ValueError, and at most the CPU count, which is its
    default; the stages share one pool of that many workers when there are
    more than 64 sequences."""
    cpus = os.cpu_count() or 1
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs if jobs is not None else cpus, cpus)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    if sequences is None:
        serialized = [s.serialize() for s in enumerate_sequences(n)]
    else:
        for s in sequences:
            if s.n != n:
                raise ValueError(f"sequence {s.serialize()} has n={s.n}, but the run has n={n}")
        serialized = [s.serialize() for s in sequences]
    timings["enumerate"] = time.perf_counter() - start

    start = time.perf_counter()  # the sweep's time includes starting the pool
    parallel = jobs > 1 and len(serialized) > 64
    with (Pool(jobs) if parallel else nullcontext()) as pool:
        mapper = pool.map if parallel else map
        chunks = _chunked(serialized, jobs * 8)
        outcomes = [o for part in mapper(_sweep_chunk, chunks) for o in part]
        labels: dict[Fingerprint, set[Label]] = {}
        first: dict[Label, str] = {}  # each label's first sequence in run order
        for o in outcomes:
            labels.setdefault(o.fingerprint, set()).add(o.label)
            first.setdefault(o.label, o.serialized)
        labels_by_fingerprint = {fp: tuple(sorted(labels[fp])) for fp in sorted(labels)}
        timings["sweep"] = time.perf_counter() - start

        start = time.perf_counter()
        label_weights = dict(zip(first, mapper(_label_point, first.values())))
        timings["lp"] = time.perf_counter() - start

        start = time.perf_counter()
        orbit_reports = compute_orbits(labels_by_fingerprint, n)
        timings["orbits"] = time.perf_counter() - start

        verify = None
        if not skip_verify:
            start = time.perf_counter()
            verify = verify_fingerprints(
                [decode(fp, n) for fp in labels_by_fingerprint], n, mapper
            )
            timings["verify"] = time.perf_counter() - start

    return PipelineResult(
        n=n,
        outcomes=outcomes,
        labels_by_fingerprint=labels_by_fingerprint,
        label_weights=label_weights,
        orbit_reports=orbit_reports,
        verify=verify,
        timings=timings,
        counters={
            "lp_solves": len(label_weights),
            # each closure takes n-1 images of every member of its orbit
            "orbit_images": sum(r.ambient_size for r in orbit_reports) * (n - 1),
            "max_abs_e": max((abs(x) for _, e, _ in label_weights.values() for x in e), default=0),
        },
    )


# ---------------------------------------------------------------------------
# serialization of results


def generator_to_json(gen) -> dict:
    lead, trail, sign = gen
    return {
        "lead": [triple_key(lead[0]), triple_key(lead[1])],
        "trail": [triple_key(trail[0]), triple_key(trail[1])],
        "sign": sign,
    }


def dump_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _label_filename(label: Label) -> str:
    if not label:
        return "base.csv"
    return "-".join(f"{a}{b}" for a, b in label) + ".csv"


def _inputs_sha256(result: PipelineResult, command: str) -> str:
    """Hash of what determines the outputs: n, the command, the sequences in
    run order and whether verify ran (the worker count does not matter)."""
    settings = {"n": result.n, "command": command, "verify": result.verify is not None}
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode())
    for outcome in result.outcomes:
        digest.update(f"\n{outcome.serialized}".encode())
    return digest.hexdigest()


def _output_entry(path: str, outdir: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        "path": os.path.relpath(path, outdir),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def write_outputs(result: PipelineResult, outdir: str, command: str = "pipeline") -> str:
    """Write matrices/, weights.json, fingerprints.json, orbits.json,
    verify.json (unless skipped) and a manifest; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    matrices_dir = os.path.join(outdir, "matrices")
    os.makedirs(matrices_dir, exist_ok=True)

    written = []

    for label in sorted(result.label_weights):
        witness = result.label_weights[label][0]
        matrix = weighting_matrix(IteratedSequence.parse(witness))
        path = os.path.join(matrices_dir, _label_filename(label))
        with open(path, "w") as fh:
            fh.write(matrix.to_csv())
        written.append(path)

    triples = all_triples(result.n)
    weights_payload = {
        "n": result.n,
        "labels": {
            format_label(label): {
                "e": list(e),
                "w": {triple_key(t): value for t, value in zip(triples, w)},
            }
            for label, (_, e, w) in result.label_weights.items()
        },
    }
    path = os.path.join(outdir, "weights.json")
    dump_json(path, weights_payload)
    written.append(path)

    fingerprints_payload = {
        "n": result.n,
        "count": len(result.labels_by_fingerprint),
        "fingerprints": [
            {
                "id": fid,
                "labels": [format_label(l) for l in labels],
                "generators": [generator_to_json(g) for g in decode(fp, result.n)],
            }
            for fid, (fp, labels) in enumerate(result.labels_by_fingerprint.items())
        ],
    }
    path = os.path.join(outdir, "fingerprints.json")
    dump_json(path, fingerprints_payload)
    written.append(path)

    fp_ids = {fp: i for i, fp in enumerate(result.labels_by_fingerprint)}
    orbits_payload = {
        "n": result.n,
        "orbits": [
            {
                "id": r.orbit_id,
                "intersection_size": r.intersection_size,
                "ambient_size": r.ambient_size,
                "escaped_count": r.escaped_count,
                "fingerprint_ids": [fp_ids[m] for m in r.members],
                "labels": [format_label(l) for l in r.labels],
                **(
                    {"class": r.name, "isomorphism_class": r.isomorphism_class}
                    if r.name
                    else {}
                ),
            }
            for r in result.orbit_reports
        ],
    }
    path = os.path.join(outdir, "orbits.json")
    dump_json(path, orbits_payload)
    written.append(path)

    path = os.path.join(outdir, "orbits.csv")
    with open(path, "w") as fh:
        fh.write("orbit,class,intersection_size,ambient_size,labels\n")
        for r in result.orbit_reports:
            labels = " ".join(format_label(l) for l in r.labels)
            fh.write(f"{r.orbit_id},{r.name},{r.intersection_size},{r.ambient_size},{labels}\n")
    written.append(path)

    if result.verify is not None:
        path = os.path.join(outdir, "verify.json")
        dump_json(path, result.verify)
        written.append(path)

    manifest = {
        "command": command,
        "n": result.n,
        "version": __version__,
        "inputs": {"sha256": _inputs_sha256(result, command)},
        "timings": {k: round(v, 3) for k, v in result.timings.items()},
        "counters": result.counters,
        "outputs": [_output_entry(p, outdir) for p in written],
    }
    manifest_path = os.path.join(outdir, "manifest.json")
    dump_json(manifest_path, manifest)
    return manifest_path
