"""End-to-end driver: valuations -> initial forms -> cone -> classification
-> toricity evidence, fanned out over sequences with a deterministic merge.

Each sequence goes through the initial-form kernel of ``initial_forms``;
results are merged in enumeration order, fingerprints are renumbered in
canonical sorted order, and all emitted files are byte-stable across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool

from . import __version__
from .classify import (
    Fingerprint,
    annotate_gr36_orbits,
    binomial_generators,
    compute_orbits,
    ORBIT_CLASS_NAMES,
    OrbitReport,
)
from .cone import strict_interior_point, weight_vector
from .exactlinalg import exact_rank
from .initial_forms import initial_terms, relation_table
from .plucker import all_relations, all_triples, triple_key
from .sequences import (
    IteratedSequence,
    Label,
    enumerate_sequences,
    format_label,
    label_of,
)
from .toricity import binomial_form, graded_rank, lattice_saturation, relation_form
from .valuation import compute_valuation, weighting_matrix


@dataclass(frozen=True)
class SequenceOutcome:
    serialized: str
    label: Label
    fingerprint_id: int
    all_binomial: bool
    matrix_rank: int
    projection_sound: bool
    scalar_matches: bool


@dataclass(frozen=True)
class VerificationRecord:
    fingerprint_id: int
    rank2: int
    rank3: int
    snf_ok: bool
    pure_difference: bool


@dataclass
class PipelineResult:
    n: int
    outcomes: list[SequenceOutcome]
    fingerprints: list[Fingerprint]
    labels_of_fingerprint: dict[int, tuple[Label, ...]]
    label_weights: dict[Label, tuple[str, tuple[int, ...], tuple[int, ...]]]
    orbit_reports: list[OrbitReport]
    orbit_names: dict[int, str]
    plucker_ranks: tuple[int, int] | None
    verification: list[VerificationRecord]
    timings: dict[str, float]
    counters: dict[str, int]

    def orbit_sizes(self) -> list[int]:
        return sorted(r.intersection_size for r in self.orbit_reports)

    def summary(self) -> str:
        sizes = ",".join(str(s) for s in self.orbit_sizes())
        return (
            f"sequences={len(self.outcomes)} ideals={len(self.fingerprints)} "
            f"orbits=[{sizes}]"
        )


def _sweep_one(serialized: str, triples, table, certificate):
    seq = IteratedSequence.parse(serialized)
    rows = [compute_valuation(seq, K) for K in triples]

    initials, diffs = initial_terms(rows, table)
    binomial = all(len(terms) == 2 for terms in initials)
    fp = binomial_generators(initials)
    rank = exact_rank({i: x for i, x in enumerate(row) if x} for row in rows)

    sound = all(sum(a * b for a, b in zip(certificate, d)) >= 1 for d in diffs)

    weights = weight_vector(certificate, rows)
    scalar_ok = True
    for terms, initial in zip(table, initials):
        scored = [(weights[a] + weights[b], mono) for (_, a, b, mono) in terms]
        low = min(s for s, _ in scored)
        if {mono for s, mono in scored if s == low} != {mono for _, mono in initial}:
            scalar_ok = False
            break

    return seq, rows, diffs, fp, rank, sound, scalar_ok, binomial


def _sweep_chunk(payload):
    """Sweep one chunk of serialized sequences of Gr(3,n).

    Every sequence is checked against the closed-form point of the ``cone``
    lemma.  The LP runs only for the first sequence of each label in the
    chunk: the merge keeps the earliest chunk's entry, so no other sequence
    reaches weights.json.
    """
    chunk, n = payload
    triples = all_triples(n)
    table = relation_table(n)
    dim = 3 * (n - 3)
    certificate = tuple(-(3 ** (dim - 1 - i)) for i in range(dim))
    fp_table: list[Fingerprint] = []
    fp_index: dict[Fingerprint, int] = {}
    records = []
    label_weights = {}
    for serialized in chunk:
        try:
            seq, rows, diffs, fp, rank, sound, scalar_ok, binomial = _sweep_one(
                serialized, triples, table, certificate
            )
            label = label_of(seq)
            if label not in label_weights:
                e = strict_interior_point(diffs, dim)
                label_weights[label] = (serialized, e, weight_vector(e, rows))
        except Exception as exc:
            raise RuntimeError(f"sequence {serialized}: {exc}") from exc
        local = fp_index.get(fp)
        if local is None:
            local = len(fp_table)
            fp_index[fp] = local
            fp_table.append(fp)
        records.append((serialized, label, local, binomial, rank, sound, scalar_ok))
    return records, fp_table, label_weights


def _verify_chunk(payload):
    items, n = payload
    out = []
    for fp_id, fp in items:
        forms = [binomial_form(g) for g in fp]
        ranks = (graded_rank(forms, 2, n), graded_rank(forms, 3, n))
        cert = lattice_saturation(fp)
        out.append(VerificationRecord(fp_id, *ranks, cert.saturated, cert.pure_difference))
    return out


def _chunked(items: list, pieces: int) -> list[list]:
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def verify_fingerprints(
    fingerprints: list[Fingerprint], n: int, jobs: int = 1
) -> tuple[tuple[int, int], list[VerificationRecord]]:
    """Degree-2 and degree-3 ranks of the Pluecker relation ideal, and one
    record per fingerprint, with ids numbering the fingerprints in order."""
    reference_forms = [relation_form(R) for R in all_relations(n)]
    plucker_ranks = (graded_rank(reference_forms, 2, n), graded_rank(reference_forms, 3, n))
    items = list(enumerate(fingerprints))
    if jobs > 1 and len(items) > 16:
        payloads = [(chunk, n) for chunk in _chunked(items, jobs * 2)]
        with Pool(jobs) as pool:
            records = [r for part in pool.map(_verify_chunk, payloads) for r in part]
    else:
        records = _verify_chunk((items, n))
    return plucker_ranks, records


def verify_payload(
    n: int, plucker_ranks: tuple[int, int], records: list[VerificationRecord]
) -> dict:
    """The verify.json document."""
    return {
        "n": n,
        "plucker": {"rank2": plucker_ranks[0], "rank3": plucker_ranks[1]},
        "fingerprints": [
            {
                "id": r.fingerprint_id,
                "rank2": r.rank2,
                "rank3": r.rank3,
                "snf_ok": r.snf_ok,
                "pure_difference": r.pure_difference,
            }
            for r in records
        ],
    }


def run_pipeline(
    n: int,
    jobs: int | None = None,
    skip_verify: bool = False,
    sequences: list[IteratedSequence] | None = None,
) -> PipelineResult:
    """Run the whole chain for Gr(3,n); raises RuntimeError, naming the
    sequence, only on a bug, and a sequence that breaks an invariant stops
    the run before the orbit stage.  ``jobs`` defaults to the CPU count."""
    jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    if sequences is None:
        serialized = [s.serialize() for s in enumerate_sequences(n)]
    else:
        serialized = [s.serialize() for s in sequences]
    timings["enumerate"] = time.perf_counter() - start

    start = time.perf_counter()
    payloads = [(chunk, n) for chunk in _chunked(serialized, jobs * 8)]
    if jobs > 1 and len(serialized) > 64:
        with Pool(jobs) as pool:
            chunk_results = pool.map(_sweep_chunk, payloads)
    else:
        chunk_results = [_sweep_chunk(p) for p in payloads]

    raw_records = []
    label_weights: dict[Label, tuple] = {}
    for records, fp_table, chunk_weights in chunk_results:
        for record in records:
            raw_records.append((record, fp_table))
        for label, pair in chunk_weights.items():
            label_weights.setdefault(label, pair)
    timings["sweep"] = time.perf_counter() - start

    # canonical renumbering
    distinct = sorted({fp for _, fp_table, _ in chunk_results for fp in fp_table})
    fp_id = {fp: i for i, fp in enumerate(distinct)}
    outcomes = []
    labels_of_fingerprint: dict[int, list[Label]] = {}
    dim = 3 * (n - 3)
    for (serialized_seq, label, local, binomial, rank, sound, scalar_ok), fp_table in raw_records:
        if not (binomial and rank == dim and sound and scalar_ok):
            raise RuntimeError(f"internal invariant violation for {serialized_seq}")
        fid = fp_id[fp_table[local]]
        outcomes.append(
            SequenceOutcome(serialized_seq, label, fid, binomial, rank, sound, scalar_ok)
        )
        bucket = labels_of_fingerprint.setdefault(fid, [])
        if label not in bucket:
            bucket.append(label)

    start = time.perf_counter()
    labels_by_fp = {fp: tuple(sorted(labels_of_fingerprint[fp_id[fp]])) for fp in distinct}
    orbit_reports = compute_orbits(distinct, n, labels_by_fp)
    orbit_names = annotate_gr36_orbits(orbit_reports, labels_by_fp) if n == 6 else {}
    timings["orbits"] = time.perf_counter() - start

    plucker_ranks = None
    verification: list[VerificationRecord] = []
    if not skip_verify:
        start = time.perf_counter()
        plucker_ranks, verification = verify_fingerprints(distinct, n, jobs)
        timings["verify"] = time.perf_counter() - start

    return PipelineResult(
        n=n,
        outcomes=outcomes,
        fingerprints=distinct,
        labels_of_fingerprint={k: tuple(sorted(v)) for k, v in labels_of_fingerprint.items()},
        label_weights=label_weights,
        orbit_reports=orbit_reports,
        orbit_names=orbit_names,
        plucker_ranks=plucker_ranks,
        verification=verification,
        timings=timings,
        counters={
            "lp_solves": sum(len(chunk_weights) for _, _, chunk_weights in chunk_results),
            # each closure takes n-1 images of every member of its orbit
            "orbit_images": sum(r.ambient_size for r in orbit_reports) * (n - 1),
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
    settings = {"n": result.n, "command": command, "verify": result.plucker_ranks is not None}
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
        "count": len(result.fingerprints),
        "fingerprints": [
            {
                "id": fid,
                "labels": [format_label(l) for l in result.labels_of_fingerprint[fid]],
                "generators": [generator_to_json(g) for g in fp],
            }
            for fid, fp in enumerate(result.fingerprints)
        ],
    }
    path = os.path.join(outdir, "fingerprints.json")
    dump_json(path, fingerprints_payload)
    written.append(path)

    fp_ids = {fp: i for i, fp in enumerate(result.fingerprints)}
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
                    {
                        "class": result.orbit_names[r.orbit_id],
                        "isomorphism_class": ORBIT_CLASS_NAMES[result.orbit_names[r.orbit_id]],
                    }
                    if r.orbit_id in result.orbit_names
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
            name = result.orbit_names.get(r.orbit_id, "")
            labels = " ".join(format_label(l) for l in r.labels)
            fh.write(f"{r.orbit_id},{name},{r.intersection_size},{r.ambient_size},{labels}\n")
    written.append(path)

    if result.verification:
        path = os.path.join(outdir, "verify.json")
        dump_json(path, verify_payload(result.n, result.plucker_ranks, result.verification))
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
