"""End-to-end driver: valuations -> initial forms -> cone -> classification
-> toricity evidence, fanned out over sequences with a deterministic merge.

A worker builds each sequence's ``SequenceOutcome``, which carries its
initial ideal; the merge keeps one map from fingerprint to labels, whose
sorted order numbers the ideals.  All emitted files are byte-stable across
runs and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from operator import neg

from . import __version__
from .classify import compute_orbits, ORBIT_CLASS_NAMES, OrbitReport
from .cone import strict_interior_point, weight_vector
from .exactlinalg import exact_rank
from .initial_forms import (
    Binomial,
    Fingerprint,
    binomial_ids,
    decode,
    inequalities,
    pack_rows,
    relation_table,
    select,
)
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


# slots: the parent unpickles one outcome per sequence and keeps them all
@dataclass(frozen=True, slots=True)
class SequenceOutcome:
    serialized: str
    label: Label
    fingerprint: Fingerprint
    all_binomial: bool
    matrix_rank: int
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
    plucker_ranks: tuple[int, int] | None
    verification: list[dict]  # the "fingerprints" entries of verify.json
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


def _sweep_chunk(payload):
    """Sweep one chunk of serialized sequences of Gr(3,n); returns their
    outcomes and the weights of the first sequence of each label.

    Every sequence is checked against the closed-form point c of the
    ``cone`` lemma through the two row premises of ``initial_forms``:
    ``pack_rows`` raises unless every row is 0/1, and c.M must equal the
    negated packed rows.  Together they give both the scalar check and the
    soundness of c, so ``scalar_matches`` and ``projection_sound`` both hold
    the certificate identity.  The inequality set and the LP are computed
    only for the first sequence of each label in the chunk: the merge keeps
    the earliest chunk's entry, so no other sequence reaches weights.json.
    Equal fingerprints are one object within the chunk, so that pickling
    sends each ideal once.
    """
    chunk, n = payload
    triples = all_triples(n)
    table = relation_table(n)
    dim = 3 * (n - 3)
    certificate = tuple(-(3 ** (dim - 1 - i)) for i in range(dim))
    shared: dict[Fingerprint, Fingerprint] = {}
    outcomes = []
    label_weights = {}
    for serialized in chunk:
        try:
            seq = IteratedSequence.parse(serialized)
            rows = [compute_valuation(seq, K) for K in triples]
            packed = pack_rows(rows, dim)
            certified = weight_vector(certificate, rows) == tuple(map(neg, packed))
            selection = select(packed, table)
            ids = binomial_ids(selection, table)
            all_binomial = None not in ids
            ids.discard(None)
            fp = tuple(sorted(ids))
            fp = shared.setdefault(fp, fp)
            outcome = SequenceOutcome(
                serialized,
                label_of(seq),
                fp,
                all_binomial,
                exact_rank({i: x for i, x in enumerate(row) if x} for row in rows),
                certified,
                certified,
            )
            if outcome.label not in label_weights:
                e = strict_interior_point(inequalities(selection, dim), dim)
                label_weights[outcome.label] = (serialized, e, weight_vector(e, rows))
        except Exception as exc:
            raise RuntimeError(f"sequence {serialized}: {exc}") from exc
        outcomes.append(outcome)
    return outcomes, label_weights


def _verify_chunk(payload):
    items, n = payload
    entries = []
    for fp_id, fp in items:
        forms = [binomial_form(g) for g in fp]
        cert = lattice_saturation(fp)
        entries.append({
            "id": fp_id, "rank2": graded_rank(forms, 2, n), "rank3": graded_rank(forms, 3, n),
            "snf_ok": cert.saturated, "pure_difference": cert.pure_difference,
        })
    return entries


def _chunked(items: list, pieces: int) -> list[list]:
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def verify_fingerprints(
    fingerprints: list[tuple[Binomial, ...]], n: int, jobs: int = 1
) -> tuple[tuple[int, int], list[dict]]:
    """Degree-2 and degree-3 ranks of the Pluecker relation ideal, and the
    verify.json entry of each decoded fingerprint, with ids numbering them in
    order."""
    reference_forms = [relation_form(R) for R in all_relations(n)]
    plucker_ranks = (graded_rank(reference_forms, 2, n), graded_rank(reference_forms, 3, n))
    items = list(enumerate(fingerprints))
    if jobs > 1 and len(items) > 16:
        payloads = [(chunk, n) for chunk in _chunked(items, jobs * 2)]
        with Pool(jobs) as pool:
            entries = [e for part in pool.map(_verify_chunk, payloads) for e in part]
    else:
        entries = _verify_chunk((items, n))
    return plucker_ranks, entries


def verify_payload(n: int, plucker_ranks: tuple[int, int], entries: list[dict]) -> dict:
    """The verify.json document."""
    return {
        "n": n,
        "plucker": {"rank2": plucker_ranks[0], "rank3": plucker_ranks[1]},
        "fingerprints": entries,
    }


def run_pipeline(
    n: int,
    jobs: int | None = None,
    skip_verify: bool = False,
    sequences: list[IteratedSequence] | None = None,
) -> PipelineResult:
    """Run the whole chain for Gr(3,n); raises ValueError for a sequence of
    another n, RuntimeError, naming the sequence, only on a bug, and a
    sequence that breaks an invariant stops the run before the orbit stage.
    ``jobs`` defaults to the CPU count."""
    jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
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

    start = time.perf_counter()
    payloads = [(chunk, n) for chunk in _chunked(serialized, jobs * 8)]
    if jobs > 1 and len(serialized) > 64:
        with Pool(jobs) as pool:
            chunk_results = pool.map(_sweep_chunk, payloads)
    else:
        chunk_results = [_sweep_chunk(p) for p in payloads]

    outcomes: list[SequenceOutcome] = []
    label_weights: dict[Label, tuple] = {}
    for chunk_outcomes, chunk_weights in chunk_results:
        outcomes.extend(chunk_outcomes)
        for label, entry in chunk_weights.items():
            label_weights.setdefault(label, entry)
    timings["sweep"] = time.perf_counter() - start

    dim = 3 * (n - 3)
    labels: dict[Fingerprint, set[Label]] = {}
    for o in outcomes:
        if not (o.all_binomial and o.matrix_rank == dim and o.projection_sound and o.scalar_matches):
            raise RuntimeError(f"internal invariant violation for {o.serialized}")
        labels.setdefault(o.fingerprint, set()).add(o.label)
    labels_by_fingerprint = {fp: tuple(sorted(labels[fp])) for fp in sorted(labels)}

    start = time.perf_counter()
    orbit_reports = compute_orbits(labels_by_fingerprint, n)
    timings["orbits"] = time.perf_counter() - start

    plucker_ranks = None
    verification: list[dict] = []
    if not skip_verify:
        start = time.perf_counter()
        plucker_ranks, verification = verify_fingerprints(
            [decode(fp, n) for fp in labels_by_fingerprint], n, jobs
        )
        timings["verify"] = time.perf_counter() - start

    return PipelineResult(
        n=n,
        outcomes=outcomes,
        labels_by_fingerprint=labels_by_fingerprint,
        label_weights=label_weights,
        orbit_reports=orbit_reports,
        plucker_ranks=plucker_ranks,
        verification=verification,
        timings=timings,
        counters={
            "lp_solves": sum(len(chunk_weights) for _, chunk_weights in chunk_results),
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
                    {"class": r.name, "isomorphism_class": ORBIT_CLASS_NAMES[r.name]}
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

    if result.plucker_ranks is not None:
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
