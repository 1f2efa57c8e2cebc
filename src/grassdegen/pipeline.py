"""End-to-end driver: valuations -> initial forms -> cone -> classification
-> toricity evidence, with a worker pool for the LP stage alone.

The label is the sweep's unit.  Before the pool starts, the parent takes
each label's ideal from ``classify.fingerprint_labels``: one kernel run,
``initial_forms.initial_ideal``, per class of labels under the permutations
of 1..4 that occurs in the run, on the first sequence of the class's first
label in run order, and a walk over the class (Lemma C below).  Each label
then gets one LP on its first sequence, which for a full run is
``sequences.representative_sequence(label)``: ``level_prefixes`` runs each
level through its triples in lex order and ``BASES`` starts at (1,2,3), so
the first prefix with a label has the smallest free third index at every
level.  A task is a label's first sequence, which unpickling rebuilds
through the validating constructor, and the pool hands each worker about
labels / (8 jobs) tasks at a time, its chunksize.  A worker parses nothing:
it checks the sequence's rows and returns the label's LP point, matrix and
pivots.  Like a kernel run, it raises a RuntimeError that names the
sequence.  The parent pairs each label with its result as the pool hands
them over in task order, closes the pool after the last, and reports
progress and an ETA at INFO once per chunksize of labels on the
``grassdegen.pipeline`` logger; the package adds no handler.  The orbit
and verify stages run in the parent.  A sequence's ideal is its label's,
which ``labels_by_fingerprint`` reports once, so each ``SequenceOutcome``
holds only the sequence's text, in run order; a full run writes the texts
with ``sequences.serialize_group``.  All emitted files are byte-stable
across runs and worker counts.

The theorem rests on two lemmas about the rows of M_S.  A term p_A p_B of a
relation has the vector r_A + r_B in {0,1,2}^dim, dim = 3(n-3), and the
initial terms of a relation are its lex-largest vectors
(``initial_forms``).  Level t, with top index r = n - t, charges positions
3t, 3t+1 and 3t+2; the base is the last level, top index 4.  Every table
``valuation._transitions`` charges a unit or the zero triad, so every row is
0/1.

Lemma A: a third index never changes the selection.  Let H have the triple
(i1,i2,i3) at level t, with r >= 5, and let H' have (i1,i2,i3') there and
agree with H everywhere else.

* A state holding r is charged at the first entry of the triple it lacks.
  Every such state but {r,i1,i2} lacks i1 or i2, so the two tables of level
  t charge and step alike there.  {r,i1,i2} is charged position 2 in both
  and steps to {i1,i2,i3} or to {i1,i2,i3'}.
* One step of the descent depends only on the level's table and the state,
  so every row has H's digits at levels 0..t in H'.  Let C be the rows that
  enter level t at {r,i1,i2}: exactly the rows with a 1 at position 3t+2.
  Every other row is unchanged below level t too.  The rows of C leave
  level t at one state, so they share one digit string L below level t in
  H, and one L' in H'.
* A term has the digit k = [A in C] + [B in C] at position 3t+2, and its
  vector moves by k (L' - L) below level t; its digits stay in {0,1,2}.
  Two terms whose vectors first differ at or above position 3t+2 keep that
  difference.  Two that agree through 3t+2 have one k and move alike.  So
  the lex order of the terms of every relation is H's: H' has H's
  selection, at every level, with no condition on the selection.

Lemma B: the base never decides a binomial selection.

* The terms of one relation have one content, the multiset A + B of their
  indices.  A level with top index r charges a state exactly when it holds
  r, and the charge at position j trades r for the triple's j-th index.  So
  the content and a term's digits above the base give the content of the
  term's two states as they enter the base.
* A state entering the base is {1,2,3}, which is charged nothing, or
  {4,a,b} with a, b <= 3, which lacks one k in {1,2,3} and is charged at
  k's position in the base triple; every base table steps to (1,2,3).  So
  the six base tables differ only by the permutation sigma that sends each
  position of one base triple to the position of the same index in the
  other (``tests/test_pipeline.py`` checks all 36 pairs).  A term's base
  triad counts the missing indices of its two states, which their content
  determines.
* So two terms of one relation that agree above the base agree in the base
  too.  A term that tied the initial pair above the base would tie it
  outright, and the initial form would not be a binomial.  So a binomial
  selection is decided above the base: every other term of a relation lies
  strictly below its initial pair there.

Theorem: the initial ideal of a sequence with binomial initial forms
depends only on its label, for every n.  Let H be such a sequence and H' a
sequence with H's label.  Swap the third indices of H into those of H', one
level at a time; by Lemma A the selection stays H's.  The sequence reached
differs from H' only in the base, the last level, so the two have equal
digits above the base.  The selection is binomial, so by Lemma B each
relation's initial pair lies strictly above its other terms there, and it
ties in the base of H' too: H' has the same initial terms, the same
binomial ideal.  C_S is determined by the initial ideal, so it too depends
only on the label, which the paper shows only in some cases.

Lemma C: relabelling 1..4 carries a label's ideal to its image.  Let
sigma permute {1,2,3,4} and fix every index >= 5, and let sigma L apply
sigma to each entry of each pair of a label L.  The pair of level t lies
in [n-t-1] and n-t-1 >= 4, so sigma L is a label.  Then
fp(sigma L) = sigma fp(L), where sigma acts as the signed action of
``classify``, a word in s_1, s_2, s_3.

* Let S have label L, apply sigma to the triple of every level above the
  base and keep the base; the result sigma S has label sigma L.  Every top
  index r >= 5 is fixed by sigma, so "r is in the state" and "the first
  triple entry missing from the state" commute with sigma.  So the descent
  of sigma K in sigma S is the sigma image of the descent of K in S: the
  two rows agree above the base.
* p_K -> +-p_{sigma K} sends each Pluecker relation to +- a relation, and
  its terms to the images of its terms (``tests/test_classify.py`` checks
  that the relations of n = 5..7 are closed under s_1, s_2, s_3).
* By Lemma B, the initial pair of each relation of S lies strictly above
  its other terms above the base, so the image pair does in sigma S.  The
  two image terms tie above the base, as their preimages do, and share one
  content, so by Lemma B's content argument they tie in the base too.  So
  the initial forms of sigma S are the image binomials, the canonical
  binomials of sigma fp(L), and by the theorem fp(sigma L) = sigma fp(L).

So ``classify.fingerprint_labels`` runs one kernel per class of labels
under the permutations of 1..4 that occurs in its input, 13 for the 240
labels at n = 6, and moves the ideal over the rest of the class.  The
kernel checks the rows, rank and binomiality of the one sequence S it
builds.  Any other sequence S' of the class needs no kernel run: its rows
are 0/1 and have full rank by the theorem of ``valuation``, and its forms
are binomial by the theorem, as those of sigma S are by Lemma C.

Verify computes one entry per orbit of the signed S_n action, on the
orbit's first member, and copies it to every member's id, because every
field of an entry is an orbit invariant:

* Let s_i act on S = Q[p_T] by phi(p_T) = eps_T p_{s_i(T)}, where
  eps_T = (-1)^{y_T} and y_T = 1 exactly when T holds both i and i+1.
  phi is a graded ring automorphism that permutes the variables up to
  sign.  For a binomial g = m_a + s m_b of a fingerprint F,
  phi(g) = eps(a) times the canonical binomial that ``classify._moves``
  sends g to.  So J_{s_i F} = phi(J_F), and by induction the same holds
  for every group element, including images that leave the input set.
* rank2 and rank3 are dim (J_F)_2 and dim (J_F)_3, which the Macaulay
  rows span.  phi is a linear isomorphism on S_2 and on S_3, so both
  dimensions are equal for F and its image.
* Smith factors (``snf_ok``): the rows of s_i F are the rows a - b of F
  with their columns permuted by s_i, which maps the support bijectively,
  a row negated where canonicalisation swaps lead and trail, and the rows
  reordered.  All three changes are unimodular, so the invariant factors
  are equal.
* ``pure_difference``: the new sign is s' = s eps(a) eps(b)
  = s (-1)^{(a-b).y}.  So the GF(2) system (a-b).x = (1+s)/2 of F
  (``toricity``) turns into the system of s_i F under
  x'_{s_i(T)} = x_T + y_T, and one system is consistent exactly when the
  other is.

``verify --fingerprints`` reads a file that need not be closed under the
action, or even lie in the table, so it passes the partition into
singletons and computes every entry.

Every JSON document the package writes is the text of ``json_chunks``:
``json.dumps(document, indent=2, sort_keys=True)`` and a newline, streamed
one top-level item at a time; the entries of fingerprints.json are lazy.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from contextlib import nullcontext
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from typing import NamedTuple

from . import __version__
from .classify import compute_orbits, fingerprint_labels, OrbitReport
from .cone import strict_interior_point, weight_vector
from .initial_forms import Binomial, Fingerprint, decode, inequality_set
from .plucker import all_triples, triple_key
from .sequences import (
    BASES,
    IteratedSequence,
    Label,
    format_label,
    label_of,
    level_prefixes,
    representatives,
    serialize_group,
)
from .toricity import graded_rank, lattice_saturation, plucker_rank
from .valuation import weighting_matrix


class SequenceOutcome:
    """One swept sequence, as its text: its ideal is its label's, which
    ``PipelineResult.labels_by_fingerprint`` holds.  A plain class with one
    slot, because the parent builds one per sequence and keeps them all."""

    __slots__ = ("serialized",)

    # run_pipeline raises before it returns a sequence that fails a check
    all_binomial = projection_sound = scalar_matches = True

    def __init__(self, serialized: str):
        self.serialized = serialized


class PipelineResult(NamedTuple):
    n: int
    outcomes: list[SequenceOutcome]
    # keys sorted, which is the id order of fingerprints.json; labels sorted
    labels_by_fingerprint: dict[Fingerprint, tuple[Label, ...]]
    label_weights: dict[Label, tuple[str, tuple[int, ...], tuple[int, ...]]]
    matrices: dict[Label, str]  # the weighting-matrix CSV of each label's LP sequence
    orbit_reports: list[OrbitReport]
    verify: dict  # the verify.json document
    timings: dict[str, float]
    counters: dict[str, int]

    def summary(self) -> str:
        sizes = ",".join(str(s) for s in sorted(r.intersection_size for r in self.orbit_reports))
        return (
            f"sequences={len(self.outcomes)} ideals={len(self.labels_by_fingerprint)} "
            f"orbits=[{sizes}]"
        )


def _sweep_label(seq: IteratedSequence) -> tuple:
    """The LP of one label, on its first sequence in run order: ``(e, e.M,
    csv of M, pivots, seconds of strict_interior_point)``, where e and
    pivots are the pair that ``strict_interior_point`` returns.  Its ideal
    comes from the parent's walk, and the parent keeps its label and text.

    ``inequality_set`` selects through ``checked_selection``, which checks
    premise (a) of ``initial_forms``, that every valuation row is 0/1, from
    which the unpacking of the base-5 differences, the scalar check and the
    soundness of the point c_i = -5^(dim-1-i) follow, as (i) and (ii)
    there, and the rank certificate of ``valuation``.  The forms are
    binomial by Lemma C and the theorem (module docstring).  A row outside
    0/1, a failed certificate, a failed LP or any other failure raises one
    RuntimeError that names the sequence, so every flag of an outcome of the
    label holds.
    """
    try:
        matrix = weighting_matrix(seq)
        diffs = inequality_set(seq, matrix)
        start = time.perf_counter()
        e, pivots = strict_interior_point(diffs, 3 * (seq.n - 3))
        seconds = time.perf_counter() - start
        return e, weight_vector(e, matrix.rows), matrix.to_csv(), pivots, seconds
    except Exception as exc:
        raise RuntimeError(f"sequence {seq.serialize()}: {exc}") from exc


def verify_fingerprints(
    fingerprints: list[tuple[Binomial, ...]], n: int, orbits: list[tuple[int, ...]]
) -> dict:
    """The verify.json document: degree-2 and degree-3 ranks of the Pluecker
    relation ideal (``toricity.plucker_rank``, from the count of standard
    monomials), and the entry of each decoded fingerprint, with ids
    numbering them in order.  ``orbits`` partitions the ids, else
    ValueError; the entry of an orbit's first member is computed and copied
    to its other members, which the module docstring shows sound for orbits
    of the signed action.  It runs in the calling process."""
    ids = sorted(i for orbit in orbits for i in orbit)
    if not all(orbits) or ids != list(range(len(fingerprints))):
        raise ValueError(f"orbits do not partition the ids of {len(fingerprints)} fingerprints")
    entries: list = [None] * len(fingerprints)
    for orbit in orbits:
        fp = fingerprints[orbit[0]]
        cert = lattice_saturation(fp)
        entry = {
            "rank2": graded_rank(fp, 2, n), "rank3": graded_rank(fp, 3, n),
            "snf_ok": cert.saturated, "pure_difference": cert.pure_difference,
        }
        for fp_id in orbit:
            entries[fp_id] = {"id": fp_id, **entry}
    return {
        "n": n,
        "plucker": {"rank2": plucker_rank(2, n), "rank3": plucker_rank(3, n)},
        "fingerprints": entries,
    }


def run_pipeline(
    n: int, jobs: int | None = None, sequences: list[IteratedSequence] | None = None
) -> PipelineResult:
    """Run the whole chain for Gr(3,n), verify included; raises ValueError
    for a sequence of another n, and RuntimeError, naming the sequence, on
    a bug or on a sequence that breaks an invariant, before the orbit stage.
    ``jobs`` is at least 1, else ValueError, and at most the CPU count,
    which is its default; the LP stage runs in a pool of that many workers
    when there are more than 64 labels, closed before the orbit stage."""
    cpus = os.cpu_count() or 1
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs if jobs is not None else cpus, cpus)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    if sequences is None:
        firsts = representatives(n)
        texts = (text for levels in level_prefixes(n) for text in serialize_group(n, levels, BASES))
    else:
        firsts = {}
        for s in sequences:
            if s.n != n:
                raise ValueError(f"sequence {s.serialize()} has n={s.n}, but the run has n={n}")
            firsts.setdefault(label_of(s.levels), s)
        texts = map(IteratedSequence.serialize, sequences)
    tasks = list(firsts.values())
    size = max(1, -(-len(tasks) // (jobs * 8)))
    timings["enumerate"] = time.perf_counter() - start

    start = time.perf_counter()
    labels_by_fingerprint, kernels = fingerprint_labels(firsts)
    timings["ideals"] = time.perf_counter() - start

    # imported here, so that a CLI command that runs no pipeline pays for
    # neither, and a run without a pool imports no multiprocessing; the
    # package adds no handler, so progress is off by default
    import logging

    log = logging.getLogger(__name__)
    start = time.perf_counter()  # the sweep's time includes starting the pool
    parallel = jobs > 1 and len(tasks) > 64
    if parallel:
        from multiprocessing import Pool
    label_weights = {}
    matrices = {}
    pivots = 0
    lp_seconds = 0.0
    with (Pool(jobs) if parallel else nullcontext()) as pool:
        # the parent merges each label while the workers sweep later ones
        swept = pool.imap(_sweep_label, tasks, size) if parallel else map(_sweep_label, tasks)
        for (label, seq), (e, w, csv, lp_pivots, seconds) in zip(firsts.items(), swept):
            label_weights[label] = (seq.serialize(), e, w)
            matrices[label] = csv
            pivots += lp_pivots
            lp_seconds += seconds
            done = len(label_weights)
            if done % size == 0 or done == len(tasks):
                elapsed = time.perf_counter() - start
                log.info(
                    "swept %d of %d labels in %.1f s, ETA %.1f s",
                    done, len(tasks), elapsed, elapsed * (len(tasks) - done) / done,
                )
    outcomes = list(map(SequenceOutcome, texts))
    timings["sweep"] = time.perf_counter() - start
    timings["lp"] = lp_seconds  # summed over the workers, so it can exceed the sweep's

    start = time.perf_counter()
    orbit_reports = compute_orbits(labels_by_fingerprint, n)
    timings["orbits"] = time.perf_counter() - start

    start = time.perf_counter()
    verify = verify_fingerprints(
        [decode(fp, n) for fp in labels_by_fingerprint], n, [r.member_ids for r in orbit_reports]
    )
    timings["verify"] = time.perf_counter() - start

    return PipelineResult(
        n=n,
        outcomes=outcomes,
        labels_by_fingerprint=labels_by_fingerprint,
        label_weights=label_weights,
        matrices=matrices,
        orbit_reports=orbit_reports,
        verify=verify,
        timings=timings,
        counters={
            "lp_solves": len(label_weights),
            # simplex pivots over all LPs, one per label
            "lp_pivots": pivots,
            # kernel runs: one per class of labels that occurs (module docstring)
            "ideal_selections": kernels,
            # each closure takes 2 images of every member of its orbit, under
            # s_1 and the n-cycle
            "orbit_images": sum(r.ambient_size for r in orbit_reports) * 2,
            "max_abs_e": max((abs(x) for _, e, _ in label_weights.values() for x in e), default=0),
            # one per orbit: the entries verify computed, not the ones it copied
            "verify_entries": len(orbit_reports),
        },
    )


# ---------------------------------------------------------------------------
# serialization of results


@lru_cache(maxsize=None)
def _triple_keys(n: int) -> dict[tuple[int, int, int], str]:
    return {t: triple_key(t) for t in all_triples(n)}


def generator_to_json(gen, n: int) -> dict:
    keys = _triple_keys(n)
    lead, trail, sign = gen
    return {
        "lead": [keys[lead[0]], keys[lead[1]]],
        "trail": [keys[trail[0]], keys[trail[1]]],
        "sign": sign,
    }


class _Rendered(str):
    """JSON text at level 0 that ``_render`` places as it stands, re-indented
    to its level; the instance dict keeps the text at each level."""


def _render(value, level: int = 0) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives for
    ``value`` nested ``level`` containers deep; dict keys are str."""
    if type(value) is int:
        return str(value)
    if isinstance(value, _Rendered):
        texts = vars(value)
        if level not in texts:
            texts[level] = value.replace("\n", "\n" + "  " * level)
        return texts[level]
    if type(value) is str:
        return _quote(value)
    if type(value) is bool:  # json.dumps with indent encodes it in pure Python
        return "true" if value else "false"
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_render(v, level + 1)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_render(v, level + 1) for v in value], "[]"
    else:  # any other scalar, whose text is one line at any level
        return json.dumps(value, indent=2, sort_keys=True)
    pad = "\n" + "  " * (level + 1)
    body = f"{pad}{(',' + pad).join(items)}{pad[:-2]}" if items else ""
    return brackets[0] + body + brackets[1]


def json_chunks(document: dict) -> Iterator[str]:
    """``_render``'s text of ``document`` and a newline, in chunks: a value
    that is a dict, a list or a lazy iterator of list items is rendered one
    item at a time, so that its text is never held whole."""
    opening = "{"
    for key, value in sorted(document.items()):
        yield f"{opening}\n  {_quote(key)}: "
        opening = ","
        if isinstance(value, dict):
            items = (f"{_quote(k)}: {_render(v, 2)}" for k, v in sorted(value.items()))
            brackets = "{}"
        elif isinstance(value, (list, tuple, Iterator)):
            items, brackets = (_render(v, 2) for v in value), "[]"
        else:
            yield _render(value, 1)
            continue
        separator = brackets[0]
        for item in items:
            yield f"{separator}\n    {item}"
            separator = ","
        yield brackets if separator == brackets[0] else "\n  " + brackets[1]
    yield "{}\n" if opening == "{" else "\n}\n"


def _label_filename(label: Label) -> str:
    if not label:
        return "base.csv"
    return "-".join(f"{a}{b}" for a, b in label) + ".csv"


def _inputs_sha256(result: PipelineResult) -> str:
    """Hash of what determines the outputs: n, the command and the sequences
    in run order (the worker count does not matter).  ``pipeline`` is the
    one command that writes a manifest; its name stays in the settings so
    that the hash of a run does not change."""
    import hashlib  # imported here: only a run's outputs load it

    settings = {"n": result.n, "command": "pipeline"}
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode())
    for outcome in result.outcomes:
        digest.update(f"\n{outcome.serialized}".encode())
    return digest.hexdigest()


def _write(outdir: str, relpath: str, chunks) -> dict:
    """Write the text chunks to ``relpath`` under ``outdir``; returns the
    file's manifest entry, hashed from the bytes as they are written."""
    import hashlib  # imported here: only a run's outputs load it

    digest = hashlib.sha256()
    size = 0
    with open(os.path.join(outdir, relpath), "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            fh.write(data)
            digest.update(data)
            size += len(data)
    return {"path": relpath, "sha256": digest.hexdigest(), "bytes": size}


def write_outputs(result: PipelineResult, outdir: str) -> str:
    """Write matrices/, weights.json, fingerprints.json, orbits.json,
    orbits.csv, verify.json and a manifest; returns the manifest path.
    Every JSON file is ``json_chunks`` text; the entries of fingerprints.json
    are built one ideal at a time, each binomial rendered once."""
    n = result.n
    os.makedirs(os.path.join(outdir, "matrices"), exist_ok=True)
    outputs = [
        _write(outdir, os.path.join("matrices", _label_filename(label)), [csv])
        for label, csv in sorted(result.matrices.items())
    ]
    keys = list(_triple_keys(n).values())
    weights = {
        format_label(label): {"e": e, "w": dict(zip(keys, w))}
        for label, (_, e, w) in result.label_weights.items()
    }
    outputs.append(_write(outdir, "weights.json", json_chunks({"n": n, "labels": weights})))

    @lru_cache(maxsize=None)
    def binomial(gid: int) -> _Rendered:
        return _Rendered(_render(generator_to_json(decode((gid,), n)[0], n)))

    entries = (
        {"id": i, "labels": list(map(format_label, labels)), "generators": list(map(binomial, fp))}
        for i, (fp, labels) in enumerate(result.labels_by_fingerprint.items())
    )
    document = {"n": n, "count": len(result.labels_by_fingerprint), "fingerprints": entries}
    outputs.append(_write(outdir, "fingerprints.json", json_chunks(document)))

    orbits_payload = {
        "n": n,
        "orbits": [
            {
                "id": r.orbit_id,
                "intersection_size": r.intersection_size,
                "ambient_size": r.ambient_size,
                "escaped_count": r.escaped_count,
                "fingerprint_ids": list(r.member_ids),
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
    outputs.append(_write(outdir, "orbits.json", json_chunks(orbits_payload)))

    def orbit_rows():
        yield "orbit,class,intersection_size,ambient_size,labels\n"
        for r in result.orbit_reports:
            labels = " ".join(format_label(l) for l in r.labels)
            yield f"{r.orbit_id},{r.name},{r.intersection_size},{r.ambient_size},{labels}\n"

    outputs.append(_write(outdir, "orbits.csv", orbit_rows()))
    outputs.append(_write(outdir, "verify.json", json_chunks(result.verify)))

    manifest = {
        "command": "pipeline",
        "n": n,
        "version": __version__,
        "inputs": {"sha256": _inputs_sha256(result)},
        "timings": {k: round(v, 3) for k, v in result.timings.items()},
        "counters": result.counters,
        "outputs": outputs,
    }
    _write(outdir, "manifest.json", json_chunks(manifest))
    return os.path.join(outdir, "manifest.json")
