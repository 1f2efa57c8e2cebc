"""End-to-end driver: valuations -> initial forms -> cone -> classification
-> toricity evidence, in stages that share one worker pool.

The sweep checks and fingerprints every sequence through
``initial_forms.initial_ideal``, the kernel of ``classify.fingerprint`` too.
Its input is a list of groups ``(levels, bases)``: for a full run, one
group per level prefix of ``sequences.level_prefixes`` with the six base
permutations; for a list of sequences, one group per run of consecutive
sequences with equal ``levels``.  A chunk holds whole runs of consecutive
groups with one sibling key (below), about total / (8 jobs) sequences, so
that every counter is the same for every worker count.  A worker parses
nothing: it builds a sequence, through the validating constructor, only to
run the kernel on it, returns one tuple of fingerprints per group and its
counters, and raises a RuntimeError that names the first sequence that
breaks an invariant.  The parent merges the
chunks in order as the pool hands them over: it writes each sequence's
text with ``sequences.serialize_group``, builds its ``SequenceOutcome`` and
keeps one map from fingerprint to labels, whose sorted order numbers the
ideals.  A label under more than one ideal is
counted (``split_labels``) and named in a WARNING on the
``grassdegen.pipeline`` logger, which also reports progress and an ETA at
INFO after each chunk; the package adds no handler.  One LP per label, on
the label's first sequence in run order, gives the point weights.json
holds; the sweep solves it (below).  All emitted files are byte-stable
across runs and worker counts.

The first sequence of a group is its head.  The head runs the kernel: its
weighting matrix, the 0/1 check, the rank certificate, the selection and
the binomial check.  A later member takes the head's fingerprint when the
head's selection is decided above the base (``initial_forms``); every
other member runs the kernel itself.  Head and member differ only in the
base level, top index 4, whose table ``valuation._transitions(4, base)``
is the head's with the charged positions permuted by one sigma and with
the same next states, for every pair of base triples.  The state (1,2,3)
charges nothing and stays; each other state holds 4 and lacks exactly one
k in {1,2,3}, trades 4 for k, charges k's position in the base triple and
steps to (1,2,3).  So sigma sends each position of the member's base
triple to the position of the same index in the head's.
``tests/test_pipeline.py`` checks all 36 pairs.  The reuse is sound:

* Equal levels give equal prefix rows and equal states entering the base
  level, because the descent runs level-major and each step depends only on
  the level's top index, its triple and the current multi-index.
* So sigma turns the head's rows into the member's by permuting the three
  base columns, which keeps every row 0/1.
* Full rank is a theorem (``valuation``).  The kernel checks its
  certificate.  A reusing member's rows are the head's with three base
  columns permuted, which keeps the rank.
* Each relation's initial pair has equal full sums, so equal base digits,
  which stay equal under sigma, since it permutes both alike.  Every other
  term's sum // 27, the part above the base digits, does not move under
  sigma and stays strictly below the pair's, so the term stays below the
  pair whatever its base digits.  So the member's initial terms are the
  head's, and it has the head's binomial initial ideal.

A group's sibling key is its levels with the third index of the last
level, the one at top index 5, dropped (``_sibling_key``); groups with one
key are siblings.  A decided head's fingerprint goes to every later group
in its run of consecutive siblings, whose sequences then run no kernel;
after an undecided head, the next sibling group runs its own head.
``level_prefixes`` runs the top-index-5 triple innermost, so a full run's
siblings are adjacent: two groups, twelve sequences, for n >= 5.  At n = 4
there is no such level, and the key is the empty levels.  The reuse is
sound.  Let the head H have the last triple (i1,i2,i3), and let H' be the
sequence with the last triple (i1,i2,i3') and H's base.  H' has H's
fingerprint and is decided above the base (below), so each sequence of a
sibling group, which differs from H' at most in its base, takes it by
sigma.

* The tables ``valuation._transitions(5, .)`` of the two triples differ
  only in the state {5,i1,i2}: every other state holding 5 lacks i1 or i2
  and is charged and stepped alike.  In that state both charge position 2,
  the unit triad (0,0,1), and step to {i1,i2,i3} or {i1,i2,i3'}.  Let C be
  the rows that enter level t = n-5 at {5,i1,i2}: by the equal levels above
  and the previous point, exactly the rows whose level-t triad is (0,0,1),
  in H and in H' alike.  So H and H' have equal digits in every row above
  the base; in the base digits, which the one base table assigns from the
  state entering the base, every row of C carries one triad u in H and one
  triad u' in H', and every other row is unchanged.  u' is a unit or zero
  triad, so the rows of H' are 0/1, and its rank is the theorem's.
* A relation's initial pair attains the maximum packed sum, so its two sums
  are equal in every digit, by the absence of carries, among them position
  3t+2.  A monomial's digit there is the number of its factors in C, so
  both monomials of the pair have the same number k of factors in C.  In
  H' both sums change by k (u' - u) in the base digits alone and stay
  equal.  Every term changes only in its base digits, and no addition
  carries, so every term's sum // 27 is H's.  H is decided above the base,
  so every non-initial term's sum // 27 stays strictly below the pair's.
  So H' has H's initial pair in every relation, and so H's fingerprint,
  and is itself decided above the base; its six base permutations take it
  by sigma.

The LP of a label runs in the sweep, right after the kernel of the head of
the label's first group in run order, on that kernel's weighting matrix
and selection (``_select``).  ``_chunks`` marks that group while it builds
the chunks, and computes each label once per run of siblings.  The head
always runs the kernel, with no check needed: siblings share their label,
because the sibling key keeps the first two indices of every level, so a
label's first group is the first group of its run of siblings, and
``_chunks`` never splits a run, so the group before it in its chunk, if
any, has another sibling key, and no decided head serves it.

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

import itertools
import json
import os
import time
from collections import Counter
from collections.abc import Iterator
from contextlib import nullcontext
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from operator import attrgetter
from typing import NamedTuple

from . import __version__
from .classify import compute_orbits, OrbitReport
from .cone import strict_interior_point, weight_vector
from .initial_forms import (
    Binomial,
    Fingerprint,
    decided_above_base,
    decode,
    inequalities,
    initial_ideal,
)
from .plucker import all_triples, triple_key
from .sequences import (
    BASES,
    IteratedSequence,
    Label,
    Triple,
    format_label,
    label_of,
    level_prefixes,
    serialize_group,
)
from .toricity import binomial_form, graded_rank, lattice_saturation, plucker_rank
from .valuation import weighting_matrix


class SequenceOutcome:
    """One swept sequence.  A plain class with slots, not a NamedTuple: the
    parent builds one per sequence and keeps them all, and an instance
    takes 80 bytes to the tuple's 88."""

    __slots__ = (
        "serialized", "label", "fingerprint", "all_binomial", "projection_sound", "scalar_matches"
    )

    def __init__(
        self,
        serialized: str,
        label: Label,
        fingerprint: Fingerprint,
        all_binomial: bool,
        projection_sound: bool,
        scalar_matches: bool,
    ):
        self.serialized = serialized
        self.label = label
        self.fingerprint = fingerprint
        self.all_binomial = all_binomial
        self.projection_sound = projection_sound
        self.scalar_matches = scalar_matches


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


def _select(
    n: int, levels: tuple[Triple, ...], base: Triple, label: Label | None = None
) -> tuple[Fingerprint, bool, tuple | None, float]:
    """The kernel of one sequence, built by the validating constructor: its
    fingerprint, whether its selection is decided above the base, and, for
    the first sequence of ``label`` in run order, the LP of its cone on the
    same rows and selection: ``(label, (serialized, e, e.M), csv of M,
    pivots)`` and the seconds it took; else None and 0.  Any failure raises
    one RuntimeError that names the sequence."""
    try:
        matrix = weighting_matrix(IteratedSequence(n, levels, base))
        fp, selection = initial_ideal(matrix.rows, n)
        lp, seconds = None, 0.0
        if label is not None:
            start = time.perf_counter()
            dim = 3 * (n - 3)
            e = strict_interior_point(inequalities(selection, dim), dim)
            point = (serialize_group(n, levels, [base])[0], tuple(e), weight_vector(e, matrix.rows))
            lp = (label, point, matrix.to_csv(), e.pivots)
            seconds = time.perf_counter() - start
        return fp, decided_above_base(selection), lp, seconds
    except Exception as exc:
        raise RuntimeError(f"sequence {serialize_group(n, levels, [base])[0]}: {exc}") from exc


def _sweep_chunk(task) -> tuple[list[tuple[Fingerprint, ...]], int, list[tuple], float]:
    """Check and fingerprint one chunk ``(n, groups)`` of groups
    ``(levels, bases, label, first)`` (``_chunks``); returns one tuple of
    fingerprints per group, in the order of its bases, the number of
    sequences whose selection ran, the LP of the head of each group marked
    first, as ``(label, point, csv, pivots)`` (``_select``), and the seconds
    those LPs took.

    ``initial_ideal`` checks premise (a) of ``initial_forms``, that every
    valuation row is 0/1, from which the scalar check and the soundness of
    the closed-form point c follow, as (i) and (ii) there, and the rank
    certificate of ``valuation``.  A row outside 0/1, a failed certificate,
    a non-binomial initial form, a failed LP or any other failure raises
    one RuntimeError that names the sequence, so every flag of an outcome
    holds.  The first base of a group is its head; a member that reuses its
    head's selection, or a group that reuses the decided head of an earlier
    sibling in its run (module docstring), is never built.  A group marked
    first of its label starts its run of siblings, so its head runs the
    kernel, and the LP after it.  Equal fingerprints are one object within
    the chunk, so that pickling sends each ideal once.
    """
    n, groups = task
    shared: dict[Fingerprint, Fingerprint] = {}
    fingerprints = []
    lps = []
    selections = 0
    lp_seconds = 0.0
    decided_key = None  # the sibling key of the last head run, if decided
    for levels, bases, label, first in groups:
        key = _sibling_key(levels)
        if key != decided_key:
            fp, decided, lp, seconds = _select(n, levels, bases[0], label if first else None)
            selections += 1
            decided_key = key if decided else None
            if lp is not None:
                lps.append(lp)
                lp_seconds += seconds
        if decided_key is not None:
            fps = [fp] * len(bases)
        else:
            fps = [fp]
            for base in bases[1:]:
                fps.append(_select(n, levels, base)[0])
                selections += 1
        fingerprints.append(tuple(shared.setdefault(fp, fp) for fp in fps))
    return fingerprints, selections, lps, lp_seconds


def _verify_entry(item) -> dict:
    fp, n = item
    forms = [binomial_form(g) for g in fp]
    cert = lattice_saturation(fp)
    return {
        "rank2": graded_rank(forms, 2, n), "rank3": graded_rank(forms, 3, n),
        "snf_ok": cert.saturated, "pure_difference": cert.pure_difference,
    }


def _sibling_key(levels: tuple[Triple, ...]) -> tuple:
    """The levels without the third index of the top-index-5 level (module
    docstring); at n = 4, the empty levels."""
    return levels[:-1] + (levels[-1][:2],) if levels else levels


def _chunks(groups: list, size: int) -> Iterator[list]:
    """Consecutive whole groups ``(levels, bases)``, each as ``(levels,
    bases, label, first)`` with its label and whether it is the label's
    first group in run order, so that no chunk splits a run of consecutive
    groups with one ``_sibling_key``; each chunk but the last holds at
    least ``size`` sequences."""
    seen: set[Label] = set()
    chunk, count = [], 0
    for key, run in itertools.groupby(groups, lambda group: _sibling_key(group[0])):
        label = label_of(key)  # siblings share it: the key keeps the first two indices
        first = label not in seen
        seen.add(label)
        for levels, bases in run:
            chunk.append((levels, bases, label, first))
            first = False
            count += len(bases)
        if count >= size:
            yield chunk
            chunk, count = [], 0
    if chunk:
        yield chunk


def verify_fingerprints(
    fingerprints: list[tuple[Binomial, ...]], n: int, orbits: list[tuple[int, ...]], mapper=map
) -> dict:
    """The verify.json document: degree-2 and degree-3 ranks of the Pluecker
    relation ideal (``toricity.plucker_rank``, from the count of standard
    monomials), and the entry of each decoded fingerprint, with ids
    numbering them in order.  ``orbits`` partitions the ids, else
    ValueError; the entry of an orbit's first member is computed and copied
    to its other members, which the module docstring shows sound for orbits
    of the signed action.  ``mapper`` maps over the orbits, e.g. a pool's
    ``map``."""
    ids = sorted(i for orbit in orbits for i in orbit)
    if not all(orbits) or ids != list(range(len(fingerprints))):
        raise ValueError(f"orbits do not partition the ids of {len(fingerprints)} fingerprints")
    computed = mapper(_verify_entry, [(fingerprints[orbit[0]], n) for orbit in orbits])
    entries: list = [None] * len(fingerprints)
    for orbit, entry in zip(orbits, computed):
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
    which is its default; the stages share one pool of that many workers
    when there are more than 64 sequences."""
    cpus = os.cpu_count() or 1
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs if jobs is not None else cpus, cpus)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    if sequences is None:
        groups = [(levels, BASES) for levels in level_prefixes(n)]
        total = len(groups) * len(BASES)
    else:
        for s in sequences:
            if s.n != n:
                raise ValueError(f"sequence {s.serialize()} has n={s.n}, but the run has n={n}")
        groups = [
            (levels, tuple(s.base_perm for s in run))
            for levels, run in itertools.groupby(sequences, attrgetter("levels"))
        ]
        total = len(sequences)
    chunks = list(_chunks(groups, max(1, -(-total // (jobs * 8)))))
    timings["enumerate"] = time.perf_counter() - start

    # imported here, so that a CLI command that runs no pipeline pays for
    # neither, and a run without a pool imports no multiprocessing; the
    # package adds no handler, so progress is off by default
    import logging

    log = logging.getLogger(__name__)
    start = time.perf_counter()  # the sweep's time includes starting the pool
    parallel = jobs > 1 and total > 64
    if parallel:
        from multiprocessing import Pool
    with (Pool(jobs) if parallel else nullcontext()) as pool:
        mapper = pool.map if parallel else map
        # the merge of a chunk overlaps the workers' sweep of later chunks
        swept = (pool.imap if parallel else map)(_sweep_chunk, [(n, c) for c in chunks])
        outcomes = []
        labels: dict[Fingerprint, set[Label]] = {}
        label_weights = {}
        matrices = {}
        selections = pivots = 0
        lp_seconds = 0.0
        for chunk, (fingerprints, chunk_selections, lps, chunk_lp_seconds) in zip(chunks, swept):
            for (levels, bases, label, _), fps in zip(chunk, fingerprints):
                for text, fp in zip(serialize_group(n, levels, bases), fps):
                    outcomes.append(SequenceOutcome(text, label, fp, True, True, True))
                    labels.setdefault(fp, set()).add(label)
            for label, point, csv, lp_pivots in lps:
                label_weights[label] = point
                matrices[label] = csv
                pivots += lp_pivots
            selections += chunk_selections
            lp_seconds += chunk_lp_seconds
            elapsed = time.perf_counter() - start
            log.info(
                "swept %d of %d sequences in %.1f s, ETA %.1f s",
                len(outcomes), total, elapsed, elapsed * (total - len(outcomes)) / len(outcomes),
            )
        ideals_per_label = Counter(label for ls in labels.values() for label in ls)
        split = sorted(label for label, count in ideals_per_label.items() if count > 1)
        if split:
            log.warning(
                "%d labels lie under more than one ideal: %s",
                len(split), " ".join(map(format_label, split)),
            )
        labels_by_fingerprint = {fp: tuple(sorted(labels[fp])) for fp in sorted(labels)}
        timings["sweep"] = time.perf_counter() - start
        timings["lp"] = lp_seconds  # worker time, within the sweep's

        start = time.perf_counter()
        orbit_reports = compute_orbits(labels_by_fingerprint, n)
        timings["orbits"] = time.perf_counter() - start

        start = time.perf_counter()
        verify = verify_fingerprints(
            [decode(fp, n) for fp in labels_by_fingerprint],
            n,
            [r.member_ids for r in orbit_reports],
            mapper,
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
            # swept sequences whose selection ran: the heads of groups that
            # no decided sibling head served, and the members of undecided heads
            "ideal_selections": selections,
            # labels whose sequences lie under more than one ideal
            "split_labels": len(split),
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
