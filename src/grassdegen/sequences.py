"""Iterated birational sequences for Gr(3,n).

A sequence is built from a PBW base for Gr(3,4) by prepending, for each new
top index r = n, n-1, ..., 5, an ordered triple of pairwise-distinct indices
in [r-1] (the roots used to pass from Gr(3,r-1) to Gr(3,r)).  Positions are
numbered top-down: triad t covers positions 3t+1 .. 3t+3 and belongs to top
index n - t; the last triad is the PBW base, recorded as a permutation of
(1, 2, 3).
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import Iterator, NamedTuple

from .plucker import InvalidSize

Triple = tuple[int, int, int]
Label = tuple[tuple[int, int], ...]

_SERIAL_RE = re.compile(r"^(\d+):\[([0-9,|]+)\]$")


def _check_triple(t, bound, what):
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError(f"{what} {t} must have 3 pairwise-distinct entries")
    if any(not (1 <= x <= bound) for x in t):
        raise ValueError(f"{what} {t} has entries outside 1..{bound}")


class _SequenceFields(NamedTuple):
    n: int
    levels: tuple[Triple, ...]
    base_perm: Triple


class IteratedSequence(_SequenceFields):
    """Levels t = 0..n-5 (triples in [n-t-1]) plus the base PBW permutation.

    The constructor validates, and so do unpickling and ``_replace``,
    which call it."""

    __slots__ = ()

    def __new__(cls, n: int, levels: tuple[Triple, ...], base_perm: Triple):
        if n < 4:
            raise InvalidSize(f"need n >= 4, got {n}")
        if len(levels) != n - 4:
            raise ValueError(f"expected {n - 4} levels, got {len(levels)}")
        for t, triple in enumerate(levels):
            _check_triple(triple, n - t - 1, f"level-{t} triple")
        _check_triple(base_perm, 3, "base permutation")
        return super().__new__(cls, n, levels, base_perm)

    @classmethod
    def _make(cls, iterable) -> "IteratedSequence":
        return cls(*iterable)  # the NamedTuple's own skips the checks

    @property
    def triples(self) -> tuple[Triple, ...]:
        """All n-3 triads top-down, the base permutation last."""
        return self.levels + (self.base_perm,)

    def serialize(self) -> str:
        return serialize_group(self.n, self.levels, (self.base_perm,))[0]

    @classmethod
    def parse(cls, text: str) -> "IteratedSequence":
        m = _SERIAL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse sequence {text!r}")
        n = int(m.group(1))
        parts = m.group(2).split("|")
        if len(parts) != max(n - 3, 1):
            raise ValueError(f"expected {n - 3} triads in {text!r}")
        triples = tuple(tuple(int(x) for x in p.split(",")) for p in parts)
        return cls(n, triples[:-1], triples[-1])

    def __str__(self):
        return self.serialize()


def serialize_group(n: int, levels: tuple[Triple, ...], bases) -> list[str]:
    """The serialized text of each sequence of Gr(3,n) with these levels and
    base permutations, in order, built from per-triple texts."""
    prefix = f"{n}:[" + "".join(_triple_text(t) + "|" for t in levels)
    return [f"{prefix}{_triple_text(base)}]" for base in bases]


@lru_cache(maxsize=None)
def _triple_text(t: Triple) -> str:
    return ",".join(map(str, t))


def standard_sequence(n: int) -> IteratedSequence:
    """All level triples (1,2,3) and the identity base permutation."""
    return IteratedSequence(n, ((1, 2, 3),) * (n - 4), (1, 2, 3))


def sequence_count(n: int) -> int:
    """Closed form for the number of iterated sequences."""
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    return math.prod((n - l - 1) * (n - l - 2) * (n - l - 3) for l in range(n - 3))


BASES: tuple[Triple, ...] = tuple(itertools.permutations((1, 2, 3)))


def _level_product(n: int, k: int) -> Iterator[tuple]:
    """Every choice of an ordered k-tuple of distinct entries of [n-t-1] at
    each level t, in lexicographic order, level 0 most significant."""
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    return itertools.product(*(itertools.permutations(range(1, n - t), k) for t in range(n - 4)))


def level_prefixes(n: int) -> Iterator[tuple[Triple, ...]]:
    """The levels of every iterated sequence, each once, in lexicographic
    order: level-0 triple, then level-1 triple, ..., each running through
    ordered triples lexicographically."""
    return _level_product(n, 3)


def enumerate_sequences(n: int) -> Iterator[IteratedSequence]:
    """Yield every iterated sequence exactly once, in lexicographic order:
    each level prefix of ``level_prefixes``, then the base permutation,
    which runs through ``BASES``."""
    for levels in level_prefixes(n):
        for base in BASES:
            yield IteratedSequence(n, levels, base)


def label_of(levels: tuple[Triple, ...]) -> Label:
    """First two indices of each level of a sequence.  The initial ideal of
    a sequence depends only on its label: neither a third index nor the
    base permutation changes it (the theorem of the ``pipeline``
    docstring)."""
    return tuple(t[:2] for t in levels)


def count_labels(n: int) -> int:
    """Number of distinct labels: prod over levels of (n-l-1)(n-l-2)."""
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    return math.prod((n - l - 1) * (n - l - 2) for l in range(n - 4))


def all_labels(n: int) -> Iterator[Label]:
    """Every label in lexicographic order (level-0 pair most significant)."""
    return _level_product(n, 2)


def representative_sequence(label: Label, n: int) -> IteratedSequence:
    """Deterministic sequence with the given label: smallest free third
    index at each level, identity base."""
    levels = [
        (a, b, min(x for x in range(1, n - t) if x not in (a, b))) for t, (a, b) in enumerate(label)
    ]
    return IteratedSequence(n, tuple(levels), (1, 2, 3))


def representatives(n: int) -> dict[Label, IteratedSequence]:
    """Each label of Gr(3,n), in ``all_labels`` order, with its
    representative sequence, its first sequence in a full run."""
    return {label: representative_sequence(label, n) for label in all_labels(n)}


def format_label(label: Label) -> str:
    return "(" + ";".join(f"{a},{b}" for a, b in label) + ")"


def parse_label(text: str) -> Label:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"cannot parse label {text!r}")
    pairs = []
    for part in body[1:-1].split(";"):
        fields = part.split(",")
        if len(fields) != 2:
            raise ValueError(f"cannot parse label {text!r}")
        pairs.append((int(fields[0]), int(fields[1])))
    return tuple(pairs)


def validate_label(label: Label, n: int) -> None:
    """Raise ValueError unless the label is realized by some sequence."""
    if len(label) != n - 4:
        raise ValueError(f"label {format_label(label)} has {len(label)} levels, expected {n - 4}")
    for t, (a, b) in enumerate(label):
        if a == b or not all(1 <= x <= n - t - 1 for x in (a, b)):
            raise ValueError(
                f"label pair ({a},{b}) invalid at level {t}: need distinct entries in 1..{n - t - 1}"
            )
