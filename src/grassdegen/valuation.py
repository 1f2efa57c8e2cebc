"""Lowest-term valuations of Pluecker coordinates and weighting matrices.

For an iterated sequence the valuation of a coordinate p_I is computed by a
greedy descent: walk the levels top-down and, whenever the current top index
sits in the multi-index, trade it for the first admissible index of the
level's triple, charging one unit to the corresponding position.  The result
is the lexicographic maximum of the monomial support of the pullback of p_I
under the birational parametrization.  ``tests/oracles.py`` expands that
support in full by recursion and checks the greedy result against it.

The descent runs level-major.  One step of it depends only on the level's
top index, its triple and the current multi-index.  So for each (top,
triple) there is one transition table: for every 3-subset of [top], as an
increasing tuple, the triad the level charges (a unit triad, or the zero
triad when top is not in the subset) and the next multi-index.  It is kept
as two dicts, one per value, built on first use and cached.
``valuation_rows`` looks up each level's table once and steps every
multi-index through it, appending the charged triad to its row.  The domain
covers every state: before level t every index is at most n - t, because
the top index is always traded for one in [n-t-1].  The descent ends at
{1,2,3}; a row whose descent ends elsewhere raises RuntimeError.

Full rank.  The weighting matrix M_S has rank 3(n-3) over Q and over
every GF(p), for every iterated sequence S.  At level t, with top index r = n - t >= 4 and triple
(a,b,c), let y = min([r-1] - {a,b}) and take the rows
K_{t,0} = {r} and the two smallest indices of [r-1] - {a},
K_{t,1} = {r,a,y} and K_{t,2} = {r,a,b}.  Each lies in [r], so no level
above t charges or moves it, and level t charges position j of its triple:
the first entry that K_{t,j} lacks is a, b, c for j = 0, 1, 2.  So row
K_{t,j} has its first 1 at 3t+j, and the 3(n-3) rows form a unit
triangular block.  ``initial_forms.check_leads`` checks this certificate,
that every position leads some row, on every matrix the kernel reads.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .plucker import all_triples, triple_key
from .sequences import IteratedSequence

Vector = tuple[int, ...]

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_ZERO = (0, 0, 0)


class DimensionError(ValueError):
    """Vector length does not match 3(n-3)."""


@lru_cache(maxsize=None)
def _transitions(top: int, triple: tuple[int, int, int]) -> tuple[dict, dict]:
    """The charged triad and the next multi-index of every 3-subset of
    [top], at the level with this top index and triple."""
    charge, step = {}, {}
    for current in itertools.combinations(range(1, top + 1), 3):
        if top not in current:
            charge[current], step[current] = _ZERO, current
            continue
        j = next(j for j, candidate in enumerate(triple) if candidate not in current)
        charge[current] = _UNITS[j]
        step[current] = tuple(sorted({*current, triple[j]} - {top}))
    return charge, step


def valuation_rows(seq: IteratedSequence, triples) -> tuple[Vector, ...]:
    """Greedy descent valuations of the Pluecker coordinates p_K, one row
    per increasing triple K, level by level."""
    triples = states = list(triples)
    rows = [()] * len(states)
    for t, triple in enumerate(seq.triples):
        charge, step = _transitions(seq.n - t, triple)
        rows = list(map(add, rows, map(charge.__getitem__, states)))
        states = list(map(step.__getitem__, states))
    if states.count((1, 2, 3)) != len(states):
        K, state = next((K, s) for K, s in zip(triples, states) if s != (1, 2, 3))
        raise RuntimeError(f"the descent of p_{K} ends at {state}, not at (1, 2, 3)")
    return tuple(rows)


class WeightingMatrix(NamedTuple):
    """One valuation row per K in lex-ordered I_{3,n}."""

    triples: tuple[tuple[int, int, int], ...]
    rows: tuple[Vector, ...]

    def items(self):
        return zip(self.triples, self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for triple, row in self.items():
            writer.writerow([triple_key(triple), *row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "WeightingMatrix":
        triples, rows = [], []
        for record in csv.reader(io.StringIO(text)):
            if not record:
                continue
            triples.append(tuple(int(c) for c in record[0]))
            rows.append(tuple(int(x) for x in record[1:]))
        return cls(tuple(triples), tuple(rows))


def weighting_matrix(seq: IteratedSequence) -> WeightingMatrix:
    """Stack the valuations of all Pluecker coordinates in lex row order."""
    triples = tuple(all_triples(seq.n))
    return WeightingMatrix(triples, valuation_rows(seq, triples))
