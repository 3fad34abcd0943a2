"""Recovering the graph-with-degrees from the Loewy data of its projectives.

Input: one row per simple — the label, the two radical strands of its
projective cover (labels from just below the top, down to just above the
socle), and the socle label.  The socle recurrence pins every rotation
walk: d places after label x the walk passes through socle(row x).  The
content of the data is therefore rigid, and the only freedom left is
which of a row's two sides realizes which continuation — a genuine
choice exactly when both sides carry identical strands (a *tie*).  Each
tie has one bit: which of the tied row's two sides follows which of the
two sides that demand it.  Reconstruction builds at most two candidate
graphs.  The first is the answer if it is connected and admissible, else
``InconsistentInput``; the second, one vertex against the first's two,
raises ``Ambiguous`` if it is admissible too.

Every candidate reproduces the input table, so none is checked against
it.  A side supplies the key (its row, its strand S) and demands the key
(W[0], W[1:]) of its window W = S + [σ], σ being its row's socle.  Once
supply and demand agree as multisets, every wiring follows each side s
by a side of row S[0] whose strand is S[1:] + [σ] (by a side of row σ
with the empty strand when S is empty).  That strand has the length L of
S, so the sides of one rotation cycle share one L, and
``_build_candidate`` gives their vertex degree L + 1.  By induction
ρ^k(s) lies on row S[k-1] for 1 ≤ k ≤ L, and ρ^(L+1)(s) on row σ.  A
candidate's edges are its rows, so the rotation walk from s lists S,
and ν(s) = ρ^(L+1)(s) lies on edge σ: every side of the
candidate carries the strand and the socle that the input gives it.
A key match also makes every strand entry a label: S[0] is the row of the
side that follows s, and S[k] is entry k - 1 of that side's strand.

At most two wirings need building, so there is no search bound.  Both
sides of a tied row demand the same key, and only the two sides of one
tied row supply it, so tied sides only ever follow tied sides: "feeds"
(a tie to the tie its row demands) is a permutation of the ties, and
each of its cycles is closed under the rotation and the edge pairing of
every candidate.  A table that mixes tied and untied rows, or whose ties
form two or more cycles, is therefore disconnected in every wiring and
is rejected before any graph is built.  Otherwise either there is no tie
(one wiring) or the ties form one cycle.  Renaming the two sides of a
tied row flips its own bit and that of the tie it feeds and gives the
same candidate with two half-edge names swapped, so on one cycle the
flips reach every wiring of the same bit parity: two classes, built as
the wirings that are 0 on every tie but the last (in sorted key order).
That is the member of each class that the full product order meets
first, so the labelled graph returned is the one an enumeration of all
2^t wirings would return.  In fact the first wiring always survives: a
demand list holds the two sides of one tied row, so it follows every
a side by an a side and every b side by a b side.  That gives two
vertices joined by every edge, on which ν turns both stars alike, so
(a) holds, (b) holds and the graph is connected.  The second wiring
exchanges the successors of the last tie's demand list, whose two sides
lie on different vertices, so it joins both rotation cycles into one: a
one-vertex twin, never isomorphic to the first, whose labels are never
returned.  So the table is ambiguous exactly when the twin is admissible.

The one-row table with strands ((l,), (l,)) and socle l is realized by
both 4-dimensional local algebras (loop of degree 2; edge of degrees
2,2) and is reported as ``Exceptional`` rather than merely ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .afbg import Afbg
from .errors import (
    Ambiguous,
    Exceptional,
    InconsistentInput,
    InputError,
    NotAdmissible,
)
from .ribbon import EDGE_SEP, RibbonGraph, cycles, orbits


class LoewyRow(NamedTuple):
    label: str
    strands: tuple   # two texts, labels joined by EDGE_SEP, in half-edge pair order
    socle: str


@dataclass(frozen=True)
class LoewyData:
    rows: tuple  # LoewyRow, sorted by label; strands kept as given; "" is a valid strand
    follow: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """``follow[s]``: the side that follows side s (side 2i + j is strand j
        of row i), or None unless labels are distinct, non-empty and free of
        EDGE_SEP, the socles permute them and the keys match.  A side supplies
        label~strand and demands strand~socle, keyed as (all but the last
        label, the last label); sorted by key, equal keys in side order, the
        k-th side to demand a key is followed by the k-th side to supply it."""
        rows, follow = self.rows, None
        labels = {row.label for row in rows}
        # one socle per row: equal sets also mean the socles permute the labels
        if (len(labels) == len(rows) and "" not in labels and EDGE_SEP not in "".join(labels)
                and labels == {row.socle for row in rows}):
            supply = [(l + sep + head, last) if t else ("", l) for l, strands, _ in rows
                      for t in strands for head, sep, last in [t.rpartition(EDGE_SEP)]]
            demand = [(t, s) for _, strands, s in rows for t in strands]  # no text copied
            by_supply = sorted(range(len(supply)), key=supply.__getitem__)
            by_demand = sorted(range(len(demand)), key=demand.__getitem__)
            if [*map(supply.__getitem__, by_supply)] == [*map(demand.__getitem__, by_demand)]:
                follow = tuple(map(dict(zip(by_demand, by_supply)).__getitem__, range(len(supply))))
        object.__setattr__(self, "follow", follow)

    @classmethod
    def build(cls, raw_rows) -> "LoewyData":
        """From (label, strands, socle) triples, each strand a label sequence;
        a row lists at most two strands, and a missing one is empty."""
        rows = []
        labels = set()
        for row in raw_rows:
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise InputError(f"loewy row {row!r:.60} is not (label, strands, socle)")
            label, strands, socle = row
            if not isinstance(label, str) or not label or EDGE_SEP in label:
                raise InputError(f"bad simple label {label!r}")
            if label in labels:
                raise InputError(f"duplicate simple label {label!r}")
            labels.add(label)
            if type(strands) not in (list, tuple) or not {list, tuple}.issuperset(
                    map(type, strands)):
                raise InputError(f"strands of {label!r} must be a list of label lists")
            strands = tuple(strands)
            if len(strands) > 2:
                raise InputError(f"simple {label!r} lists {len(strands)} strands (max 2)")
            rows.append((label, strands + ((),) * (2 - len(strands)), socle))
        for label, strands, socle in rows:
            for s in strands:  # labels are strings: no other entry is looked up
                if unknown := [x for x in s if type(x) is not str or x not in labels]:
                    raise InputError(f"strand of {label!r} mentions unknown label {unknown[0]!r}")
            if type(socle) is not str or socle not in labels:
                raise InputError(f"socle of {label!r} is unknown label {socle!r}")
        if sorted(socle for _, _, socle in rows) != sorted(labels):
            raise InconsistentInput(
                "socles must permute the simples (each label exactly once)")
        return cls(tuple(sorted(LoewyRow(label, tuple(map(EDGE_SEP.join, strands)), socle)
                                for label, strands, socle in rows)))  # by label: it is unique


def loewy_labels(graph: RibbonGraph) -> dict:
    """Edge id -> row label of a Loewy table: s0, s1, ... in edge-id order."""
    ids = sorted(a + EDGE_SEP + b for a, b in graph.pairing.items() if a < b)
    return {e: f"s{i}" for i, e in enumerate(ids)}


@dataclass(frozen=True)
class Reconstruction:
    afbg: Afbg
    edge_labels: dict  # derived edge id -> input label
    wirings_tried: int


def reconstruct_afbg(data: LoewyData) -> Reconstruction:
    rows, follow = data.rows, data.follow
    if len(rows) == 1 and rows[0] == (l := rows[0].label, (l, l), l):
        raise Exceptional(
            "table fits both 4-dimensional local algebras (a loop of "
            "degree 2 and an edge of degrees 2,2); they cannot be told apart")
    if follow is None:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    # a tied row's two sides supply one key; rows are sorted, so ties are too
    tied = [idx for idx, row in enumerate(rows) if row.strands[0] == row.strands[1]]
    # both sides of a tied row demand the same key, so the row they follow is tied too
    feeds = {idx: follow[2 * idx] // 2 for idx in tied}
    if tied and (len(tied) < len(rows) or len(cycles(feeds)) > 1):
        raise InconsistentInput(
            "no connected admissible graph realizes this table")

    names = [f"e{idx}{tag}" for idx in range(len(rows)) for tag in "ab"]  # half-edges
    sides = [*zip(names[::2], names[1::2])]
    edge_labels = {a + EDGE_SEP + b: row.label for (a, b), row in zip(sides, rows)}
    successor = dict(zip(names, map(names.__getitem__, follow)))
    # the number of labels in a side's window, L + 1 for its strand's length L
    window = dict(zip(names, (t.count(EDGE_SEP) + 2 if t else 1 for r in rows for t in r.strands)))
    afbg = _build_candidate(successor, window, sides)
    if afbg is None:
        raise InconsistentInput(
            "no connected admissible graph realizes this table")
    if tied:
        # the other parity class: the last tie's two demanding sides exchanged
        d1, d2 = sides[follow.index(2 * tied[-1]) // 2]
        twin = {**successor, d1: successor[d2], d2: successor[d1]}
        if _build_candidate(twin, window, sides) is not None:
            raise Ambiguous("2 non-isomorphic graphs realize this table",
                            tie_classes=[rows[idx].label for idx in tied])
    return Reconstruction(afbg, edge_labels, 2 if tied else 1)


def _build_candidate(successor, window, edges):
    """The graph with rotation ``successor`` (vertices v0, v1, ... in anchor
    order) and ``window`` degrees, if connected and admissible, else None."""
    rotations = {f"v{i}": cycle for i, cycle in enumerate(orbits(successor))}
    graph = RibbonGraph.build(rotations, edges)
    if not graph.connected:
        return None
    try:
        return Afbg.build(graph, {v: window[cycle[0]] for v, cycle in rotations.items()})
    except NotAdmissible:
        return None
