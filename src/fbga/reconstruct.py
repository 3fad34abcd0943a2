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

from dataclasses import dataclass

from .afbg import Afbg
from .errors import (
    Ambiguous,
    Exceptional,
    InconsistentInput,
    InputError,
    NotAdmissible,
)
from .ribbon import EDGE_SEP, RibbonGraph, cycles, edge_id_of_pair, orbits


@dataclass(frozen=True)
class LoewyRow:
    label: str
    strands: tuple   # two texts, labels joined by EDGE_SEP, in half-edge pair order
    socle: str


@dataclass(frozen=True)
class LoewyData:
    rows: tuple  # LoewyRow, sorted by label; strands kept as given; "" is a valid strand

    @classmethod
    def build(cls, raw_rows) -> "LoewyData":
        """From (label, strands, socle) triples, each strand a label sequence;
        a row lists at most two strands, and a missing one is empty."""
        rows = []
        labels = set()
        for label, strands, socle in raw_rows:
            if not isinstance(label, str) or not label or EDGE_SEP in label:
                raise InputError(f"bad simple label {label!r}")
            if label in labels:
                raise InputError(f"duplicate simple label {label!r}")
            labels.add(label)
            strands = tuple(strands)
            if len(strands) > 2:
                raise InputError(f"simple {label!r} lists {len(strands)} strands (max 2)")
            rows.append((label, strands + ((),) * (2 - len(strands)), socle))
        for label, strands, socle in rows:
            for s in strands:
                if not labels.issuperset(s):
                    x = next(x for x in s if x not in labels)
                    raise InputError(f"strand of {label!r} mentions unknown label {x!r}")
            if socle not in labels:
                raise InputError(f"socle of {label!r} is unknown label {socle!r}")
        if sorted(socle for _, _, socle in rows) != sorted(labels):
            raise InconsistentInput(
                "socles must permute the simples (each label exactly once)")
        return cls._of_texts([(label, tuple(map(EDGE_SEP.join, strands)), socle)
                              for label, strands, socle in rows], labels)

    @classmethod
    def _of_texts(cls, rows, entries):
        """From (label, two strand texts, socle) rows whose strand entries lie
        in ``entries``, or None where ``build`` refuses them (it names why)."""
        labels = {l for l, _, _ in rows if isinstance(l, str) and l and EDGE_SEP not in l}
        # one socle per row: equal lists also mean no label is repeated or refused
        if (labels.issuperset(entries) and all(len(strands) == 2 for _, strands, _ in rows)
                and sorted(socle for _, _, socle in rows) == sorted(labels)):
            return cls(tuple(sorted((LoewyRow(*row) for row in rows), key=lambda r: r.label)))
        return None


def loewy_labels(graph: RibbonGraph) -> dict:
    """Edge id -> row label of a Loewy table: s0, s1, ... in edge-id order."""
    return {e: f"s{i}" for i, e in enumerate(sorted(graph.edge_ids()))}


@dataclass(frozen=True)
class Reconstruction:
    afbg: Afbg
    edge_labels: dict  # derived edge id -> input label
    wirings_tried: int


def reconstruct_afbg(data: LoewyData) -> Reconstruction:
    rows = data.rows
    if len(rows) == 1:
        l = rows[0].label
        if rows[0].strands == (l, l) and rows[0].socle == l:
            raise Exceptional(
                "table fits both 4-dimensional local algebras (a loop of "
                "degree 2 and an edge of degrees 2,2); they cannot be told apart")

    # A key is (label, text of a strand).  The text is injective because labels
    # are non-empty and free of EDGE_SEP, and LoewyData has checked that every
    # strand entry is a label before any key is built.
    supply = {}
    demand = {}
    wants = {}  # side name -> demand key: (window[0], text of window[1:])
    strand_len = {}
    for idx, row in enumerate(rows):
        for tag, text in zip("ab", row.strands):
            side = f"e{idx}{tag}"  # half-edge name in the candidate graphs
            supply.setdefault((row.label, text), []).append(side)
            if text:
                first, _, rest = text.partition(EDGE_SEP)
                want = (first, f"{rest}{EDGE_SEP}{row.socle}" if rest else row.socle)
            else:
                want = (row.socle, "")
            wants[side] = want
            demand.setdefault(want, []).append(side)
            strand_len[side] = text.count(EDGE_SEP) + 1 if text else 0
    if {k: len(v) for k, v in supply.items()} != {k: len(v) for k, v in demand.items()}:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    # supply was filled row by row, rows are sorted by label and a row supplies
    # at most one tie key, so the ties come in label order
    ties = [k for k, v in supply.items() if len(v) == 2]
    # both sides of a tied row demand the same key, so that key is a tie too
    feeds = {key: wants[supply[key][0]] for key in ties}
    if ties and (len(ties) < len(rows) or len(cycles(feeds)) > 1):
        raise InconsistentInput(
            "no connected admissible graph realizes this table")

    edges = [[f"e{idx}a", f"e{idx}b"] for idx in range(len(rows))]
    edge_labels = {edge_id_of_pair(f"e{idx}a", f"e{idx}b"): row.label
                   for idx, row in enumerate(rows)}
    # a demand list is one side, or (past the check above, where every row is
    # tied) the sides [e{i}a, e{i}b] of one row, so each is already sorted
    successor = {d: s for key, dlist in demand.items()
                 for d, s in zip(dlist, supply[key])}
    afbg = _build_candidate(successor, strand_len, edges)
    if afbg is None:
        raise InconsistentInput(
            "no connected admissible graph realizes this table")
    if ties:
        # the other parity class: the last tie's two sides exchanged
        d1, d2 = demand[ties[-1]]
        twin = {**successor, d1: successor[d2], d2: successor[d1]}
        if _build_candidate(twin, strand_len, edges) is not None:
            raise Ambiguous("2 non-isomorphic graphs realize this table",
                            tie_classes=[label for label, _ in ties])
    return Reconstruction(afbg, edge_labels, 2 if ties else 1)


def _build_candidate(successor, strand_len, edges):
    """The graph whose rotation is ``successor`` (vertices v0, v1, ... in
    anchor order) with its degrees, if connected and admissible, else None.
    A side is followed by a side whose strand has the same length, so the
    sides of a vertex share one length L, and its degree is L + 1."""
    rotations = {f"v{i}": cycle for i, cycle in enumerate(orbits(successor))}
    graph = RibbonGraph.build(rotations, edges)
    if not graph.connected:
        return None
    try:
        return Afbg.build(graph, {v: strand_len[cycle[0]] + 1 for v, cycle in rotations.items()})
    except NotAdmissible:
        return None
