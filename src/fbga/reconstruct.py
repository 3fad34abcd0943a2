"""Recovering the graph-with-degrees from the Loewy data of its projectives.

Input: one row per simple — the label, the two radical strands of its
projective cover (labels from just below the top, down to just above the
socle), and the socle label.  The socle recurrence pins every rotation
walk: d places after label x the walk passes through socle(row x).  The
content of the data is therefore rigid, and the only freedom left is
which of a row's two sides realizes which continuation — a genuine
choice exactly when both sides carry identical strands (a *tie*).  Each
tie has one bit: which of the tied row's two sides follows which of the
two sides that demand it.  Reconstruction builds candidate graphs from
wirings, keeps the ones that are connected, admissible and reproduce the
input table, and deduplicates up to isomorphism.  One survivor is the
answer; several raise ``Ambiguous``; none raise ``InconsistentInput``.

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
2^t wirings would return.

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
from .presentation import loewy_table
from .ribbon import EDGE_SEP, RibbonGraph, edge_id_of_pair, is_isomorphic, orbits


@dataclass(frozen=True)
class SimpleRow:
    label: str
    strands: tuple  # exactly two tuples of labels; () is a valid strand
    uniserial: bool
    socle: str


@dataclass(frozen=True)
class LoewyData:
    rows: tuple  # SimpleRow, sorted by label

    @classmethod
    def build(cls, raw_rows) -> "LoewyData":
        rows = []
        labels = set()
        for label, strands, uniserial, socle in raw_rows:
            if not isinstance(label, str) or not label or EDGE_SEP in label:
                raise InputError(f"bad simple label {label!r}")
            if label in labels:
                raise InputError(f"duplicate simple label {label!r}")
            labels.add(label)
            strands = tuple(tuple(s) for s in strands)
            if len(strands) > 2:
                raise InputError(f"simple {label!r} lists {len(strands)} strands (max 2)")
            strands = strands + ((),) * (2 - len(strands))
            rows.append(SimpleRow(label, strands, bool(uniserial), socle))
        for row in rows:
            for s in row.strands:
                if not labels.issuperset(s):
                    x = next(x for x in s if x not in labels)
                    raise InputError(
                        f"strand of {row.label!r} mentions unknown label {x!r}")
            if row.socle not in labels:
                raise InputError(f"socle of {row.label!r} is unknown label {row.socle!r}")
            nonempty = sum(1 for s in row.strands if s)
            if row.uniserial != (nonempty <= 1):
                raise InconsistentInput(
                    f"simple {row.label!r}: uniserial flag contradicts the strands")
        if sorted(r.socle for r in rows) != sorted(labels):
            raise InconsistentInput(
                "socles must permute the simples (each label exactly once)")
        return cls(tuple(sorted(rows, key=lambda r: r.label)))


def loewy_data_of(a: Afbg):
    """Loewy data of an algebra, with edges relabeled s0, s1, ...
    Returns (data, mapping edge id -> label)."""
    name = {e: f"s{i}" for i, e in enumerate(sorted(a.graph.edge_ids()))}
    raw = [(r.top, r.strands, r.uniserial, r.socle)
           for r in loewy_table(a, name).values()]
    return LoewyData.build(raw), name


@dataclass(frozen=True)
class _Instance:
    name: str       # half-edge name in the candidate graphs
    label: str
    strand: tuple
    socle: str


@dataclass(frozen=True)
class Reconstruction:
    afbg: Afbg
    edge_labels: dict  # derived edge id -> input label
    wirings_tried: int


def reconstruct_afbg(data: LoewyData) -> Reconstruction:
    rows = data.rows
    if len(rows) == 1:
        l = rows[0].label
        if rows[0].strands == ((l,), (l,)) and rows[0].socle == l:
            raise Exceptional(
                "table fits both 4-dimensional local algebras (a loop of "
                "degree 2 and an edge of degrees 2,2); they cannot be told apart")

    instances = []
    for idx, row in enumerate(rows):
        for side, tag in ((0, "a"), (1, "b")):
            instances.append(_Instance(f"e{idx}{tag}", row.label,
                                       row.strands[side], row.socle))

    supply = {}
    demand = {}
    wants = {}  # instance name -> demand key
    for inst in instances:
        supply.setdefault((inst.label, inst.strand), []).append(inst.name)
        window = inst.strand + (inst.socle,)
        wants[inst.name] = (window[0], window[1:])
        demand.setdefault(wants[inst.name], []).append(inst.name)
    if {k: len(v) for k, v in supply.items()} != {k: len(v) for k, v in demand.items()}:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    ties = sorted(k for k, v in supply.items() if len(v) == 2)
    # both sides of a tied row demand the same key, so that key is a tie too
    feeds = {key: wants[supply[key][0]] for key in ties}
    if ties and (len(ties) < len(rows) or len(orbits(feeds)) > 1):
        raise InconsistentInput(
            "no connected admissible graph realizes this table")

    strand_len = {inst.name: len(inst.strand) for inst in instances}
    edges = [[f"e{idx}a", f"e{idx}b"] for idx in range(len(rows))]
    edge_labels = {edge_id_of_pair(f"e{idx}a", f"e{idx}b"): row.label
                   for idx, row in enumerate(rows)}
    successor = {d: s for key, dlist in demand.items()
                 for d, s in zip(sorted(dlist), supply[key])}
    wirings = [successor]
    if ties:
        # the other parity class: the last tie's two sides exchanged
        d1, d2 = sorted(demand[ties[-1]])
        wirings.append({**successor, d1: successor[d2], d2: successor[d1]})

    survivors = []
    for successor in wirings:
        candidate = _build_candidate(successor, strand_len, edges)
        if candidate is None:
            continue
        graph, degrees = candidate
        if not graph.connected:
            continue
        try:
            a = Afbg.build(graph, degrees)
        except NotAdmissible:
            continue
        if _table_matches(a, data, edge_labels):
            survivors.append(a)

    if len(survivors) == 2 and is_isomorphic(
            survivors[0].graph, survivors[1].graph,
            survivors[0].degrees, survivors[1].degrees) is not None:
        survivors.pop()
    if not survivors:
        raise InconsistentInput(
            "no connected admissible graph realizes this table")
    if len(survivors) > 1:
        raise Ambiguous(
            f"{len(survivors)} non-isomorphic graphs realize this table",
            tie_classes=sorted({label for label, _ in ties}))
    return Reconstruction(survivors[0], edge_labels, len(wirings))


def _build_candidate(successor, strand_len, edges):
    rotations = {}
    degrees = {}
    for cycle in orbits(successor):
        depths = {strand_len[h] + 1 for h in cycle}
        if len(depths) != 1:
            return None
        v = f"v{len(rotations)}"
        rotations[v] = cycle
        degrees[v] = depths.pop()
    try:
        graph = RibbonGraph.build(rotations, edges)
    except InputError:
        return None
    return graph, degrees


def _table_matches(a: Afbg, data: LoewyData, edge_labels) -> bool:
    table = loewy_table(a, edge_labels)
    for row in data.rows:
        got = table[row.label]
        if sorted(got.strands) != sorted(row.strands):
            return False
        if got.socle != row.socle or got.uniserial != row.uniserial:
            return False
    return True

