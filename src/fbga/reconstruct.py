"""Recovering the graph-with-degrees from the Loewy data of its projectives.

Input: one row per simple — the label, the two radical strands of its
projective cover (labels from just below the top, down to just above the
socle), and the socle label.  The socle recurrence pins every rotation
walk: d places after label x the walk passes through socle(row x).  The
content of the data is therefore rigid, and the only freedom left is
which of a row's two sides realizes which continuation — a genuine
choice exactly when both sides carry identical strands.  Reconstruction
enumerates those side swaps, builds each candidate graph, keeps the ones
that are connected, admissible and reproduce the input table, and
deduplicates up to isomorphism.  One survivor is the answer; several
raise ``Ambiguous``; none raise ``InconsistentInput``.

The one-row table with strands ((l,), (l,)) and socle l is realized by
both 4-dimensional local algebras (loop of degree 2; edge of degrees
2,2) and is reported as ``Exceptional`` rather than merely ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .afbg import Afbg
from .errors import (
    Ambiguous,
    Exceptional,
    InconsistentInput,
    InputError,
    NotAdmissible,
)
from .presentation import loewy_table
from .ribbon import EDGE_SEP, RibbonGraph, canonical_code, edge_id_of_pair

WIRING_CAP = 4096


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
                for x in s:
                    if x not in labels:
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
    table = loewy_table(a)
    name = {e: f"s{i}" for i, e in enumerate(sorted(table))}
    raw = []
    for e in sorted(table):
        r = table[e]
        raw.append((name[e],
                    tuple(tuple(name[x] for x in s) for s in r.strands),
                    r.uniserial,
                    name[r.socle]))
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
    for inst in instances:
        supply.setdefault((inst.label, inst.strand), []).append(inst.name)
        window = inst.strand + (inst.socle,)
        demand.setdefault((window[0], window[1:]), []).append(inst.name)
    if {k: len(v) for k, v in supply.items()} != {k: len(v) for k, v in demand.items()}:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    ties = sorted(k for k, v in supply.items() if len(v) == 2)
    tie_labels = sorted({label for label, _ in ties})
    if 2 ** len(ties) > WIRING_CAP:
        raise Ambiguous(
            f"{len(ties)} interchangeable side pairs exceed the enumeration "
            f"bound of {WIRING_CAP} wirings", tie_classes=tie_labels)

    strand_len = {inst.name: len(inst.strand) for inst in instances}
    edges = [[f"e{idx}a", f"e{idx}b"] for idx in range(len(rows))]
    edge_labels = {edge_id_of_pair(f"e{idx}a", f"e{idx}b"): row.label
                   for idx, row in enumerate(rows)}
    label_of = {v: k for k, v in edge_labels.items()}

    survivors = {}
    wirings = 0
    for bits in product((0, 1), repeat=len(ties)):
        wirings += 1
        successor = {}
        for key, dlist in demand.items():
            slist = supply[key]
            if len(slist) == 1:
                successor[dlist[0]] = slist[0]
            else:
                b = bits[ties.index(key)]
                d1, d2 = sorted(dlist)
                successor[d1] = slist[b]
                successor[d2] = slist[1 - b]

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
        if not _table_matches(a, data, edge_labels, label_of):
            continue
        survivors.setdefault(canonical_code(graph, degrees), a)

    if not survivors:
        raise InconsistentInput(
            "no connected admissible graph realizes this table")
    if len(survivors) > 1:
        raise Ambiguous(
            f"{len(survivors)} non-isomorphic graphs realize this table",
            tie_classes=tie_labels)
    (a,) = survivors.values()
    return Reconstruction(a, edge_labels, wirings)


def _build_candidate(successor, strand_len, edges):
    rotations = {}
    degrees = {}
    seen = set()
    for start in sorted(successor):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = successor[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = successor[cur]
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


def _table_matches(a: Afbg, data: LoewyData, edge_labels, label_of) -> bool:
    table = loewy_table(a)
    for row in data.rows:
        got = table[label_of[row.label]]
        got_strands = sorted(tuple(edge_labels[e] for e in s) for s in got.strands)
        if got_strands != sorted(row.strands):
            return False
        if edge_labels[got.socle] != row.socle or got.uniserial != row.uniserial:
            return False
    return True


def roundtrip_check(a: Afbg) -> bool:
    """Whether the algebra's own Loewy data reconstructs a graph
    isomorphic (degrees included) to the one it came from."""
    from .ribbon import is_isomorphic

    data, _ = loewy_data_of(a)
    res = reconstruct_afbg(data)
    return is_isomorphic(res.afbg.graph, a.graph,
                         res.afbg.degrees, a.degrees) is not None
