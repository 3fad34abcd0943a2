"""Finite cyclic coverings of Brauer graphs, windows, and quotients.

A cutting set picks one half-edge per vertex; the chosen half-edge is the
*last* element of the star ordering, so the cut sits in the angle between
it and its rotation successor.  The r-sheeted cover copies every
half-edge r times and chains the star orderings sheet by sheet: within a
sheet the rotation follows the ordering, and the last half-edge of sheet
j advances to the first half-edge of sheet j+1 (mod r).

The base must be a Brauer graph (integral multiplicities).  The cover is
admissible exactly when all base multiplicities are congruent mod r (the
Nakayama permutation of the cover shifts sheets by the local multiplicity,
and the pairing-compatibility condition forces the shift to agree across
every edge); covers of bases with multiplicity ≡ 1 mod r additionally
have all Nakayama orbits of size exactly r and reduce back to the base.
``cover_finite`` validates the result and raises ``CoverNotAdmissible``
when the congruence fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afbg import Afbg
from .errors import (
    CoverNotAdmissible,
    InvalidCut,
    NonDivisorPower,
    NotABrauerGraph,
    NotAdmissible,
    QuotientNotAdmissible,
    RibbonStructureError,
)
from .ribbon import RibbonGraph, orbits, quotient_by_orbits

SHEET_SEP = "@"


def sheet_name(half_edge: str, j: int) -> str:
    return f"{half_edge}{SHEET_SEP}{j}"


def validate_cut(graph: RibbonGraph, cut: dict) -> None:
    if set(cut) != set(graph.vertices):
        missing = set(graph.vertices) - set(cut)
        extra = set(cut) - set(graph.vertices)
        raise InvalidCut(f"cut must pick one half-edge per vertex "
                         f"(missing {sorted(missing)}, extra {sorted(extra)})")
    for v, h in cut.items():
        if graph.attach.get(h) != v:
            raise InvalidCut(f"cut half-edge {h!r} is not attached at {v!r}")


def ordering_from_cut(graph: RibbonGraph, cut: dict) -> dict:
    """Star ordering (h_1, ..., h_n) per vertex with h_n = cut(v) and
    h_1 = rotation(cut(v))."""
    validate_cut(graph, cut)
    out = {}
    for v in graph.vertices:
        star = graph.stars[v]
        i = star.index(cut[v])
        out[v] = tuple(star[i + 1:] + star[:i + 1])
    return out


def smallest_cut(graph: RibbonGraph) -> dict:
    """Canonical cut: the lexicographically smallest half-edge at each vertex."""
    return {v: graph.stars[v][0] for v in graph.vertices}


@dataclass(frozen=True)
class CoverResult:
    cover: Afbg
    base: Afbg
    sheets: int
    projection: dict  # cover half-edge -> base half-edge


def cover_finite(base: Afbg, cut: dict, r: int) -> CoverResult:
    if not isinstance(r, int) or r < 1:
        raise InvalidCut(f"sheet count must be a positive integer, got {r!r}")
    if not base.is_brauer_graph():
        bad = sorted(v for v in base.graph.vertices
                     if base.multiplicity(v).denominator != 1)
        raise NotABrauerGraph(
            f"covering base needs integral multiplicities; fractional at {bad}")
    ordering = ordering_from_cut(base.graph, cut)

    rotations = {}
    for v in base.graph.vertices:
        rotations[v] = [sheet_name(h, j) for j in range(r) for h in ordering[v]]
    edges = [[sheet_name(x, j), sheet_name(y, j)]
             for x, y in base.graph.edge_pairs() for j in range(r)]
    graph = RibbonGraph.build(rotations, edges)

    projection = {sheet_name(h, j): h
                  for h in base.graph.half_edges for j in range(r)}
    try:
        cover = Afbg.build(graph, dict(base.degrees))
    except NotAdmissible as exc:
        raise CoverNotAdmissible(
            f"{r}-sheeted cover is not admissible; base multiplicities must "
            f"be congruent mod {r} ({exc})") from exc
    return CoverResult(cover, base, r, projection)


def verify_covering(cover: Afbg, base: Afbg, projection: dict):
    """Check that ``projection`` is an equivariant covering map with
    uniform fibers.  Returns (ok, reason)."""
    gc, gb = cover.graph, base.graph
    if set(projection) != set(gc.half_edges):
        return False, "projection domain is not the cover's half-edge set"
    image = set(projection.values())
    if image != set(gb.half_edges):
        return False, "projection is not onto the base's half-edges"
    if set(gc.vertices) != set(gb.vertices):
        return False, "cover and base must share their vertex set"
    for h, b in projection.items():
        if gc.attach[h] != gb.attach[b]:
            return False, f"attachment differs at {h}"
        if projection[gc.pairing[h]] != gb.pairing[b]:
            return False, f"pairing does not commute at {h}"
        if projection[gc.rotation[h]] != gb.rotation[b]:
            return False, f"rotation does not commute at {h}"
    sizes = {}
    for h, b in projection.items():
        sizes[b] = sizes.get(b, 0) + 1
    if len(set(sizes.values())) != 1:
        return False, "fibers are not uniform"
    for v in gb.vertices:
        if cover.degrees[v] != base.degrees[v]:
            return False, f"degree differs at vertex {v}"
    return True, "covering verified"


# -- window into the infinite cyclic cover -------------------------------------

@dataclass(frozen=True)
class BorderedRibbonGraph:
    """Finite window of sheets [lo, hi] of the infinite cyclic cover.

    Rotation is partial: the last half-edge of a star on the top sheet
    has no successor (it points out of the window), and the first
    half-edge on the bottom sheet has no predecessor.  This is not a
    ribbon graph; the presentation builder reads its attach, pairing and
    partial rotation.
    """

    vertices: tuple
    attach: dict
    pairing: dict
    rotation: dict      # partial
    no_successor: tuple  # half-edges whose rotation leaves the window
    no_predecessor: tuple
    lo: int
    hi: int

    @property
    def half_edges(self):
        return tuple(sorted(self.attach))


def cover_window(base: Afbg, cut: dict, lo: int, hi: int) -> BorderedRibbonGraph:
    if lo > hi:
        raise InvalidCut(f"empty window {lo}:{hi}")
    if not base.is_brauer_graph():
        raise NotABrauerGraph("window base needs integral multiplicities")
    ordering = ordering_from_cut(base.graph, cut)

    attach = {}
    rotation = {}
    no_succ = []
    no_pred = []
    for v in base.graph.vertices:
        order = ordering[v]
        column = [sheet_name(h, j) for j in range(lo, hi + 1) for h in order]
        for h in column:
            attach[h] = v
        for a, b in zip(column, column[1:]):
            rotation[a] = b
        no_succ.append(column[-1])
        no_pred.append(column[0])
    pairing = {}
    for x, y in base.graph.edge_pairs():
        for j in range(lo, hi + 1):
            a, b = sheet_name(x, j), sheet_name(y, j)
            pairing[a] = b
            pairing[b] = a
    return BorderedRibbonGraph(
        vertices=tuple(sorted(base.graph.vertices)),
        attach=attach,
        pairing=pairing,
        rotation=rotation,
        no_successor=tuple(sorted(no_succ)),
        no_predecessor=tuple(sorted(no_pred)),
        lo=lo,
        hi=hi,
    )


# -- quotients ------------------------------------------------------------------

def quotient_by_nakayama_power(a: Afbg, k: int) -> Afbg:
    """Collapse orbits of the k-th power of the Nakayama permutation.

    ``k`` must divide the permutation's order.  k = 1 recovers the
    reduced form; k = order gives the graph back (up to renaming)."""
    order = a.nakayama_order()
    if not isinstance(k, int) or k < 1 or order % k != 0:
        raise NonDivisorPower(
            f"power {k!r} must be a positive divisor of the nakayama order {order}")
    power = {}
    for h in a.graph.half_edges:
        x = h
        for _ in range(k):
            x = a.nakayama[x]
        power[h] = x
    cls = {}
    for cyc in orbits(power):
        for h in cyc:
            cls[h] = cyc[0]
    try:
        graph = quotient_by_orbits(a.graph, cls)
        return Afbg.build(graph, dict(a.degrees))
    except (RibbonStructureError, NotAdmissible) as exc:
        raise QuotientNotAdmissible(f"quotient by nakayama^{k} failed: {exc}") from exc
