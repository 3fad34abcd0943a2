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

Both constructions lay out sheets with one builder, ``_sheets``:
``cover_finite`` closes its columns into rotation cycles and
``cover_window`` leaves them open.  Both are sized by what they build,
before building it: each half-edge counts ``HALF_EDGE_STEPS`` walk steps
against ``WALK_BUDGET``, so a cover costs that times r·|H| and a window
that times its half-edges plus its total walk length (its sheets times
the base's dimension); more raises ``SizeLimitExceeded``.  A cover of a
base with huge degrees is still built, since its size does not depend on
the degrees; presenting it is refused by the walk budget of the
presentation builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afbg import Afbg, _quotient
from .errors import CoverNotAdmissible, InvalidCut, NonDivisorPower, NotABrauerGraph, NotAdmissible
from .presentation import _check_budget, dimension
from .ribbon import RibbonGraph

SHEET_SEP = "@"


def ordering_from_cut(graph: RibbonGraph, cut: dict) -> dict:
    """Star ordering (h_1, ..., h_n) per vertex with h_n = cut(v) and
    h_1 = rotation(cut(v))."""
    if not isinstance(cut, dict):
        raise InvalidCut(f"cut must map each vertex to a half-edge, got {type(cut).__name__}")
    if set(cut) != set(graph.vertices):
        missing = set(graph.vertices) - set(cut)
        extra = set(cut) - set(graph.vertices)
        raise InvalidCut(f"cut must pick one half-edge per vertex "
                         f"(missing {sorted(missing, key=str)}, extra {sorted(extra, key=str)})")
    for v, h in cut.items():
        if h not in graph.stars[v]:  # by ==, so an unhashable h is refused too
            raise InvalidCut(f"cut half-edge {h!r} is not attached at {v!r}")
    out = {}
    for v in graph.vertices:
        star = graph.stars[v]
        i = star.index(cut[v])
        out[v] = tuple(star[i + 1:] + star[:i + 1])
    return out


def smallest_cut(graph: RibbonGraph) -> dict:
    """Canonical cut: the lexicographically smallest half-edge at each vertex."""
    return {v: graph.stars[v][0] for v in graph.vertices}


def _sheets(base: Afbg, cut: dict, lo: int, hi: int):
    """Sheets lo..hi along ``cut``: (columns, edges).  A vertex's column is
    its star ordering repeated sheet by sheet; every sheet copies every
    edge."""
    ordering = ordering_from_cut(base.graph, cut)
    suffixes = [f"{SHEET_SEP}{j}" for j in range(lo, hi + 1)]  # sheet j's copy of h is h@j
    columns = {v: [h + s for s in suffixes for h in order] for v, order in ordering.items()}
    edges = [[x + s, y + s] for x, y in base.graph.edge_pairs() for s in suffixes]
    return columns, edges


def cover_finite(base: Afbg, cut: dict, r: int) -> Afbg:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise InvalidCut(f"sheet count must be a positive integer, got {r!r}")
    if bad := sorted(v for v, star in base.graph.stars.items()
                     if base.degrees[v] % len(star)):
        raise NotABrauerGraph(
            f"covering base needs integral multiplicities; fractional at {bad}")
    n = len(base.graph.attach)
    _check_budget(0, f"cover with {r} sheets of {n} half-edges: cost", r * n)
    graph = RibbonGraph.build(*_sheets(base, cut, 0, r - 1))
    try:
        cover = Afbg.build(graph, dict(base.degrees))
    except NotAdmissible as exc:
        raise CoverNotAdmissible(
            f"{r}-sheeted cover is not admissible; base multiplicities must "
            f"be congruent mod {r} ({exc})") from exc
    return cover


# -- window into the infinite cyclic cover -------------------------------------

@dataclass(frozen=True)
class BorderedRibbonGraph:
    """Finite window of sheets [lo, hi] of the infinite cyclic cover.

    Rotation is partial: the last half-edge of a star on the top sheet
    has no successor (it points out of the window), and the first
    half-edge on the bottom sheet has no predecessor.  This is not a
    ribbon graph; the presentation builder reads its attach, pairing,
    partial rotation and stars.
    """

    attach: dict
    pairing: dict
    rotation: dict  # partial
    stars: dict  # vertex -> its column, in rotation order: a chain, not a cycle
    lo: int
    hi: int


def cover_window(base: Afbg, cut: dict, lo: int, hi: int) -> BorderedRibbonGraph:
    if type(lo) is not int or type(hi) is not int:  # a bool is no bound
        raise InvalidCut(f"window bounds must be integers, got {lo!r}:{hi!r}")
    if lo > hi:
        raise InvalidCut(f"empty window {lo}:{hi}")
    if not base.is_brauer_graph():
        raise NotABrauerGraph("window base needs integral multiplicities")
    sheets, n = hi - lo + 1, len(base.graph.attach)
    _check_budget(sheets * dimension(base),
                  f"window {lo}:{hi} of {sheets} sheets of {n} half-edges: cost", sheets * n)
    columns, edges = _sheets(base, cut, lo, hi)
    attach, rotation, pairing = {}, {}, {}
    for v, column in columns.items():
        attach.update(dict.fromkeys(column, v))
        rotation.update(zip(column, column[1:]))
    for x, y in edges:
        pairing[x], pairing[y] = y, x
    stars = {v: tuple(column) for v, column in columns.items()}
    return BorderedRibbonGraph(attach, pairing, rotation, stars, lo, hi)


# -- quotients ------------------------------------------------------------------

def quotient_by_nakayama_power(a: Afbg, k: int) -> Afbg:
    """Collapse orbits of the k-th power of the Nakayama permutation.

    ``k`` must divide the permutation's order.  k = 1 recovers the
    reduced form; k = order gives the graph back (up to renaming)."""
    order = a.nakayama_order()
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or order % k != 0:
        raise NonDivisorPower(
            f"power {k!r} must be a positive divisor of the nakayama order {order}")
    return _quotient(a, k)
