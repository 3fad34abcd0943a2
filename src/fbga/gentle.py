"""Gentle presentations and their Brauer-graph trivial extensions.

A gentle presentation is a quiver with length-two monomial relations such
that at every vertex composition behaves like a partial matching: each
arrow has at most one allowed successor, at most one forbidden successor,
and dually for predecessors.

The maximal nonzero paths visit every quiver vertex at most twice; each
is named by its first arrow (``p:a``).  Counting those visits, every
vertex visited once takes one trivial path (``t:v``) and every isolated
vertex two (``u:v`` and ``t:v``), so the augmented paths visit every
quiver vertex exactly twice.
Reading each augmented path as a graph vertex whose rotation lists its
visits in traversal order produces a ribbon graph whose edges are the
quiver vertices; with degrees = valencies it is a Brauer graph and its
algebra is the trivial extension.  The wrap angle of each path (between
its last and first visit) induces the cutting set used for the r-fold
trivial extensions and the repetitive-algebra windows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .afbg import Afbg
from .covering import CoverResult, cover_finite, cover_window
from .errors import InputError, InvariantError, UnboundedPath
from .presentation import Presentation, build_presentation
from .ribbon import EDGE_SEP, RibbonGraph


@dataclass(frozen=True)
class QuiverArrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class GentlePresentation:
    vertices: tuple
    arrows: dict  # name -> QuiverArrow
    zero_relations: tuple  # (later, earlier): the path later*earlier vanishes

    @classmethod
    def build(cls, vertices, arrows, zero_relations) -> "GentlePresentation":
        vs = {}  # a dict keeps the order and tests membership in O(1)
        for v in vertices:
            if not isinstance(v, str) or not v or EDGE_SEP in v:
                raise InputError(f"bad quiver vertex id {v!r}")
            if v in vs:
                raise InputError(f"duplicate quiver vertex {v!r}")
            vs[v] = None
        amap = {}
        for a in arrows:
            name, src, tgt = a
            if not isinstance(name, str) or not name or EDGE_SEP in name:
                raise InputError(f"bad arrow id {name!r}")
            if name in amap:
                raise InputError(f"duplicate arrow {name!r}")
            if src not in vs or tgt not in vs:
                raise InputError(f"arrow {name!r} has unknown endpoint")
            amap[name] = QuiverArrow(name, src, tgt)
        rels = []
        for later, earlier in zero_relations:
            for x in (later, earlier):
                if x not in amap:
                    raise InputError(f"relation references unknown arrow {x!r}")
            rels.append((later, earlier))
        return cls(tuple(vs), amap, tuple(rels))


def _arrows_at(p: GentlePresentation):
    """(out_at, in_at): the names of the arrows that start and that end at
    each quiver vertex, in the order of ``p.arrows``."""
    out_at = {v: [] for v in p.vertices}
    in_at = {v: [] for v in p.vertices}
    for a in p.arrows.values():
        out_at[a.source].append(a.name)
        in_at[a.target].append(a.name)
    return out_at, in_at


def validate_gentle(p: GentlePresentation) -> list[str]:
    """Structural gentleness check; empty list iff the presentation is gentle."""
    problems = []
    out_at, in_at = _arrows_at(p)
    for v in p.vertices:
        if len(out_at[v]) > 2:
            problems.append(f"vertex {v}: {len(out_at[v])} arrows start here (max 2)")
        if len(in_at[v]) > 2:
            problems.append(f"vertex {v}: {len(in_at[v])} arrows end here (max 2)")

    seen = set()
    relset = set()
    for later, earlier in p.zero_relations:
        if (later, earlier) in seen:
            problems.append(f"relation {later}*{earlier} listed twice")
        seen.add((later, earlier))
        if p.arrows[earlier].target != p.arrows[later].source:
            problems.append(f"relation {later}*{earlier} is not composable")
        else:
            relset.add((later, earlier))

    for a in p.arrows.values():
        followers = out_at[a.target]
        allowed = [b for b in followers if (b, a.name) not in relset]
        forbidden = [b for b in followers if (b, a.name) in relset]
        if len(allowed) > 1:
            problems.append(f"arrow {a.name}: several nonzero successors {allowed}")
        if len(forbidden) > 1:
            problems.append(f"arrow {a.name}: several zero successors {forbidden}")
        leaders = in_at[a.source]
        allowed_in = [b for b in leaders if (a.name, b) not in relset]
        forbidden_in = [b for b in leaders if (a.name, b) in relset]
        if len(allowed_in) > 1:
            problems.append(f"arrow {a.name}: several nonzero predecessors {allowed_in}")
        if len(forbidden_in) > 1:
            problems.append(f"arrow {a.name}: several zero predecessors {forbidden_in}")
    return problems


def _require_gentle(p: GentlePresentation):
    problems = validate_gentle(p)
    if problems:
        raise InputError("not a gentle presentation: " + "; ".join(problems))


def maximal_paths(p: GentlePresentation) -> list[tuple]:
    """Maximal nonzero paths as arrow-name tuples in application order.

    The allowed-successor relation is a partial bijection on arrows, so
    its components are chains (returned, in order of their first arrows)
    or cycles (relation-free oriented cycles make the algebra
    infinite-dimensional)."""
    _require_gentle(p)
    relset = set(p.zero_relations)
    out_at, _ = _arrows_at(p)
    succ = {a.name: b for a in p.arrows.values()
            for b in out_at[a.target] if (b, a.name) not in relset}
    paths = []
    for s in sorted(set(p.arrows) - set(succ.values())):
        chain = [s]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        paths.append(tuple(chain))
    if sum(map(len, paths)) < len(p.arrows):  # chains are disjoint: succ is injective
        raise UnboundedPath(
            f"relation-free oriented cycle through {sorted(set(p.arrows).difference(*paths))}; "
            "the path algebra is infinite-dimensional")
    return paths


PATH_PREFIX = "p:"
# a vertex that the maximal paths visit n < 2 times takes trivial paths
# named with the last 2 - n prefixes: "t:" alone, or "u:" and "t:"
TRIVIAL_PREFIXES = ("u:", "t:")


@dataclass(frozen=True)
class AugmentedPaths:
    rotations: dict       # graph-vertex key -> half-edges of its visits, in order
    occurrences: dict     # quiver vertex -> the half-edges of its two visits


def augmented_vertex_set(p: GentlePresentation) -> AugmentedPaths:
    """Maximal paths plus trivial paths, which cover every quiver vertex
    exactly twice.

    A maximal path is named by its first arrow, which lies on no other
    one.  In a gentle quiver the maximal paths visit each vertex at most
    twice: at most two arrows enter it and two leave it, and an arrow
    with two possible continuations has exactly one nonzero one.  Each
    vertex then takes one trivial path per missing visit, so an isolated
    vertex takes two."""
    tours = [(PATH_PREFIX + c[0], [p.arrows[c[0]].source] + [p.arrows[a].target for a in c])
             for c in maximal_paths(p)]
    visits = Counter(v for _, vs in tours for v in vs)
    tours += [(prefix + v, [v]) for v in sorted(p.vertices)
              for prefix in TRIVIAL_PREFIXES[visits[v]:]]

    rotations = {}
    occurrences = {v: [] for v in p.vertices}
    for key, vs in tours:
        rotations[key] = [f"{key}#{pos}" for pos in range(len(vs))]
        for h, v in zip(rotations[key], vs):
            occurrences[v].append(h)
    bad = {v: len(occ) for v, occ in occurrences.items() if len(occ) != 2}
    if bad:
        raise InvariantError(
            f"quiver vertices not visited exactly twice by the augmented paths: {bad}")
    return AugmentedPaths(rotations, occurrences)


@dataclass(frozen=True)
class GentleGraphResult:
    afbg: Afbg            # the Brauer graph (degrees = valencies)
    cut: dict             # induced cutting set (last visit of each path)


def ribbon_graph_of_gentle(p: GentlePresentation) -> GentleGraphResult:
    """The ribbon graph of a gentle presentation, with its induced cut.

    Graph vertices are the augmented paths; the rotation at a path lists
    its visits in traversal order (wrapping at the end); the two visits
    of a quiver vertex are glued into an edge; degrees are valencies.
    The cut picks the half-edge of each path's last visit, so the cut
    angle sits between the last and first visit."""
    aug = augmented_vertex_set(p)
    rotations = aug.rotations
    graph = RibbonGraph.build(rotations, [aug.occurrences[v] for v in sorted(p.vertices)])
    afbg = Afbg.build(graph, {key: len(rot) for key, rot in rotations.items()})
    return GentleGraphResult(afbg, {key: rot[-1] for key, rot in rotations.items()})


def trivial_extension(p: GentlePresentation) -> Presentation:
    """Presentation of the trivial extension: the algebra of the induced
    Brauer graph with degrees = valencies."""
    return build_presentation(ribbon_graph_of_gentle(p).afbg)


def gentle_cover(p: GentlePresentation, r: int) -> CoverResult:
    res = ribbon_graph_of_gentle(p)
    return cover_finite(res.afbg, res.cut, r)


def r_fold_trivial_extension(p: GentlePresentation, r: int) -> Presentation:
    """Presentation of the r-fold trivial extension: the algebra of the
    r-sheeted cover of the induced Brauer graph along the induced cut."""
    return build_presentation(gentle_cover(p, r).cover)


# -- repetitive-algebra windows --------------------------------------------------

def repetitive_window(p: GentlePresentation, lo: int, hi: int) -> Presentation:
    """Window of sheets lo..hi of the quiver of the repetitive algebra: the
    presentation of the induced Brauer graph over the window's partial
    rotation.  Boundary arrows whose rotation step leaves the window keep
    their source but dangle; relations are listed only when entirely
    inside the window."""
    res = ribbon_graph_of_gentle(p)
    return build_presentation(res.afbg, cover_window(res.afbg, res.cut, lo, hi))
