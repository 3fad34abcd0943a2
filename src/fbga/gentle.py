"""Gentle presentations and their Brauer-graph trivial extensions.

A gentle presentation is a quiver with length-two monomial relations such
that at every vertex composition behaves like a partial matching: each
arrow has at most one allowed successor, at most one forbidden successor,
and dually for predecessors.

The maximal nonzero paths, augmented by trivial paths at vertices that
would otherwise be undercovered, visit every quiver vertex exactly twice.
Reading each augmented path as a graph vertex whose rotation lists its
visits in traversal order produces a ribbon graph whose edges are the
quiver vertices; with degrees = valencies it is a Brauer graph and its
algebra is the trivial extension.  The wrap angle of each path (between
its last and first visit) induces the cutting set used for the r-fold
trivial extensions and the repetitive-algebra windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afbg import Afbg
from .covering import CoverResult, cover_finite, cover_window
from .errors import InputError, OccurrenceMismatch, UnboundedPath
from .presentation import Presentation, _present, build_presentation
from .ribbon import EDGE_SEP, RibbonGraph, edge_id_of_pair


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
        vs = []
        for v in vertices:
            if not isinstance(v, str) or not v or EDGE_SEP in v:
                raise InputError(f"bad quiver vertex id {v!r}")
            if v in vs:
                raise InputError(f"duplicate quiver vertex {v!r}")
            vs.append(v)
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


def validate_gentle(p: GentlePresentation) -> list[str]:
    """Structural gentleness check; empty list iff the presentation is gentle."""
    problems = []
    out_at = {v: [] for v in p.vertices}
    in_at = {v: [] for v in p.vertices}
    for a in p.arrows.values():
        out_at[a.source].append(a.name)
        in_at[a.target].append(a.name)
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
        followers = [b.name for b in p.arrows.values() if b.source == a.target]
        allowed = [b for b in followers if (b, a.name) not in relset]
        forbidden = [b for b in followers if (b, a.name) in relset]
        if len(allowed) > 1:
            problems.append(f"arrow {a.name}: several nonzero successors {allowed}")
        if len(forbidden) > 1:
            problems.append(f"arrow {a.name}: several zero successors {forbidden}")
        leaders = [b.name for b in p.arrows.values() if b.target == a.source]
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
    its components are chains (returned) or cycles (relation-free
    oriented cycles make the algebra infinite-dimensional)."""
    _require_gentle(p)
    relset = set(p.zero_relations)
    succ = {}
    pred = {}
    for a in p.arrows.values():
        for b in p.arrows.values():
            if b.source == a.target and (b.name, a.name) not in relset:
                succ[a.name] = b.name
                pred[b.name] = a.name

    paths = []
    starts = sorted(a for a in p.arrows if a not in pred)
    used = set()
    for s in starts:
        chain = [s]
        used.add(s)
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
            used.add(chain[-1])
        paths.append(tuple(chain))
    leftovers = sorted(set(p.arrows) - used)
    if leftovers:
        raise UnboundedPath(
            f"relation-free oriented cycle through {leftovers}; "
            "the path algebra is infinite-dimensional")
    return sorted(paths)


TRIVIAL_PREFIX = "t:"
PATH_PREFIX = "p:"
PATH_JOIN = "|"


def path_visits(p: GentlePresentation, chain: tuple) -> list:
    """Quiver vertices visited by a path, in traversal order."""
    first = p.arrows[chain[0]]
    visits = [first.source]
    for name in chain:
        visits.append(p.arrows[name].target)
    return visits


@dataclass(frozen=True)
class AugmentedPaths:
    paths: tuple          # maximal nonzero paths (arrow-name tuples)
    trivial: tuple        # quiver vertices carrying a trivial path
    occurrences: dict     # quiver vertex -> list of (graph-vertex key, position)

    def graph_vertex_keys(self) -> list[str]:
        keys = [PATH_PREFIX + PATH_JOIN.join(c) for c in self.paths]
        keys += [TRIVIAL_PREFIX + v for v in self.trivial]
        return sorted(keys)


def augmented_vertex_set(p: GentlePresentation) -> AugmentedPaths:
    """Maximal paths plus trivial paths, validated to cover every quiver
    vertex exactly twice.

    A trivial path joins at vertex i when i is a single-arrow source, a
    single-arrow sink, or has exactly one in-arrow a and one out-arrow b
    with b*a nonzero (the pass-through then accounts for only one of the
    two required visits)."""
    chains = maximal_paths(p)
    relset = set(p.zero_relations)
    out_at = {v: [] for v in p.vertices}
    in_at = {v: [] for v in p.vertices}
    for a in p.arrows.values():
        out_at[a.source].append(a.name)
        in_at[a.target].append(a.name)

    trivial = []
    for v in p.vertices:
        ins, outs = in_at[v], out_at[v]
        if len(ins) == 0 and len(outs) == 1:
            trivial.append(v)
        elif len(ins) == 1 and len(outs) == 0:
            trivial.append(v)
        elif len(ins) == 1 and len(outs) == 1 and (outs[0], ins[0]) not in relset:
            trivial.append(v)

    occurrences = {v: [] for v in p.vertices}
    for chain in chains:
        key = PATH_PREFIX + PATH_JOIN.join(chain)
        for pos, v in enumerate(path_visits(p, chain)):
            occurrences[v].append((key, pos))
    for v in trivial:
        occurrences[v].append((TRIVIAL_PREFIX + v, 0))

    bad = {v: len(occ) for v, occ in occurrences.items() if len(occ) != 2}
    if bad:
        raise OccurrenceMismatch(
            f"quiver vertices not covered exactly twice by the augmented "
            f"path set: {bad}")
    return AugmentedPaths(tuple(chains), tuple(sorted(trivial)), occurrences)


@dataclass(frozen=True)
class GentleGraphResult:
    afbg: Afbg            # the Brauer graph (degrees = valencies)
    cut: dict             # induced cutting set (last visit of each path)
    edge_of_quiver_vertex: dict  # quiver vertex -> derived edge id


def half_edge_key(graph_vertex_key: str, position: int) -> str:
    return f"{graph_vertex_key}#{position}"


def ribbon_graph_of_gentle(p: GentlePresentation) -> GentleGraphResult:
    """The ribbon graph of a gentle presentation, with its induced cut.

    Graph vertices are the augmented paths; the rotation at a path lists
    its visits in traversal order (wrapping at the end); the two visits
    of a quiver vertex are glued into an edge; degrees are valencies.
    The cut picks the half-edge of each path's last visit, so the cut
    angle sits between the last and first visit."""
    aug = augmented_vertex_set(p)

    rotations = {}
    visit_count = {}
    for chain in aug.paths:
        key = PATH_PREFIX + PATH_JOIN.join(chain)
        n = len(path_visits(p, chain))
        rotations[key] = [half_edge_key(key, i) for i in range(n)]
        visit_count[key] = n
    for v in aug.trivial:
        key = TRIVIAL_PREFIX + v
        rotations[key] = [half_edge_key(key, 0)]
        visit_count[key] = 1

    edges = []
    edge_of = {}
    for qv in sorted(p.vertices):
        (k1, p1), (k2, p2) = aug.occurrences[qv]
        a, b = half_edge_key(k1, p1), half_edge_key(k2, p2)
        edges.append([a, b])
        edge_of[qv] = edge_id_of_pair(a, b)

    graph = RibbonGraph.build(rotations, edges)
    degrees = {key: len(rotations[key]) for key in rotations}
    afbg = Afbg.build(graph, degrees)
    cut = {key: half_edge_key(key, visit_count[key] - 1) for key in rotations}
    return GentleGraphResult(afbg, cut, edge_of)


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
    return _present(res.afbg, cover_window(res.afbg, res.cut, lo, hi))
