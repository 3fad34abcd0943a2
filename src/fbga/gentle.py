"""Gentle presentations and their Brauer-graph trivial extensions.

A gentle presentation is a quiver with length-two monomial relations such
that at every vertex composition behaves like a partial matching: each
arrow has at most one allowed successor, at most one forbidden successor,
and dually for predecessors.  :meth:`GentlePresentation.build` refuses a
quiver that is not gentle, so every function below takes a gentle one;
``arrows`` maps each arrow name to its ``(source, target)``.

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
trivial extensions and the repetitive-algebra windows:
``ribbon_graph_of_gentle`` returns ``(afbg, cut)``, and
``augmented_vertex_set`` the ``(rotations, occurrences)`` it glues.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .afbg import Afbg
from .covering import cover_finite, cover_window
from .errors import InputError, InvariantError, UnboundedPath
from .presentation import Presentation, build_presentation
from .ribbon import EDGE_SEP, RibbonGraph


@dataclass(frozen=True)
class GentlePresentation:
    vertices: tuple
    arrows: dict  # name -> (source, target)
    zero_relations: tuple  # (later, earlier): the path later*earlier vanishes

    @classmethod
    def build(cls, vertices, arrows, zero_relations) -> "GentlePresentation":
        """Validate and build; refuse a quiver that is not gentle."""
        if not {list, tuple}.issuperset(map(type, (vertices, arrows, zero_relations))):
            raise InputError("vertices, arrows and zero relations must be lists")
        vs = {}  # a dict keeps the order and tests membership in O(1)
        for v in vertices:
            if not isinstance(v, str) or not v or EDGE_SEP in v:
                raise InputError(f"bad quiver vertex id {v!r:.60}")
            if v in vs:
                raise InputError(f"duplicate quiver vertex {v!r:.60}")
            vs[v] = None
        amap = {}
        for row in arrows:  # a row that is not (id, source, target) is its own bad id
            name, src, tgt = row if type(row) in (tuple, list) and len(row) == 3 else (row, "", "")
            if not isinstance(name, str) or not name or EDGE_SEP in name:
                raise InputError(f"bad arrow id {name!r:.60}")
            if name in amap:
                raise InputError(f"duplicate arrow {name!r:.60}")
            if not all(isinstance(x, str) and x in vs for x in (src, tgt)):  # ids are strings
                raise InputError(f"arrow {name!r:.60} has unknown endpoint")
            amap[name] = (src, tgt)
        rels = []
        for row in zero_relations:  # one not (later, earlier) is its own unknown arrow
            pair = tuple(row) if type(row) in (tuple, list) and len(row) == 2 else (row,)
            for x in pair:
                if not isinstance(x, str) or x not in amap:
                    raise InputError(f"relation references unknown arrow {x!r:.60}")
            rels.append(pair)
        p = cls(tuple(vs), amap, tuple(rels))
        if problems := _gentle_problems(p):
            raise InputError("not a gentle presentation: " + "; ".join(problems))
        return p


def _arrows_at(p: GentlePresentation):
    """(out_at, in_at): the names of the arrows that start and that end at
    each quiver vertex, in the order of ``p.arrows``."""
    out_at = {v: [] for v in p.vertices}
    in_at = {v: [] for v in p.vertices}
    for name, (src, tgt) in p.arrows.items():
        out_at[src].append(name)
        in_at[tgt].append(name)
    return out_at, in_at


def _gentle_problems(p: GentlePresentation) -> list[str]:
    """Structural gentleness check; empty list iff the presentation is gentle."""
    problems = []
    out_at, in_at = _arrows_at(p)
    for v in p.vertices:
        for at, verb in ((out_at, "start"), (in_at, "end")):
            if len(at[v]) > 2:
                problems.append(f"vertex {v}: {len(at[v])} arrows {verb} here (max 2)")

    seen = set()
    relset = set()
    for later, earlier in p.zero_relations:
        if (later, earlier) in seen:
            problems.append(f"relation {later}*{earlier} listed twice")
        seen.add((later, earlier))
        if p.arrows[earlier][1] != p.arrows[later][0]:
            problems.append(f"relation {later}*{earlier} is not composable")
        else:
            relset.add((later, earlier))
    flipped = {(earlier, later) for later, earlier in relset}

    for a, (src, tgt) in p.arrows.items():
        # b*a vanishes iff (b, a) is in relset, and a*b iff (b, a) is in flipped
        for nbrs, rels, word in ((out_at[tgt], relset, "successors"),
                                 (in_at[src], flipped, "predecessors")):
            nonzero = [b for b in nbrs if (b, a) not in rels]
            zero = [b for b in nbrs if (b, a) in rels]
            if len(nonzero) > 1:
                problems.append(f"arrow {a}: several nonzero {word} {nonzero}")
            if len(zero) > 1:
                problems.append(f"arrow {a}: several zero {word} {zero}")
    return problems


def maximal_paths(p: GentlePresentation) -> list[tuple]:
    """Maximal nonzero paths as arrow-name tuples in application order.

    The allowed-successor relation is a partial bijection on arrows, so
    its components are chains (returned, in order of their first arrows)
    or cycles (relation-free oriented cycles make the algebra
    infinite-dimensional)."""
    relset = set(p.zero_relations)
    out_at, _ = _arrows_at(p)
    succ = {a: b for a, (_, tgt) in p.arrows.items()
            for b in out_at[tgt] if (b, a) not in relset}
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


def augmented_vertex_set(p: GentlePresentation) -> tuple[dict, dict]:
    """Maximal paths plus trivial paths, which cover every quiver vertex
    exactly twice: (rotations, occurrences), the half-edges of each
    path's visits in order, by path key, and the half-edges of each quiver
    vertex's two visits.

    A maximal path is named by its first arrow, which lies on no other
    one.  In a gentle quiver the maximal paths visit each vertex at most
    twice: at most two arrows enter it and two leave it, and an arrow
    with two possible continuations has exactly one nonzero one.  Each
    vertex then takes one trivial path per missing visit, so an isolated
    vertex takes two."""
    tours = [(PATH_PREFIX + c[0], [p.arrows[c[0]][0]] + [p.arrows[a][1] for a in c])
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
    return rotations, occurrences


def ribbon_graph_of_gentle(p: GentlePresentation) -> tuple[Afbg, dict]:
    """(afbg, cut): the Brauer graph of a gentle presentation, with its
    induced cut.

    Graph vertices are the augmented paths; the rotation at a path lists
    its visits in traversal order (wrapping at the end); the two visits
    of a quiver vertex are glued into an edge; degrees are valencies.
    The cut picks the half-edge of each path's last visit, so the cut
    angle sits between the last and first visit."""
    rotations, occurrences = augmented_vertex_set(p)
    graph = RibbonGraph.build(rotations, [occurrences[v] for v in sorted(p.vertices)])
    afbg = Afbg.build(graph, {key: len(rot) for key, rot in rotations.items()})
    return afbg, {key: rot[-1] for key, rot in rotations.items()}


def trivial_extension(p: GentlePresentation) -> Presentation:
    """Presentation of the trivial extension: the algebra of the induced
    Brauer graph with degrees = valencies."""
    return build_presentation(ribbon_graph_of_gentle(p)[0])


def gentle_cover(p: GentlePresentation, r: int) -> Afbg:
    return cover_finite(*ribbon_graph_of_gentle(p), r)


def r_fold_trivial_extension(p: GentlePresentation, r: int) -> Presentation:
    """Presentation of the r-fold trivial extension: the algebra of the
    r-sheeted cover of the induced Brauer graph along the induced cut."""
    return build_presentation(gentle_cover(p, r))


# -- repetitive-algebra windows --------------------------------------------------

def repetitive_window(p: GentlePresentation, lo: int, hi: int) -> Presentation:
    """Window of sheets lo..hi of the quiver of the repetitive algebra: the
    presentation of the induced Brauer graph over the window's partial
    rotation.  Boundary arrows whose rotation step leaves the window keep
    their source but dangle; relations are listed only when entirely
    inside the window."""
    afbg, cut = ribbon_graph_of_gentle(p)
    return build_presentation(afbg, cover_window(afbg, cut, lo, hi))
