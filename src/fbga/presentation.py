"""Quiver presentations of admissible fractional Brauer graph algebras.

Quiver vertices are the edges of the graph; every half-edge ``h``
contributes one arrow from its own edge to the edge of ``rotation(h)``.
Paths multiply right to left: in a product ``b*a`` the arrow ``a`` acts
first.  A walk is a start half-edge and a length; its arrow names, in
*application order* (first-applied arrow first), come from ``walk`` and
the pretty-printer reverses them.

A walk of length ``d`` from ``h`` is a slice of the rotation orbit of
``h``: the orbit turned to start at ``h``, repeated ``q`` times, then its
first ``r`` entries, where ``q, r = divmod(d, len(orbit))`` (so ``q`` is
``⌊d/val⌋`` at a vertex of valency ``val``).  Each orbit is named once,
as arrow names or edge ids, and walks are cut from the named orbit.  The
builders refuse an algebra whose dimension ``Σ val·d`` is above
``WALK_BUDGET`` before building any walk.

Relations:

* one commutation per edge ``{h, g}``: the full walk of length
  ``degree(vertex(h))`` starting with the arrow of ``h`` equals the full
  walk starting with the arrow of ``g``;
* one zero relation per half-edge ``h``: the arrow of
  ``pairing(rotation(h))`` composed after the arrow of ``h`` vanishes.

One builder serves closed graphs and the windows of repetitive algebras,
whose rotation is partial (see ``gentle.repetitive_window``).

``oracle_dimension`` recomputes the dimension from the relation data
alone (exhaustive path enumeration with rewriting) and is used to
cross-check the closed-form count ``sum(valency * degree)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afbg import Afbg
from .covering import BorderedRibbonGraph
from .errors import InvariantError, SizeLimitExceeded
from .ribbon import edge_id_of_pair, orbits

ARROW_PREFIX = "a_"


def arrow_name(half_edge: str) -> str:
    return ARROW_PREFIX + half_edge


@dataclass(frozen=True)
class Arrow:
    name: str
    half_edge: str
    source: str  # edge id
    target: str | None  # edge id; None when the rotation step leaves a window


@dataclass(frozen=True)
class Presentation:
    afbg: Afbg
    quiver_vertices: tuple
    arrows: dict  # name -> Arrow
    commutation_relations: tuple  # ((walk, walk), ...) in application order
    zero_relations: tuple  # ((later, earlier), ...)
    window: BorderedRibbonGraph | None = None  # set for repetitive windows

    @property
    def dangling(self) -> tuple:
        return tuple(sorted(n for n, a in self.arrows.items() if a.target is None))

    def arrow_of(self, half_edge: str) -> Arrow:
        return self.arrows[arrow_name(half_edge)]

    def out_arrows(self, quiver_vertex: str) -> list:
        return [a for a in self.arrows.values() if a.source == quiver_vertex]

    def in_arrows(self, quiver_vertex: str) -> list:
        return [a for a in self.arrows.values() if a.target == quiver_vertex]


def _orbit_index(rotation: dict, half_edges, name) -> dict:
    """Each half-edge -> (orbit, position, closed).  ``orbit`` lists
    ``name(h)`` along the rotation orbit through the half-edge: a cycle of
    a total rotation, or a maximal chain of a partial one (a window's
    columns)."""
    index = {}
    targets = set(rotation.values())
    heads = [h for h in half_edges if h not in targets]  # chain starts
    for closed, starts in ((False, heads), (True, half_edges)):
        for start in starts:
            if start in index:
                continue
            run = [start]
            h = rotation.get(start)
            while h is not None and h != start:
                run.append(h)
                h = rotation.get(h)
            orbit = tuple(map(name, run))
            for i, h in enumerate(run):
                index[h] = (orbit, i, closed)
    return index


def _walk(index: dict, half_edge: str, length: int):
    """Names along the walk of ``length`` arrows from ``half_edge``, or None
    when its chain ends first (the last arrow may dangle)."""
    orbit, i, closed = index[half_edge]
    if i + length <= len(orbit):
        return orbit[i:i + length]
    if not closed:
        return None
    turn = orbit[i:] + orbit[:i]
    q, r = divmod(length, len(orbit))
    return turn * q + turn[:r]


WALK_BUDGET = 1 << 24


def _check_budget(a: Afbg) -> None:
    """Refuse, before any walk is built, an algebra whose basis (and so the
    total length of its walks) is above ``WALK_BUDGET``."""
    n = dimension(a)
    if n > WALK_BUDGET:
        raise SizeLimitExceeded(
            f"algebra of dimension {n} is above the walk budget of {WALK_BUDGET}")


def walk(a: Afbg, half_edge: str, length: int) -> tuple:
    """Arrow names of the walk from ``half_edge``: first arrow is its own,
    then the arrows of successive rotations.  Application order."""
    if length > WALK_BUDGET:
        raise SizeLimitExceeded(f"walk of length {length} is above the walk "
                                f"budget of {WALK_BUDGET}")
    if length <= 0:
        return ()
    g = a.graph
    star = g.stars[g.attach[half_edge]]  # the rotation orbit of half_edge
    return _walk(_orbit_index(g.rotation, star, arrow_name), half_edge, length)


def build_presentation(a: Afbg) -> Presentation:
    return _present(a)


def _present(a: Afbg, window: BorderedRibbonGraph | None = None) -> Presentation:
    """The presentation over ``a.graph``, or over a window of a cover of
    it, with the degrees of ``a``.  A window's rotation is partial: an
    arrow without a rotation successor dangles, and a relation is kept
    only when all of its arrows lie inside the window."""
    _check_budget(a)
    g = a.graph if window is None else window
    rotation, pairing = g.rotation, g.pairing

    def edge_of(h):
        return edge_id_of_pair(h, pairing[h])

    arrows = {}
    zeros = []
    for h in sorted(g.attach):
        nxt = rotation.get(h)
        arrows[arrow_name(h)] = Arrow(
            arrow_name(h), h, edge_of(h), None if nxt is None else edge_of(nxt))
        if nxt is not None:
            zeros.append((arrow_name(pairing[nxt]), arrow_name(h)))

    pairs = sorted((x, y) for x, y in pairing.items() if x < y)
    index = _orbit_index(rotation, g.attach, arrow_name)
    commutations = []
    for x, y in pairs:
        wx = _walk(index, x, a.degrees[g.attach[x]])
        wy = _walk(index, y, a.degrees[g.attach[y]])
        if wx is not None and wy is not None:
            commutations.append((wx, wy))

    quiver_vertices = [edge_id_of_pair(x, y) for x, y in pairs]
    if window is not None:
        quiver_vertices.sort()  # windows list their edge ids sorted
    return Presentation(
        afbg=a,
        quiver_vertices=tuple(quiver_vertices),
        arrows=arrows,
        commutation_relations=tuple(sorted(commutations)),
        zero_relations=tuple(sorted(zeros)),
        window=window,
    )


def dimension(a: Afbg) -> int:
    """sum over vertices of valency(v) * degree(v)."""
    return sum(a.graph.valency(v) * a.degrees[v] for v in a.graph.vertices)


# -- basis and Loewy structure ------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    kind: str        # "idempotent" | "walk" | "socle"
    edge: str        # quiver vertex the element starts at
    start: str       # half-edge of the walk ("" for idempotents)
    length: int      # arrows in the walk; walk(a, start, length) names them


def basis(a: Afbg) -> list:
    """Monomial basis: one idempotent per edge, the proper walks
    0 < m < degree from every half-edge, and one socle element per edge
    (the two full walks of an edge are identified; the representative
    starts at the smaller half-edge id)."""
    _check_budget(a)
    g = a.graph
    out = []
    for x, y in g.edge_pairs():
        e = g.edge_of(x)
        out.append(BasisElement("idempotent", e, "", 0))
        out.append(BasisElement("socle", e, x, a.degrees[g.attach[x]]))
    for h in g.half_edges:
        e = g.edge_of(h)
        for m in range(1, a.degrees[g.attach[h]]):
            out.append(BasisElement("walk", e, h, m))
    out.sort(key=lambda b: (b.edge, b.kind, b.start, b.length))
    return out


@dataclass(frozen=True)
class LoewyRow:
    top: str
    strands: tuple   # two tuples of edge ids, ordered by the half-edge pair
    socle: str
    uniserial: bool


def loewy_table(a: Afbg, labels: dict | None = None) -> dict:
    """Per edge: top, the two radical strands (one per half-edge, listing
    the edges hit by walks of length 1..degree-1), and the socle edge.
    Edges are named by their ids, or by ``labels[id]`` when given."""
    _check_budget(a)
    g = a.graph
    name = {h: edge_id_of_pair(h, p) for h, p in g.pairing.items()}
    if labels is not None:
        name = {h: labels[e] for h, e in name.items()}
    index = _orbit_index(g.rotation, g.attach, name.__getitem__)
    table = {}
    for x, y in g.edge_pairs():
        e = name[x]
        # a strand is the full walk from h without its first arrow
        strands = tuple(_walk(index, g.rotation[h], a.degrees[g.attach[h]] - 1)
                        for h in (x, y))
        socle = name[a.nakayama[x]]
        if socle != name[a.nakayama[y]]:  # forced by admissibility (a)
            raise InvariantError(f"the two full walks of edge {e!r} end on different edges")
        uniserial = not (strands[0] and strands[1])
        table[e] = LoewyRow(e, strands, socle, uniserial)
    return table


# -- Nakayama automorphism on the presentation --------------------------------

@dataclass(frozen=True)
class PresentationAutomorphism:
    vertex_map: dict  # quiver vertex -> quiver vertex
    arrow_map: dict   # arrow name -> arrow name

    def vertex_orbit_sizes(self) -> list[int]:
        return sorted(len(c) for c in orbits(self.vertex_map))


def nakayama_on_presentation(a: Afbg) -> PresentationAutomorphism:
    """The algebra automorphism induced by the inverse Nakayama permutation:
    the arrow of ``h`` maps to the arrow of ``nakayama^-1(h)``, idempotents
    follow their edges."""
    g = a.graph
    nu_inv = {b: x for x, b in a.nakayama.items()}
    arrow_map = {arrow_name(h): arrow_name(nu_inv[h]) for h in g.half_edges}
    vertex_map = {}
    for h in g.half_edges:
        e = g.edge_of(h)
        image = g.edge_of(nu_inv[h])
        if vertex_map.setdefault(e, image) != image:  # forced by admissibility (a)
            raise InvariantError(f"nakayama sends edge {e!r} to two edges")
    return PresentationAutomorphism(vertex_map, arrow_map)


# -- independent dimension oracle ----------------------------------------------

ORACLE_HALF_EDGE_LIMIT = 40


def oracle_dimension(pres: Presentation) -> int:
    """Dimension by brute-force path enumeration over the relations alone.

    Paths are enumerated arrow by arrow; a path dies when any of its
    rewriting forms contains a zero pair, and paths related by substituting
    one side of a commutation for the other are counted once.  Nothing
    about degrees, walks or the Nakayama permutation is consulted, so this
    is an independent check on ``dimension``.
    """
    if len(pres.arrows) > ORACLE_HALF_EDGE_LIMIT:
        raise SizeLimitExceeded(
            f"oracle refuses presentations with more than "
            f"{ORACLE_HALF_EDGE_LIMIT} arrows (got {len(pres.arrows)})")

    zero_pairs = set(pres.zero_relations)  # (later, earlier)
    comm = []
    for wx, wy in pres.commutation_relations:
        if wx != wy:
            comm.append((wx, wy))
            comm.append((wy, wx))
    # Alive paths are rotation runs, and a run strictly longer than the full
    # walk at its start rewrites to a form with a zero pair; the longest walk
    # can sit on either side of a commutation.
    max_side = max((max(len(wx), len(wy))
                    for wx, wy in pres.commutation_relations), default=1)
    cap = max_side + 2

    def equivalence_class(path):
        seen = {path}
        queue = [path]
        while queue:
            p = queue.pop()
            for lhs, rhs in comm:
                k = len(lhs)
                for i in range(len(p) - k + 1):
                    if p[i:i + k] == lhs:
                        q = p[:i] + rhs + p[i + k:]
                        if q not in seen:
                            seen.add(q)
                            queue.append(q)
        return frozenset(seen)

    def contains_zero(path):
        return any((path[i + 1], path[i]) in zero_pairs
                   for i in range(len(path) - 1))

    target = {name: a.target for name, a in pres.arrows.items()}
    source = {name: a.source for name, a in pres.arrows.items()}
    by_source = {}
    for name in sorted(pres.arrows):
        by_source.setdefault(source[name], []).append(name)

    classes = set()
    frontier = []
    for name in sorted(pres.arrows):
        cls = equivalence_class((name,))
        if any(contains_zero(p) for p in cls):
            continue
        if cls not in classes:
            classes.add(cls)
            frontier.append((name,))

    while frontier:
        nxt = []
        for path in frontier:
            if len(path) > cap:
                raise SizeLimitExceeded(
                    "path enumeration exceeded the rewriting bound; "
                    "the relations do not present a finite walk algebra")
            for name in by_source.get(target[path[-1]], ()):
                q = path + (name,)
                cls = equivalence_class(q)
                if any(contains_zero(p) for p in cls):
                    continue
                if cls not in classes:
                    classes.add(cls)
                    nxt.append(q)
        frontier = nxt

    return len(pres.quiver_vertices) + len(classes)


# -- rendering -----------------------------------------------------------------

def product_str(seq) -> str:
    """Right-to-left product string of an application-order arrow sequence."""
    return "*".join(reversed(seq))


def render_text(pres: Presentation) -> str:
    lines = []
    lines.append(f"quiver vertices ({len(pres.quiver_vertices)}): "
                 + ", ".join(pres.quiver_vertices))
    lines.append(f"arrows ({len(pres.arrows)}):")
    for name in sorted(pres.arrows):
        a = pres.arrows[name]
        lines.append(f"  {name}: {a.source} -> {a.target}")
    lines.append(f"commutation relations ({len(pres.commutation_relations)}):")
    for wx, wy in pres.commutation_relations:
        lines.append(f"  {product_str(wx)} = {product_str(wy)}")
    lines.append(f"zero relations ({len(pres.zero_relations)}):")
    for later, earlier in pres.zero_relations:
        lines.append(f"  {later}*{earlier} = 0")
    return "\n".join(lines)
