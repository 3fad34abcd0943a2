"""Presentation, covering, invariant and reconstruction checks that only
the tests use."""

import json
from collections import Counter, namedtuple
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import product
from math import lcm

from fbga.afbg import Afbg, Violation, reduced_form
from fbga.covering import SHEET_SEP
from fbga.errors import (
    DuplicateHalfEdge,
    FixedPointPairing,
    InconsistentInput,
    InputError,
    InvariantError,
    MissingDegree,
    OrbitMismatch,
    ParseError,
    RibbonStructureError,
)
from fbga.fileio import PATH_CONVENTIONS
from fbga.gentle import GentlePresentation
from fbga.presentation import BasisElement, dimension
from fbga.reconstruct import LoewyData, LoewyRow, loewy_labels
from fbga.ribbon import EDGE_SEP, RibbonGraph, edge_id_of_pair, is_isomorphic, orbits


def arrow_name(half_edge: str) -> str:
    """The name of the arrow of ``half_edge``, as every output writes it."""
    return "a_" + half_edge


def product_str(seq) -> str:
    """Right-to-left product string of an application-order arrow sequence."""
    return "*".join(reversed(seq))


def step_walk(rotation: dict, half_edge: str, length: int):
    """The reference walk, one rotation step per arrow: half-edges
    ``half_edge``, ``rotation(half_edge)``, ... of a walk of ``length``
    arrows, or None when a partial rotation ends first (the last arrow may
    dangle)."""
    run = []
    h = half_edge
    for _ in range(length):
        if h is None:
            return None
        run.append(h)
        h = rotation.get(h)
    return run


def walk(a, half_edge: str, length: int) -> tuple:
    """Arrow names of the walk of ``length`` from ``half_edge`` of a closed
    graph, stepped out one rotation at a time: application order."""
    return tuple(map(arrow_name, step_walk(a.graph.rotation, half_edge, length)))


def reference_commutations(p) -> tuple:
    """The tuple walks of a presentation's commutations, stepped out one
    rotation at a time: the two full walks of every edge whose walks both
    fit (inside the window's chains), sorted."""
    g = p.graph
    out = []
    for x, y in sorted((x, y) for x, y in g.pairing.items() if x < y):
        wx, wy = (step_walk(g.rotation, h, p.afbg.degrees[g.attach[h]]) for h in (x, y))
        if wx is not None and wy is not None:
            out.append((tuple(map(arrow_name, wx)), tuple(map(arrow_name, wy))))
    return tuple(sorted(out))


def commutation_walks(p) -> tuple:
    """The presentation's commutations, each ``(start, length)`` walk
    stepped out into its arrow names, in the presentation's order."""
    g = p.graph
    return tuple(tuple(tuple(map(arrow_name, step_walk(g.rotation, h, n))) for h, n in pair)
                 for pair in p.commutations)


def reference_quiver(p) -> tuple:
    """(vertices, arrows, zero relations) of a presentation, stepped out of
    its graph's pairing and rotation one half-edge at a time.  A quiver
    vertex is an edge id, listed by smaller half-edge (a window's sorted);
    an arrow is ``{"id", "from", "to"}``, one per half-edge in name order,
    its "to" None when the rotation step leaves the window; a zero
    relation is ``(later, earlier)``, one per rotation step, sorted."""
    g, arrows, zeros = p.graph, [], []
    vertices = [edge_id_of_pair(x, g.pairing[x]) for x in sorted(g.pairing) if x < g.pairing[x]]
    for h in sorted(g.attach, key=arrow_name):
        nxt = g.rotation.get(h)
        arrows.append({"id": arrow_name(h), "from": edge_id_of_pair(h, g.pairing[h]),
                       "to": None if nxt is None else edge_id_of_pair(nxt, g.pairing[nxt])})
        if nxt is not None:
            zeros.append((arrow_name(g.pairing[nxt]), arrow_name(h)))
    return vertices if p.window is None else sorted(vertices), arrows, sorted(zeros)


def reference_presentation_dict(p) -> dict:
    """The dict tree of a presentation's JSON file, its quiver and its
    commutations stepped out (``reference_quiver``,
    ``reference_commutations``): the byte reference of
    :func:`fbga.fileio.presentation_json`.  A window adds its bounds and
    its dangling arrows and has no dimension."""
    vertices, arrows, zeros = reference_quiver(p)
    if p.window is None:
        return {"conventions": dict(PATH_CONVENTIONS),
                "vertices": vertices,
                "arrows": arrows,
                "commutation_relations": reference_commutations(p),
                "zero_relations": zeros,
                "dimension": dimension(p.afbg)}
    return {"conventions": dict(PATH_CONVENTIONS),
            "window": [p.window.lo, p.window.hi],
            "vertices": vertices,
            "arrows": arrows,
            "dangling": [row["id"] for row in arrows if row["to"] is None],
            "commutation_relations": reference_commutations(p),
            "zero_relations": zeros}


def reference_basis(a) -> list:
    """The monomial basis as ``basis`` built it before it emitted the
    elements in order: built per edge and per half-edge, then sorted."""
    g = a.graph
    out = []
    for x, y in g.edge_pairs():
        e = g.edge_of(x)
        out.append(BasisElement("idempotent", e, "", 0))
        out.append(BasisElement("socle", e, x, a.degrees[g.attach[x]]))
    for h in sorted(g.attach):
        e = g.edge_of(h)
        for m in range(1, a.degrees[g.attach[h]]):
            out.append(BasisElement("walk", e, h, m))
    out.sort(key=lambda b: (b.edge, b.kind, b.start, b.length))
    return out


def special_cycles(a) -> dict:
    """Full rotation cycle of arrows through each arrow (length = valency)."""
    g = a.graph
    return {arrow_name(h): walk(a, h, g.valency(g.attach[h]))
            for h in sorted(g.attach)}


def presentation_isomorphism(p1, p2):
    """Arrow bijection induced by a degree-aware graph isomorphism, or None.

    When the underlying graphs are isomorphic the induced map carries
    walks to walks, hence relations to relations; this is checked."""
    phi = is_isomorphic(p1.afbg.graph, p2.afbg.graph,
                        p1.afbg.degrees, p2.afbg.degrees)
    if phi is None:
        return None
    amap = {arrow_name(h): arrow_name(phi[h]) for h in phi}

    def map_walk(w):
        return tuple(amap[x] for x in w)

    c1 = {tuple(sorted((map_walk(a), map_walk(b))))
          for a, b in commutation_walks(p1)}
    c2 = {tuple(sorted((a, b))) for a, b in commutation_walks(p2)}
    z1 = {(amap[l], amap[e]) for l, e in reference_quiver(p1)[2]}
    z2 = set(reference_quiver(p2)[2])
    if c1 != c2 or z1 != z2:
        raise InvariantError("the graph isomorphism does not carry relations to relations")
    return amap


@dataclass(frozen=True)
class PresentationAutomorphism:
    vertex_map: dict  # quiver vertex -> quiver vertex
    arrow_map: dict   # arrow name -> arrow name

    def vertex_orbit_sizes(self) -> list[int]:
        return sorted(len(c) for c in orbits(self.vertex_map))


def nakayama_on_presentation(a) -> PresentationAutomorphism:
    """The algebra automorphism induced by the inverse Nakayama permutation:
    the arrow of ``h`` maps to the arrow of ``nakayama^-1(h)``, idempotents
    follow their edges."""
    g = a.graph
    nu_inv = {b: x for x, b in a.nakayama.items()}
    arrow_map = {arrow_name(h): arrow_name(nu_inv[h]) for h in sorted(g.attach)}
    vertex_map = {}
    for h in sorted(g.attach):
        e = g.edge_of(h)
        image = g.edge_of(nu_inv[h])
        if vertex_map.setdefault(e, image) != image:  # forced by admissibility (a)
            raise InvariantError(f"nakayama sends edge {e!r} to two edges")
    return PresentationAutomorphism(vertex_map, arrow_map)


def nakayama_orbit_sizes(a) -> list[int]:
    return sorted(len(c) for c in orbits(a.nakayama))


def verify_covering(cover, base):
    """Check that the projection read off the sheet names (``h@j`` lies
    over ``h``) is an equivariant covering map with uniform fibers.
    Returns (ok, reason)."""
    gc, gb = cover.graph, base.graph
    if not all(SHEET_SEP in h for h in gc.attach):
        return False, "projection is not defined on every cover half-edge"
    projection = {h: h.rpartition(SHEET_SEP)[0] for h in sorted(gc.attach)}
    image = set(projection.values())
    if image != set(gb.attach):
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


def cut_algebra(graph, cut):
    """Schroll's gentle algebra of a Brauer graph with multiplicities 1 cut
    at ``cut`` (J. Algebra 444, 2015): the graph's quiver (an arrow from
    the edge of ``h`` to the edge of ``rotation(h)`` per half-edge ``h``)
    without the arrows at cut half-edges, and the zero relations
    ``(pairing(rotation(h)), h)`` whose two arrows are both kept.  A quiver
    vertex is named by the smaller half-edge of its edge, which holds no
    ``EDGE_SEP``; an arrow by its half-edge."""
    kept = sorted(set(graph.attach) - set(cut.values()))
    edge = {h: min(h, graph.pairing[h]) for h in graph.attach}
    after = {h: graph.pairing[graph.rotation[h]] for h in kept}
    return GentlePresentation.build(
        sorted(set(edge.values())),
        [(h, edge[h], edge[graph.rotation[h]]) for h in kept],
        [(after[h], h) for h in kept if after[h] in after])


# -- the invariants, with the reduced form built ----------------------------------

def reference_fingerprint(a) -> dict:
    """The fingerprint with the reduced form built as a quotient graph and
    the Nakayama orbits walked out: the reference for the closed forms of
    :func:`fbga.invariants.fingerprint`."""
    g, red = a.graph, reduced_form(a)
    face_step = {h: g.rotation[g.pairing[h]] for h in sorted(g.attach)}
    nu_inv = {v: k for k, v in a.nakayama.items()}
    q = {h: nu_inv[face_step[face_step[h]]] for h in sorted(g.attach)}
    return {
        "num_vertices": len(g.vertices),
        "num_edges": g.num_edges(),
        "multiplicities": [str(m) for m in sorted(a.multiplicities().values())],
        "bipartite": reference_bipartite(g),
        "nakayama_order": lcm(*nakayama_orbit_sizes(a)),
        "reduced": {"num_vertices": len(red.graph.vertices), "num_edges": red.graph.num_edges(),
                    "multiplicities": [str(m) for m in sorted(red.multiplicities().values())],
                    "bipartite": reference_bipartite(red.graph)},
        "face_perimeters": g.face_perimeters(),
        "special_orbits": sorted(len(c) for c in orbits(q)),
    }


def reference_rep_finite_report(a) -> dict:
    """:func:`fbga.afbg.rep_finite_report` read off the built reduced form
    of a connected ``a``."""
    red = reduced_form(a)
    g, order = red.graph, lcm(*nakayama_orbit_sizes(a))
    big = sorted((v for v, m in red.multiplicities().items() if m > 1), key=str)
    if g.num_edges() != len(g.vertices) - 1:
        return {"finite_type": False, "finite_type_reason": "reduced form is not a tree"}
    if len(big) > 1:
        return {"finite_type": False,
                "finite_type_reason": f"reduced tree has {len(big)} vertices of multiplicity > 1"}
    m = int(red.multiplicity(big[0])) if big else 1
    return {"finite_type": True, "tree_edges": g.num_edges(), "exceptional_multiplicity": m,
            "candidate_order": order}


# -- Nakayama quotients, with the orbits stepped out --------------------------------

def quotient_by_orbits(graph, cls: dict) -> RibbonGraph:
    """Quotient by a partition of half-edges (each mapped to its class
    representative) compatible with attach, pairing and rotation: each star
    is stepped round class by class, and a partition that does not step
    uniformly round a star is an error."""
    rotations = {}
    for v in graph.vertices:
        reps = sorted({cls[h] for h in graph.stars[v]})
        anchor = reps[0]
        cycle = [anchor]
        nxt = cls[graph.rotation[anchor]]
        while nxt != anchor:
            cycle.append(nxt)
            nxt = cls[graph.rotation[nxt]]
        if len(cycle) != len(reps):
            raise InvariantError(f"partition does not quotient the star at {v!r} cleanly")
        rotations[v] = cycle
    edges = sorted({tuple(sorted((cls[x], cls[y]))) for x, y in graph.pairing.items()})
    return RibbonGraph.build(rotations, [list(e) for e in edges])


def reference_quotient(a, k: int):
    """The quotient of ``a`` by the orbits of the k-th Nakayama power, the
    power stepped out k times and its orbits walked, each class named by
    its smallest member: the reference for :func:`fbga.afbg.reduced_form`
    (k = 1) and :func:`fbga.covering.quotient_by_nakayama_power`."""
    power = {h: h for h in a.nakayama}
    for _ in range(k):
        power = {h: a.nakayama[p] for h, p in power.items()}
    cls = {h: cyc[0] for cyc in reference_orbits(power) for h in cyc}
    return Afbg.build(quotient_by_orbits(a.graph, cls), dict(a.degrees))


# -- the ribbon kernels as sorted walks and union-find ----------------------------

def reference_orbits(perm: dict) -> list[tuple]:
    """Cycles walked from the half-edges in sorted order, so each starts at
    its minimum and they come in anchor order."""
    seen = set()
    out = []
    for start in sorted(perm):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        h = perm[start]
        while h != start:
            cyc.append(h)
            seen.add(h)
            h = perm[h]
        out.append(tuple(cyc))
    return out


def reference_violations(graph, nu: dict) -> list:
    """:func:`fbga.afbg._violations` checked half-edge by half-edge in sorted
    order for (a), and orbit by orbit for (b)."""
    pair = graph.pairing
    out = []
    for h in sorted(graph.attach):
        if pair[nu[h]] != nu[pair[h]]:
            out.append(Violation(
                h, "pairing_compat",
                f"pairing(nakayama({h}))={pair[nu[h]]} but "
                f"nakayama(pairing({h}))={nu[pair[h]]}"))
    for cyc in reference_orbits(nu):
        members = set(cyc)
        for h in cyc:
            if pair[h] in members:
                out.append(Violation(
                    h, "orbit_meets_pairing",
                    f"partner {pair[h]} lies in the nakayama orbit of {h}"))
    return out


def reference_connected(graph) -> bool:
    """Connectivity by union-find over the vertices at the two ends of each edge."""
    if not graph.vertices:
        return True
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.pairing.items():
        ra, rb = find(graph.attach[a]), find(graph.attach[b])
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in graph.vertices}) <= 1


def reference_faces(graph) -> list[tuple]:
    phi = {h: graph.rotation[graph.pairing[h]] for h in sorted(graph.attach)}
    return reference_orbits(phi)


def reference_bipartite(graph) -> bool:
    """Whether some colouring of the vertices by 0 and 1 gives the two ends
    of every edge different colours, trying every colouring (2^V of them):
    a loop's ends share their vertex, so no colouring passes it."""
    ends = [(graph.attach[x], graph.attach[y]) for x, y in graph.pairing.items()]
    return any(all(colour[u] != colour[w] for u, w in ends)
               for colour in (dict(zip(graph.vertices, bits))
                              for bits in product((0, 1), repeat=len(graph.vertices))))


def reference_root_keys(graph, degrees) -> dict:
    """:func:`fbga.ribbon._root_keys` with the face lengths read off the
    sorted face orbits."""
    pair, attach = graph.pairing, graph.attach
    valency = {h: len(star) for star in graph.stars.values() for h in star}
    face = {h: len(f) for f in reference_faces(graph) for h in f}
    if degrees is None:
        return {h: (valency[h], valency[p], face[h], face[p]) for h, p in pair.items()}
    return {h: (valency[h], valency[p], face[h], face[p], degrees[attach[h]], degrees[attach[p]])
            for h, p in pair.items()}


# -- the isomorphism searches without automorphism pruning --------------------------

def reference_rooted_word(graph, root, degrees=None) -> tuple:
    """The rooted word of :func:`fbga.ribbon.canonical_code` built in two
    passes: label the half-edges by BFS from ``root`` over (pairing,
    rotation, rotation^-1), then emit per half-edge in label order the
    labels of those three neighbours, and its degree when given."""
    rinv = graph.rotation_inverse()
    label = {root: 0}
    order = [root]
    for h in order:
        for m in (graph.pairing[h], graph.rotation[h], rinv[h]):
            if m not in label:
                label[m] = len(order)
                order.append(m)
    return tuple((label[graph.pairing[h]], label[graph.rotation[h]], label[rinv[h]])
                 + (() if degrees is None else (degrees[graph.attach[h]],)) for h in order)


def _rarest_roots(keys: dict) -> list:
    """The half-edges of the smallest key class, ties broken by the key."""
    sizes = Counter(keys.values())
    rarest = min(sizes, key=lambda k: (sizes[k], k))
    return [h for h, k in keys.items() if k == rarest]


def reference_canonical_code(graph, degrees=None) -> tuple:
    """:func:`fbga.ribbon.canonical_code` with the whole word walked from
    every root of the rarest key class: Θ(H²) when every half-edge has one
    key."""
    keys = reference_root_keys(graph, degrees)
    if not keys:
        return ()
    return min(reference_rooted_word(graph, root, degrees) for root in _rarest_roots(keys))


def reference_is_isomorphic(g1, g2, d1=None, d2=None) -> bool:
    """Whether some word of ``g2`` from a root of the rarest key class
    equals the word of ``g1`` from its first root of that class: an
    isomorphism sends that root into the class.  Degrees are compared iff
    both are given."""
    if d1 is None or d2 is None:
        d1 = d2 = None
    keys1, keys2 = reference_root_keys(g1, d1), reference_root_keys(g2, d2)
    if Counter(keys1.values()) != Counter(keys2.values()):
        return False
    if not keys1:
        return True
    word1 = reference_rooted_word(g1, _rarest_roots(keys1)[0], d1)
    return any(reference_rooted_word(g2, root, d2) == word1 for root in _rarest_roots(keys2))


# -- Loewy tables stepped out, and reconstruction with the candidate's table rebuilt --

TableRow = namedtuple("TableRow", "label strands socle")  # strands as label tuples


def strand_labels(text: str) -> tuple:
    """The labels of a strand text of :class:`fbga.reconstruct.LoewyRow`."""
    return tuple(text.split(EDGE_SEP)) if text else ()


def loewy_table(a, labels: dict | None = None) -> dict:
    """Per edge, a :class:`TableRow`: its label, the two radical strands (per
    half-edge ``h``, the edges of the walk of length degree - 1 from
    ``rotation(h)``, stepped out) and the socle edge (that of
    ``nakayama(h)``, the same for both half-edges).  Edges are named by
    their ids, or by ``labels[id]``."""
    g = a.graph
    name = {h: edge_id_of_pair(h, p) for h, p in g.pairing.items()}
    if labels is not None:
        name = {h: labels[e] for h, e in name.items()}
    table = {}
    for x, y in g.edge_pairs():
        strands = tuple(tuple(name[s] for s in step_walk(
            g.rotation, g.rotation[h], a.degrees[g.attach[h]] - 1)) for h in (x, y))
        socle = name[a.nakayama[x]]
        if socle != name[a.nakayama[y]]:  # forced by admissibility (a)
            raise InvariantError(f"the two full walks of edge {name[x]!r} end on different edges")
        table[name[x]] = TableRow(name[x], strands, socle)
    return table


def loewy_data_of(a):
    """The Loewy data of ``a``, edges labelled by
    :func:`fbga.reconstruct.loewy_labels`, and that labelling: (data, edge id
    -> label)."""
    name = loewy_labels(a.graph)
    return LoewyData.build(loewy_table(a, name).values()), name


def table_matches(a, data, edge_labels) -> bool:
    """Whether the Loewy table of ``a``, its edges named by ``edge_labels``,
    has the strands and socle of every row of ``data``: what
    :func:`fbga.reconstruct.reconstruct_afbg` proves of every candidate
    instead of checking it."""
    table = loewy_table(a, edge_labels)
    for row in data.rows:
        got = table[row.label]
        # equal strands give an equal uniserial bit
        if sorted(got.strands) != sorted(map(strand_labels, row.strands)) or got.socle != row.socle:
            return False
    return True


# -- input checks one item at a time, as first written: the references of the bulk checks --

def _load(text: str, object_hook=None):
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          bool: "true or false"}


def _typed(value, kind, where: str):
    """``value`` if it is a ``kind`` (an int is never a bool), else a ParseError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected {_KINDS[kind]}, got {value!r:.60}")
    return value


def _need(obj: dict, key: str, where: str):
    if key not in _typed(obj, dict, where):
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


def _strings(value, where: str) -> list:
    if isinstance(value, list):
        try:
            "".join(value)  # json yields no str subclasses: fails iff an item is not a str
            return value
        except TypeError:
            pass
    raise ParseError(f"{where}: expected a list of strings, got {value!r:.60}")


def reference_build(rotations, edges) -> RibbonGraph:
    """:meth:`fbga.ribbon.RibbonGraph.build`, every check made per half-edge."""
    if not isinstance(rotations, dict) or type(edges) not in (list, tuple):
        raise RibbonStructureError("rotations must be a dict and edges a list")
    attach = {}
    rotation = {}
    stars = {}
    for v in rotations:
        if not isinstance(v, str) or type(rotations[v]) not in (list, tuple):
            raise RibbonStructureError(
                f"vertex {v!r:.60} needs a string id and a list of half-edges")
        cycle = list(rotations[v])
        if not cycle:
            raise OrbitMismatch(f"vertex {v!r:.60} has no half-edges")
        for h in cycle:
            if not isinstance(h, str) or not h:
                raise RibbonStructureError(f"bad half-edge id {h!r:.60}")
            if EDGE_SEP in h:
                raise RibbonStructureError(
                    f"half-edge id {h!r:.60} contains reserved {EDGE_SEP!r}"
                )
            if h in attach:
                raise DuplicateHalfEdge(f"half-edge {h!r:.60} listed twice")
            attach[h] = v
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rotation[a] = b
        anchor = min(cycle)
        i = cycle.index(anchor)
        stars[v] = tuple(cycle[i:] + cycle[:i])

    pairing = {}
    for pair in edges:
        if type(pair) not in (list, tuple) or len(pair) != 2:
            raise RibbonStructureError(f"edge {pair!r:.60} is not a pair")
        a, b = pair
        if a == b:
            raise FixedPointPairing(f"edge pairs half-edge {a!r:.60} with itself")
        for h in (a, b):
            if not isinstance(h, str) or h not in attach:
                raise OrbitMismatch(f"edge uses unattached half-edge {h!r:.60}")
            if h in pairing:
                raise DuplicateHalfEdge(f"half-edge {h!r:.60} paired twice")
        pairing[a] = b
        pairing[b] = a

    unpaired = set(attach) - set(pairing)
    if unpaired:
        raise OrbitMismatch(f"unpaired half-edges: {sorted(unpaired)}")

    graph = RibbonGraph(tuple(sorted(rotations)), attach, pairing, rotation, stars, False)
    return replace(graph, connected=reference_connected(graph))


def reference_parse_ribbon(text: str):
    """:func:`fbga.fileio.parse_ribbon`, every row checked on its own, then
    :func:`reference_build`, then each degree, vertex by vertex."""
    obj = _load(text)
    vrows = _typed(_need(obj, "vertices", "graph file"), list, "graph vertices")
    erows = _typed(_need(obj, "edges", "graph file"), list, "graph edges")
    rotations = {}
    degrees = {}
    for row in vrows:
        vid = _typed(_need(row, "id", "vertex entry"), str, "vertex id")
        if vid in rotations:
            raise ParseError(f"graph file: vertex {vid!r} listed twice")
        rotations[vid] = _need(row, "rotation", f"vertex {vid!r}")
        if "degree" in row:
            degrees[vid] = row["degree"]
    graph = reference_build(rotations, erows)
    for v in graph.vertices if degrees else ():
        d = degrees.get(v)
        if d is None:
            raise MissingDegree(f"vertex {v!r} has no degree")
        if type(d) is not int or d < 1:
            raise MissingDegree(f"degree of {v!r} must be a positive integer, got {d!r:.60}")
    return graph, (degrees or None)


def reference_parse_loewy(text: str) -> LoewyData:
    """:func:`fbga.fileio.parse_loewy`, every row checked on its own; a
    refused table goes to :meth:`fbga.reconstruct.LoewyData.build`, as there.
    Strand entries are checked against a set of every entry, never through
    ``LoewyData.follow``, which the reader accepts a table by."""
    entries = set()  # every entry of a joined strand

    def join_strands(obj: dict) -> dict:
        s = obj.get("strands")
        if type(s) is list and len(s) <= 2 and all(type(x) is list for x in s):
            with suppress(TypeError):  # an entry that is not a string: left as a list
                obj["strands"] = tuple(map(EDGE_SEP.join, s)) + ("",) * (2 - len(s))
                entries.update(*s)
        return obj

    with suppress(InputError):  # a refused table is decoded again as lists, for the message
        data = _reference_of_texts(_reference_loewy_rows(_load(text, join_strands)), entries)
        if data is not None:
            return data
    return LoewyData.build(_reference_loewy_rows(_load(text)))


def _reference_loewy_rows(obj) -> list:
    if not isinstance(obj, list):
        raise ParseError("loewy file: expected a list of rows")
    raw = []
    for row in obj:
        label = _need(row, "id", "loewy row")
        where = f"loewy row {label!r}"
        strands = _need(row, "strands", where)
        if type(strands) is not tuple:  # not joined while decoding
            strands = [_strings(s, f"{where} strand")
                       for s in _typed(strands, list, f"{where} strands")]
        socle = _typed(_need(row, "socle", where), str, f"{where} socle")
        uniserial = sum(1 for s in strands if s) <= 1
        if _typed(row.get("uniserial", uniserial), bool, f"{where} uniserial") != uniserial:
            raise InconsistentInput(
                f"simple {label!r}: uniserial flag contradicts the strands")
        raw.append((label, strands, socle))
    return raw


def _reference_of_texts(rows, entries):
    """From (label, two strand texts, socle) rows whose strand entries lie
    in ``entries``, or None where ``build`` refuses them (it names why)."""
    labels = {l for l, _, _ in rows if isinstance(l, str) and l and EDGE_SEP not in l}
    # one socle per row: equal lists also mean no label is repeated or refused
    if (labels.issuperset(entries) and all(len(strands) == 2 for _, strands, _ in rows)
            and sorted(socle for _, _, socle in rows) == sorted(labels)):
        return LoewyData(tuple(sorted((LoewyRow(*row) for row in rows), key=lambda r: r.label)))
    return None
