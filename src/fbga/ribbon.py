"""Ribbon graphs as half-edge permutation triples.

A ribbon graph is a finite set of half-edges together with

* ``attach``   -- which vertex each half-edge sits at,
* ``pairing``  -- a fixed-point-free involution gluing half-edges into edges,
* ``rotation`` -- a permutation whose cycles are exactly the half-edge sets
  of the vertices (the counterclockwise order around each vertex).

Everything downstream (degree functions, quiver presentations, coverings)
is phrased in terms of these three maps.  Instances are immutable; use
:meth:`RibbonGraph.build` to construct and validate one.

>>> g = RibbonGraph.build({"u": ["h", "hp"], "w": ["ih", "ihp"]},
...                       [["h", "ih"], ["hp", "ihp"]])
>>> g.valency("u")
2
>>> g.edge_of("h")
'h~ih'
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisconnectedInput,
    DuplicateHalfEdge,
    FixedPointPairing,
    InvariantError,
    OrbitMismatch,
    RibbonStructureError,
    UnknownVertex,
)

EDGE_SEP = "~"


def orbits(perm: dict) -> list[tuple]:
    """Cycle decomposition of a permutation-as-dict, cycles anchored at
    their smallest element, listed in sorted anchor order."""
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


def edge_id_of_pair(a: str, b: str) -> str:
    return EDGE_SEP.join(sorted((a, b)))


@dataclass(frozen=True)
class RibbonGraph:
    """Immutable ribbon graph.  Build with :meth:`build`."""

    vertices: tuple[str, ...]
    attach: dict
    pairing: dict
    rotation: dict
    stars: dict  # vertex -> rotation cycle as a tuple, anchored at min id
    connected: bool

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, rotations, edges) -> "RibbonGraph":
        """Validate and build from per-vertex rotation cycles and edge pairs.

        ``rotations`` maps each vertex id to the cyclically ordered list of
        its half-edges; ``edges`` is a list of 2-element half-edge lists.
        """
        attach = {}
        rotation = {}
        stars = {}
        for v in rotations:
            cycle = list(rotations[v])
            if not cycle:
                raise OrbitMismatch(f"vertex {v!r} has no half-edges")
            for h in cycle:
                if not isinstance(h, str) or not h:
                    raise RibbonStructureError(f"bad half-edge id {h!r}")
                if EDGE_SEP in h:
                    raise RibbonStructureError(
                        f"half-edge id {h!r} contains reserved {EDGE_SEP!r}"
                    )
                if h in attach:
                    raise DuplicateHalfEdge(f"half-edge {h!r} listed twice")
                attach[h] = v
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                rotation[a] = b
            anchor = min(cycle)
            i = cycle.index(anchor)
            stars[v] = tuple(cycle[i:] + cycle[:i])

        pairing = {}
        for pair in edges:
            if len(pair) != 2:
                raise RibbonStructureError(f"edge {pair!r} is not a pair")
            a, b = pair
            if a == b:
                raise FixedPointPairing(f"edge pairs half-edge {a!r} with itself")
            for h in (a, b):
                if h in pairing:
                    raise DuplicateHalfEdge(f"half-edge {h!r} paired twice")
                if h not in attach:
                    raise OrbitMismatch(f"edge uses unattached half-edge {h!r}")
            pairing[a] = b
            pairing[b] = a

        unpaired = set(attach) - set(pairing)
        if unpaired:
            raise OrbitMismatch(f"unpaired half-edges: {sorted(unpaired)}")

        vertices = tuple(sorted(rotations))
        connected = _is_connected(vertices, attach, pairing)
        return cls(vertices, attach, pairing, rotation, stars, connected)

    # -- basic queries ---------------------------------------------------

    @property
    def half_edges(self) -> tuple:
        return tuple(sorted(self.attach))

    def valency(self, v) -> int:
        """Number of half-edges at ``v`` (a loop counts twice)."""
        if v not in self.stars:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return len(self.stars[v])

    def edge_of(self, h) -> str:
        return edge_id_of_pair(h, self.pairing[h])

    def edge_pairs(self) -> list[tuple]:
        return sorted(tuple(sorted((a, b))) for a, b in self.pairing.items() if a < b)

    def edge_ids(self) -> list[str]:
        return [edge_id_of_pair(a, b) for a, b in self.edge_pairs()]

    def num_edges(self) -> int:
        return len(self.pairing) // 2

    def underlying_graph(self) -> list[tuple]:
        """Edges of the underlying multigraph as (vertex, vertex, edge id),
        endpoint pair sorted, rows sorted by edge id."""
        rows = []
        for a, b in self.edge_pairs():
            u, w = sorted((self.attach[a], self.attach[b]))
            rows.append((u, w, edge_id_of_pair(a, b)))
        return sorted(rows, key=lambda r: r[2])

    def is_bipartite(self) -> bool:
        """2-colorability of the underlying multigraph; a loop is an odd cycle."""
        adj = {v: [] for v in self.vertices}
        for a, b in self.pairing.items():
            if a < b:
                u, w = self.attach[a], self.attach[b]
                if u == w:
                    return False
                adj[u].append(w)
                adj[w].append(u)
        color = {}
        for start in self.vertices:
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for w in adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

    def faces(self) -> list[tuple]:
        """Orbits of the face permutation h -> rotation(pairing(h))."""
        phi = {h: self.rotation[self.pairing[h]] for h in self.attach}
        return orbits(phi)

    def face_perimeters(self) -> list[int]:
        return sorted(len(f) for f in self.faces())

    def rotation_inverse(self) -> dict:
        return {b: a for a, b in self.rotation.items()}

    def to_rotations_and_edges(self):
        """Deterministic (rotations, edges) pair; inverse of :meth:`build`."""
        rotations = {v: list(self.stars[v]) for v in self.vertices}
        edges = [list(p) for p in self.edge_pairs()]
        return rotations, edges


def _is_connected(vertices, attach, pairing) -> bool:
    if not vertices:
        return True
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairing.items():
        ra, rb = find(attach[a]), find(attach[b])
        if ra != rb:
            parent[ra] = rb
    roots = {find(v) for v in vertices}
    return len(roots) <= 1


# -- canonical form and isomorphism ------------------------------------------

def _rooted_word(graph, root, rinv, degrees):
    """Label half-edges by BFS from ``root`` over the moves
    (pairing, rotation, rotation^-1); return the induced code word.

    Two rooted graphs give equal words iff there is a half-edge bijection
    sending root to root and commuting with pairing and rotation (and
    preserving degrees when given): the word records, per discovered
    half-edge, the labels of its three neighbours.
    """
    pair = graph.pairing
    rot = graph.rotation
    label = {root: 0}
    order = [root]
    i = 0
    while i < len(order):
        h = order[i]
        for m in (pair[h], rot[h], rinv[h]):
            if m not in label:
                label[m] = len(order)
                order.append(m)
        i += 1
    word = []
    for h in order:
        word.append(label[pair[h]])
        word.append(label[rot[h]])
        word.append(label[rinv[h]])
        if degrees is not None:
            word.append(degrees[graph.attach[h]])
    return tuple(word), label


def _min_rooted_word(graph: RibbonGraph, degrees):
    """(word, labels) of the first root, in half-edge order, whose rooted
    word is lexicographically minimal."""
    rinv = graph.rotation_inverse()
    best = None
    for root in graph.half_edges:
        word, label = _rooted_word(graph, root, rinv, degrees)
        if best is None or word < best[0]:
            best = (word, label)
    return best


def canonical_code(graph: RibbonGraph, degrees: dict | None = None) -> tuple:
    """Lexicographically minimal rooted code over all root half-edges.

    Equal codes characterise isomorphism (degree-aware when ``degrees``
    is given).  Mirror images are *not* identified: the word uses rotation
    and its inverse in fixed slots, so reversing all rotations produces a
    different code in general.
    """
    if not graph.connected:
        raise DisconnectedInput("canonical_code requires a connected graph")
    if not graph.attach:
        return ()
    return _min_rooted_word(graph, degrees)[0]


def is_isomorphic(g1: RibbonGraph, g2: RibbonGraph,
                  d1: dict | None = None, d2: dict | None = None):
    """Half-edge bijection realising an isomorphism, or ``None``.

    Degrees are compared iff both ``d1`` and ``d2`` are given.  The
    returned dict commutes with pairing and rotation and induces a
    vertex bijection (rotation orbits map to rotation orbits).
    """
    if not (g1.connected and g2.connected):
        raise DisconnectedInput("isomorphism testing requires connected graphs")
    use_degrees = d1 is not None and d2 is not None
    if len(g1.attach) != len(g2.attach) or len(g1.vertices) != len(g2.vertices):
        return None
    if not g1.attach:
        return {}

    word1, label1 = _min_rooted_word(g1, d1 if use_degrees else None)
    word2, label2 = _min_rooted_word(g2, d2 if use_degrees else None)
    if word1 != word2:
        return None
    by_label2 = {i: h for h, i in label2.items()}
    mapping = {h: by_label2[i] for h, i in label1.items()}

    # verify the claimed isomorphism explicitly
    for h, h2 in mapping.items():
        if (mapping[g1.pairing[h]] != g2.pairing[h2]
                or mapping[g1.rotation[h]] != g2.rotation[h2]
                or use_degrees and d1[g1.attach[h]] != d2[g2.attach[h2]]):
            raise InvariantError(f"equal codes but the induced map fails at {h!r}")
    return mapping


def relabel(graph: RibbonGraph, vertex_map: dict | None = None,
            half_edge_map: dict | None = None) -> RibbonGraph:
    """Rename vertices and/or half-edges; the result is revalidated."""
    vm = vertex_map or {}
    hm = half_edge_map or {}
    rotations = {vm.get(v, v): [hm.get(h, h) for h in graph.stars[v]]
                 for v in graph.vertices}
    edges = [[hm.get(a, a), hm.get(b, b)] for a, b in graph.edge_pairs()]
    return RibbonGraph.build(rotations, edges)


def quotient_by_orbits(graph: RibbonGraph, cls: dict) -> RibbonGraph:
    """Quotient by a partition of half-edges (map to class representatives)
    compatible with attach, pairing and rotation.  Backs reduced forms and
    Nakayama-power quotients."""
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
            raise RibbonStructureError(
                f"partition does not quotient the star at {v!r} cleanly")
        rotations[v] = cycle
    edges = sorted({tuple(sorted((cls[x], cls[y])))
                    for x, y in graph.pairing.items()})
    return RibbonGraph.build(rotations, [list(e) for e in edges])
