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

from collections import Counter
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


def cycles(perm: dict) -> list[list]:
    """Cycle decomposition of a permutation-as-dict in one unsorted walk,
    each cycle from the last key not yet walked, in dict order."""
    left = dict(perm)
    out = []
    while left:
        start, h = left.popitem()
        cyc = [start]
        while h != start:
            cyc.append(h)
            h = left.pop(h)
        out.append(cyc)
    return out


def orbits(perm: dict) -> list[tuple]:
    """Cycle decomposition of a permutation-as-dict, cycles anchored at
    their smallest element, listed in sorted anchor order.  Only names and
    lists that depend on that order use it (the vertices ``v0, v1, ...`` of
    ``reconstruct._build_candidate``, the order of ``afbg._violations``)."""
    out = []
    for cyc in cycles(perm):
        i = cyc.index(min(cyc))
        out.append(tuple(cyc[i:] + cyc[:i]))
    out.sort()  # the anchors differ, so only they are compared
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
        connected = _is_connected(stars, attach, pairing)
        return cls(vertices, attach, pairing, rotation, stars, connected)

    # -- basic queries ---------------------------------------------------

    def valency(self, v) -> int:
        """Number of half-edges at ``v`` (a loop counts twice)."""
        if v not in self.stars:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return len(self.stars[v])

    def edge_of(self, h) -> str:
        return edge_id_of_pair(h, self.pairing[h])

    def edge_pairs(self) -> list[tuple]:
        # a < b, so each pair is already in order
        return sorted((a, b) for a, b in self.pairing.items() if a < b)

    def edge_ids(self) -> list[str]:
        return [edge_id_of_pair(a, b) for a, b in self.edge_pairs()]

    def num_edges(self) -> int:
        return len(self.pairing) // 2

    def is_bipartite(self) -> bool:
        """2-colorability of the underlying multigraph; a loop is an odd cycle.
        Each star is walked once, each half-edge leading to the vertex of its
        partner; a loop leads back to ``v`` itself, so it meets its own color."""
        attach, pairing, stars = self.attach, self.pairing, self.stars
        color = {}
        for start in stars:
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                c = color[v]
                for h in stars[v]:
                    w = attach[pairing[h]]
                    if w not in color:
                        color[w] = 1 - c
                        queue.append(w)
                    elif color[w] == c:
                        return False
        return True

    def faces(self) -> list[list]:
        """Cycles of the face permutation h -> rotation(pairing(h)), unsorted."""
        rotation = self.rotation
        return cycles({h: rotation[p] for h, p in self.pairing.items()})

    def face_perimeters(self) -> list[int]:
        return sorted(len(f) for f in self.faces())

    def rotation_inverse(self) -> dict:
        return {b: a for a, b in self.rotation.items()}


def _is_connected(stars, attach, pairing) -> bool:
    """Walk from one vertex to the vertices at the partners of its star."""
    stack = list(stars)[:1]
    seen = set(stack)
    while stack:
        new = {attach[pairing[h]] for h in stars[stack.pop()]} - seen
        seen |= new
        stack.extend(new)
    return len(seen) == len(stars)


# -- canonical form and isomorphism ------------------------------------------

def _root_keys(graph, degrees) -> dict:
    """Isomorphism-invariant key of every half-edge: the valency and the face
    length at it and at its partner, then both degrees when given."""
    pair, attach = graph.pairing, graph.attach
    valency = {h: len(star) for star in graph.stars.values() for h in star}
    face = {h: len(f) for f in graph.faces() for h in f}
    if degrees is None:
        return {h: (valency[h], valency[p], face[h], face[p]) for h, p in pair.items()}
    return {h: (valency[h], valency[p], face[h], face[p], degrees[attach[h]], degrees[attach[p]])
            for h, p in pair.items()}


def _rooted_word(graph, root, rinv, degrees, bound=None):
    """(word, order) of the BFS from ``root`` over the moves (pairing,
    rotation, rotation^-1), or ``None`` as soon as a prefix of the word
    exceeds ``bound``.

    ``order`` lists the half-edges by BFS label.  The word has one entry per
    half-edge in that order: the labels of its three neighbours, then its
    degree when degrees are given.  An entry is emitted as soon as its
    neighbours are labelled, so a losing root stops at its first larger
    entry.  Two rooted graphs give equal words iff there is a half-edge
    bijection sending root to root and commuting with pairing and rotation
    (and preserving degrees when given).
    """
    pair, rot, attach = graph.pairing, graph.rotation, graph.attach
    label = {root: 0}
    order = [root]
    word = []
    tied = bound is not None
    for h in order:  # grows while it is walked: this is the BFS queue
        p, r, q = pair[h], rot[h], rinv[h]
        for m in (p, r, q):
            if m not in label:
                label[m] = len(order)
                order.append(m)
        entry = (label[p], label[r], label[q])
        if degrees is not None:
            entry += (degrees[attach[h]],)
        if tied and entry != bound[len(word)]:
            if entry > bound[len(word)]:
                return None
            tied = False
        word.append(entry)
    return tuple(word), order


def _canonical(graph, keys, degrees) -> tuple:
    """(code, BFS order) of :func:`canonical_code`.  Two roots with equal
    words zip into an automorphism, which keeps the key classes; its cycles
    through the roots are merged in a union-find whose representatives are
    the least roots.  An automorphism commutes with pairing and rotation,
    so a root whose orbit holds a root tried before it gives an equal word
    and is skipped (McKay, "Practical graph isomorphism", 1981)."""
    if not keys:
        return (), []
    sizes = Counter(keys.values())
    rarest = min(sizes, key=lambda k: (sizes[k], k))  # ties by key, not by names
    roots = sorted(h for h, k in keys.items() if k == rarest)
    rinv = graph.rotation_inverse()
    parent = dict(zip(roots, roots))

    def find(h):
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        return h

    best = order = None
    for root in roots:
        if find(root) != root:  # a smaller root of its orbit was tried or skipped
            continue
        found = _rooted_word(graph, root, rinv, degrees, best)
        if found is not None and found[0] == best:
            image = dict(zip(order, found[1]))
            for h in roots:
                a, b = sorted((find(h), find(image[h])))
                parent[b] = a
        elif found is not None:
            best, order = found
    return best, order


def canonical_code(graph: RibbonGraph, degrees: dict | None = None) -> tuple:
    """Lexicographically minimal rooted word over the roots of the rarest
    key class: every half-edge is keyed by the valency and face length at
    it and at its partner (and both degrees when ``degrees`` is given), and
    one root is tried per orbit of the automorphisms found so far, each
    word stopping at its first entry above the best.  A map whose
    half-edges share one key and that has no automorphism costs one word
    per root.  Equal codes characterise isomorphism (degree-aware when
    ``degrees`` is given); codes are compared only within one version of
    this module and never written to output.  Mirror images are *not*
    identified: rotation and its inverse fill fixed slots of the word."""
    if not graph.connected:
        raise DisconnectedInput("canonical_code requires a connected graph")
    return _canonical(graph, _root_keys(graph, degrees), degrees)[0]


def is_isomorphic(g1: RibbonGraph, g2: RibbonGraph,
                  d1: dict | None = None, d2: dict | None = None):
    """Half-edge bijection realising an isomorphism, or ``None``.

    Degrees are compared iff both ``d1`` and ``d2`` are given.  Graphs whose
    half-edge keys (see :func:`canonical_code`) differ as multisets are
    rejected at once.  Otherwise the graphs are isomorphic iff their codes
    are equal, and then position i of one BFS order maps to position i of
    the other.  The returned dict is checked to commute with pairing and
    rotation (and to preserve degrees), so it induces a vertex bijection.
    """
    if not (g1.connected and g2.connected):
        raise DisconnectedInput("isomorphism testing requires connected graphs")
    if d1 is None or d2 is None:
        d1 = d2 = None
    keys1, keys2 = _root_keys(g1, d1), _root_keys(g2, d2)
    if Counter(keys1.values()) != Counter(keys2.values()):
        return None
    word1, order1 = _canonical(g1, keys1, d1)
    word2, order2 = _canonical(g2, keys2, d2)
    if word1 != word2:
        return None
    mapping = dict(zip(order1, order2))

    # verify the claimed isomorphism explicitly
    for h, h2 in mapping.items():
        if (mapping[g1.pairing[h]] != g2.pairing[h2]
                or mapping[g1.rotation[h]] != g2.rotation[h2]
                or d1 is not None and d1[g1.attach[h]] != d2[g2.attach[h2]]):
            raise InvariantError(f"equal words but the induced map fails at {h!r}")
    return mapping
