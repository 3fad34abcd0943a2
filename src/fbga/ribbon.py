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
        # a < b, so each pair is already in order
        return sorted((a, b) for a, b in self.pairing.items() if a < b)

    def edge_ids(self) -> list[str]:
        return [edge_id_of_pair(a, b) for a, b in self.edge_pairs()]

    def num_edges(self) -> int:
        return len(self.pairing) // 2

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


def _rarest_key(sizes: Counter):
    """The key of the smallest class, ties broken by the key itself, so
    the choice does not depend on half-edge names."""
    return min(sizes, key=lambda k: (sizes[k], k))


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


def canonical_code(graph: RibbonGraph, degrees: dict | None = None) -> tuple:
    """Lexicographically minimal rooted word over the roots of the rarest
    key class.

    Every half-edge gets an isomorphism-invariant key (valency and face
    length at it and at its partner, and both degrees when ``degrees`` is
    given); only the half-edges of the smallest key class are tried as
    roots, and each word stops at its first entry above the best so far.
    Equal codes characterise isomorphism (degree-aware when ``degrees`` is
    given).  A code is only meant to be compared with codes of the same
    version of this module and is never written to output.  Mirror images
    are *not* identified: the word uses rotation and its inverse in fixed
    slots, so reversing all rotations produces a different code in general.
    """
    if not graph.connected:
        raise DisconnectedInput("canonical_code requires a connected graph")
    keys = _root_keys(graph, degrees)
    if not keys:
        return ()
    rarest = _rarest_key(Counter(keys.values()))
    rinv = graph.rotation_inverse()
    best = None
    for root in (h for h, k in keys.items() if k == rarest):
        found = _rooted_word(graph, root, rinv, degrees, best)
        if found is not None:
            best = found[0]
    return best


def is_isomorphic(g1: RibbonGraph, g2: RibbonGraph,
                  d1: dict | None = None, d2: dict | None = None):
    """Half-edge bijection realising an isomorphism, or ``None``.

    Degrees are compared iff both ``d1`` and ``d2`` are given.  Graphs whose
    half-edge keys (see :func:`canonical_code`) differ as multisets are
    rejected at once.  Otherwise the word of g1 from one root of its rarest
    key class is matched against the words of g2 from the roots of the same
    class, each stopping at its first larger entry; an isomorphism sends
    that root into that class, so one of them matches iff the graphs are
    isomorphic.  The returned dict is checked to commute with pairing and
    rotation (and to preserve degrees), so it induces a vertex bijection.
    """
    if not (g1.connected and g2.connected):
        raise DisconnectedInput("isomorphism testing requires connected graphs")
    if d1 is None or d2 is None:
        d1 = d2 = None
    keys1, keys2 = _root_keys(g1, d1), _root_keys(g2, d2)
    sizes = Counter(keys1.values())
    if sizes != Counter(keys2.values()):
        return None
    if not keys1:
        return {}

    rarest = _rarest_key(sizes)
    root1 = next(h for h, k in keys1.items() if k == rarest)
    word1, order1 = _rooted_word(g1, root1, g1.rotation_inverse(), d1)
    rinv2 = g2.rotation_inverse()
    for root in (h for h, k in keys2.items() if k == rarest):
        found = _rooted_word(g2, root, rinv2, d2, word1)
        if found is not None and found[0] == word1:
            mapping = dict(zip(order1, found[1]))
            break
    else:
        return None

    # verify the claimed isomorphism explicitly
    for h, h2 in mapping.items():
        if (mapping[g1.pairing[h]] != g2.pairing[h2]
                or mapping[g1.rotation[h]] != g2.rotation[h2]
                or d1 is not None and d1[g1.attach[h]] != d2[g2.attach[h2]]):
            raise InvariantError(f"equal words but the induced map fails at {h!r}")
    return mapping

