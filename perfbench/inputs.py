"""Seeded input generation and the benchmark's own facts about its inputs.

Everything here is independent of the code under test: graphs are plain
dicts written as fbga graph files, and every fact a job's output is checked
against (face lengths, sum of valency times degree, Loewy strands, gentle
maximal paths) is computed from these dicts.  The only conventions shared
with fbga are those of its file formats: an edge id is the two half-edge
ids sorted and joined by "~", and an exported Loewy table labels edges
s0, s1, ... in sorted edge-id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random


@dataclass
class Graph:
    rot: dict    # vertex -> half-edges in rotation order
    edges: list  # [a, b] half-edge pairs
    deg: dict    # vertex -> degree

    def maps(self):
        attach = {h: v for v, hs in self.rot.items() for h in hs}
        pair = {}
        for a, b in self.edges:
            pair[a], pair[b] = b, a
        rho = {h: hs[(i + 1) % len(hs)] for hs in self.rot.values()
               for i, h in enumerate(hs)}
        return attach, pair, rho

    def text(self) -> str:
        rows = [{"id": v, "rotation": hs, "degree": self.deg[v]}
                for v, hs in self.rot.items()]
        return json.dumps({"vertices": rows, "edges": self.edges}) + "\n"


def graph_of_json(obj) -> Graph:
    """Graph from a parsed fbga graph file (or a command's json output)."""
    return Graph({r["id"]: list(r["rotation"]) for r in obj["vertices"]},
                 [list(e) for e in obj["edges"]],
                 {r["id"]: r["degree"] for r in obj["vertices"]})


# -- facts --------------------------------------------------------------------

def face_lengths(g: Graph) -> list:
    """Sorted cycle lengths of the face permutation h -> rho(pair(h))."""
    _, pair, rho = g.maps()
    seen, out = set(), []
    for h in pair:
        n = 0
        while h not in seen:
            seen.add(h)
            h = rho[pair[h]]
            n += 1
        if n:
            out.append(n)
    return sorted(out)


def dimension(g: Graph) -> int:
    return sum(len(hs) * g.deg[v] for v, hs in g.rot.items())


def multiplicities(g: Graph) -> dict:
    return {v: Fraction(g.deg[v], len(hs)) for v, hs in g.rot.items()}


def connected(g: Graph) -> bool:
    attach, pair, _ = g.maps()
    start = next(iter(g.rot))
    seen, todo = {start}, [start]
    while todo:
        for h in g.rot[todo.pop()]:
            w = attach[pair[h]]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(g.rot)


def edge_id(a: str, b: str) -> str:
    return "~".join(sorted((a, b)))


def loewy_rows(g: Graph, label: dict | None = None) -> dict:
    """Strand walker: label -> (sorted strands, socle label).

    A strand lists the edges that the rotation walk from a half-edge passes
    in degree - 1 steps; the socle is the edge reached after degree steps.
    ``label`` maps edge ids to row labels (default: s0, s1, ... in sorted
    edge-id order, as ``fbga export --loewy`` numbers them)."""
    attach, pair, _ = g.maps()
    eid = {h: edge_id(h, k) for h, k in pair.items()}
    if label is None:
        label = {e: f"s{i}" for i, e in enumerate(sorted(set(eid.values())))}
    lab = {h: label[e] for h, e in eid.items()}
    pos = {h: i for hs in g.rot.values() for i, h in enumerate(hs)}

    def walk(h, steps):
        star = g.rot[attach[h]]
        return [lab[star[(pos[h] + k) % len(star)]] for k in steps]

    rows = {}
    for x, y in g.edges:
        strands = sorted(walk(h, range(1, g.deg[attach[h]])) for h in (x, y))
        rows[lab[x]] = (strands, walk(x, (g.deg[attach[x]],))[0])
    return rows


def loewy_text(rows: dict) -> str:
    table = [{"id": k, "strands": v[0], "socle": v[1]} for k, v in sorted(rows.items())]
    return json.dumps(table) + "\n"


def rows_of_loewy_json(obj) -> dict:
    return {r["id"]: (sorted(list(s) for s in r["strands"]), r["socle"]) for r in obj}


# -- graph generators -----------------------------------------------------------

def fill_valencies(total: int) -> list:
    """3s and 4s summing to ``total`` (total >= 6)."""
    fours = 0
    while (total - 4 * fours) % 3:
        fours += 1
    return [4] * fours + [3] * ((total - 4 * fours) // 3)


def star_valencies(num_edges: int) -> list:
    """A few hubs carrying 5/8 of the half-edges, the rest 3- and 4-valent."""
    hubs = [h for h in (num_edges // 2, 3 * num_edges // 8, num_edges // 4, num_edges // 8)
            if h]
    return hubs + fill_valencies(2 * num_edges - sum(hubs))


def random_graph(rng: Random, valencies: list, mult=lambda i: 1) -> Graph:
    """Connected graph with the given valencies: a random rotation with that
    cycle type and a random pairing.  Degrees are valency * mult(i), so the
    graph is a Brauer graph (integral multiplicities)."""
    n2 = sum(valencies)
    while True:
        hs = [f"h{i}" for i in range(n2)]
        rng.shuffle(hs)
        rot, i = {}, 0
        for k, val in enumerate(valencies):
            rot[f"v{k}"] = hs[i:i + val]
            i += val
        rng.shuffle(hs)
        edges = [[hs[2 * j], hs[2 * j + 1]] for j in range(n2 // 2)]
        deg = {f"v{k}": val * mult(k) for k, val in enumerate(valencies)}
        g = Graph(rot, edges, deg)
        if connected(g):
            return g


def star(rng: Random, num_edges: int, mult=lambda i: 1) -> Graph:
    return random_graph(rng, star_valencies(num_edges), mult)


def mesh(rng: Random, num_edges: int, mult=lambda i: 1) -> Graph:
    return random_graph(rng, fill_valencies(2 * num_edges), mult)


def cover(g: Graph, r: int) -> Graph:
    """r-sheeted cyclic cover, cut after the last half-edge listed at each
    vertex.  Admissible when the base multiplicities are congruent mod r."""
    rot = {v: [f"{h}@{j}" for j in range(r) for h in hs] for v, hs in g.rot.items()}
    edges = [[f"{a}@{j}", f"{b}@{j}"] for j in range(r) for a, b in g.edges]
    return Graph(rot, edges, dict(g.deg))


def relabel(rng: Random, g: Graph) -> Graph:
    """Isomorphic copy: new names, shuffled listing, rotations started at a
    random half-edge, edges listed in random order and orientation."""
    vnames = [f"w{i}" for i in range(len(g.rot))]
    hnames = [f"k{i}" for i in range(2 * len(g.edges))]
    rng.shuffle(vnames)
    rng.shuffle(hnames)
    vmap = dict(zip(g.rot, vnames))
    hmap = dict(zip([h for hs in g.rot.values() for h in hs], hnames))
    rot = {}
    for v in rng.sample(list(g.rot), len(g.rot)):
        hs = g.rot[v]
        k = rng.randrange(len(hs))
        rot[vmap[v]] = [hmap[h] for h in hs[k:] + hs[:k]]
    edges = [[hmap[a], hmap[b]] if rng.random() < 0.5 else [hmap[b], hmap[a]]
             for a, b in rng.sample(g.edges, len(g.edges))]
    return Graph(rot, edges, {vmap[v]: d for v, d in g.deg.items()})


def swap_rotation(rng: Random, g: Graph, reference=None) -> Graph:
    """Swap two half-edges in one rotation so that the face lengths of
    ``reference(result)`` differ from those of ``reference(g)``."""
    reference = reference or (lambda x: x)
    before = face_lengths(reference(g))
    big = [v for v, hs in g.rot.items() if len(hs) >= 3]
    for _ in range(10_000):
        v = rng.choice(big)
        i, j = rng.sample(range(len(g.rot[v])), 2)
        hs = list(g.rot[v])
        hs[i], hs[j] = hs[j], hs[i]
        out = Graph({**g.rot, v: hs}, g.edges, g.deg)
        if face_lengths(reference(out)) != before:
            return out
    raise RuntimeError("no rotation swap changes the face lengths")


def dipole(k: int) -> Graph:
    """k parallel edges in the same cyclic order at both ends, degrees k."""
    return Graph({"u": [f"a{i}" for i in range(k)], "w": [f"b{i}" for i in range(k)]},
                 [[f"a{i}", f"b{i}"] for i in range(k)], {"u": k, "w": k})


def double_edge(d: int) -> Graph:
    """Two vertices joined by two edges, both of degree ``d``."""
    return Graph({"u": ["x0", "x1"], "w": ["y0", "y1"]},
                 [["x0", "y0"], ["x1", "y1"]], {"u": d, "w": d})


# -- gentle quivers ---------------------------------------------------------------

@dataclass
class Gentle:
    vertices: list
    arrows: list     # (name, source, target)
    relations: list  # (later, earlier)

    def text(self) -> str:
        return json.dumps({
            "vertices": self.vertices,
            "arrows": [{"id": a, "from": s, "to": t} for a, s, t in self.arrows],
            "zero_relations": [list(r) for r in self.relations]}) + "\n"

    def path_valencies(self) -> list:
        """Valencies of the Brauer graph of the gentle algebra: one vertex per
        maximal nonzero path (visits = arrows + 1) and one of valency 1 per
        trivial path, which tops every quiver vertex up to two visits."""
        rels = set(self.relations)
        succ = {a: b for a, _, t in self.arrows for b, s, _ in self.arrows
                if s == t and (b, a) not in rels}
        starts = [a for a, _, _ in self.arrows if a not in succ.values()]
        vals = []
        for a in starts:
            n = 1
            while a in succ:
                a = succ[a]
                n += 1
            vals.append(n + 1)
        return vals + [1] * (2 * len(self.vertices) - sum(vals))


def gentle(rng: Random, n: int, cyclic: bool) -> Gentle:
    """Type A (linear) or type Ã (cyclic, n >= 3) quiver with random arrow
    orientations and random length-two zero relations; an oriented cycle
    always gets at least one relation."""
    vs = [f"q{i}" for i in range(n)]
    m = n if cyclic else n - 1
    arrows = []
    for i in range(m):
        s, t = vs[i], vs[(i + 1) % n]
        arrows.append((f"x{i}",) + ((s, t) if rng.random() < 0.5 else (t, s)))
    composable = []
    for i in range(m if cyclic else m - 1):
        p, q = arrows[i], arrows[(i + 1) % m]
        if p[2] == q[1]:
            composable.append((q[0], p[0]))
        elif q[2] == p[1]:
            composable.append((p[0], q[0]))
    rels = [c for c in composable if rng.random() < 0.5]
    if cyclic and len(composable) == m and not rels:
        rels.append(rng.choice(composable))
    return Gentle(vs, arrows, rels)
