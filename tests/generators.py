"""Generators for randomized and exhaustive testing.

Any permutation of an even set of half-edges, together with the pairing
(2i, 2i+1), is a ribbon graph; connectivity is the only thing to retry
for.  Degree functions of the form d(v) = val(v)·m give integral
multiplicities (a Brauer graph, always admissible); the cover-compatible
variant keeps every multiplicity ≡ 1 mod r, so the r-sheeted cover of
such a graph is admissible with multiplicities (1 + r·k)/r, which are
fractional whenever r ≥ 2.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from pathlib import Path
from random import Random

from fbga.afbg import Afbg
from fbga.covering import cover_finite
from fbga.errors import NotAdmissible
from fbga.fileio import parse_gentle, parse_ribbon
from fbga.gentle import (
    GentlePresentation,
    r_fold_trivial_extension,
    repetitive_window,
    trivial_extension,
)
from fbga.presentation import build_presentation
from fbga.ribbon import RibbonGraph, canonical_code, orbits

CONNECTED_TRIES = 1000
MAX_SHEETS = 3


def lambda_afbg(d: int = 2) -> Afbg:
    """The double edge: two vertices joined by two edges, both vertices of
    degree ``d`` (``data/lambda.rg`` at d = 2)."""
    g = RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])
    return Afbg.build(g, {"u": d, "w": d})


def loop_afbg(d: int = 2) -> Afbg:
    """One loop at one vertex of degree ``d``."""
    g = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    return Afbg.build(g, {"v": d})


def kronecker() -> GentlePresentation:
    """The Kronecker quiver, two arrows 1 -> 2, no relations."""
    return GentlePresentation.build(["1", "2"], [("x", "1", "2"), ("y", "1", "2")], [])


def aprime() -> GentlePresentation:
    """The two-cycle 1 -> 2 -> 1 with both composites zero; its trivial
    extension is the Kronecker quiver's."""
    return GentlePresentation.build(["1", "2"], [("x", "1", "2"), ("y", "2", "1")],
                                    [("y", "x"), ("x", "y")])


def _graph_from_perm(perm) -> RibbonGraph:
    """Ribbon graph whose rotation is the permutation i -> perm[i] on
    half-edges h0..h{2n-1}, with pairing (h_{2i}, h_{2i+1})."""
    n2 = len(perm)
    rho = {f"h{i}": f"h{perm[i]}" for i in range(n2)}
    rotations = {}
    for k, cyc in enumerate(orbits(rho)):
        rotations[f"v{k}"] = list(cyc)
    edges = [[f"h{2 * i}", f"h{2 * i + 1}"] for i in range(n2 // 2)]
    return RibbonGraph.build(rotations, edges)


def random_ribbon_graph(rng: Random, num_edges: int) -> RibbonGraph:
    """Random connected ribbon graph with the given number of edges."""
    n2 = 2 * num_edges
    for _ in range(CONNECTED_TRIES):
        perm = list(range(n2))
        rng.shuffle(perm)
        graph = _graph_from_perm(perm)
        if graph.connected:
            return graph
    raise RuntimeError(f"no connected graph with {num_edges} edges in {CONNECTED_TRIES} tries")


def brauer_degrees(rng: Random, graph: RibbonGraph, max_mult: int = 3) -> dict:
    """d(v) = val(v)·m with random integral m: always admissible."""
    return {v: len(graph.stars[v]) * rng.randint(1, max_mult)
            for v in graph.vertices}


def cover_compatible_degrees(rng: Random, graph: RibbonGraph, r: int,
                             max_k: int = 2) -> dict:
    """d(v) = val(v)·(1 + r·k): multiplicities ≡ 1 mod r, so the
    r-sheeted cover is admissible with all orbit sizes exactly r."""
    return {v: len(graph.stars[v]) * (1 + r * rng.randint(0, max_k))
            for v in graph.vertices}


def random_afbg(rng: Random, num_edges: int) -> Afbg:
    graph = random_ribbon_graph(rng, num_edges)
    return Afbg.build(graph, brauer_degrees(rng, graph))


def random_fractional_afbg(rng: Random, num_edges: int) -> Afbg:
    """The r-sheeted cover, 2 ≤ r ≤ MAX_SHEETS, of a random Brauer graph
    with ``num_edges`` edges and cover-compatible degrees, along a random
    cut: admissible by construction, with ``r * num_edges`` edges and
    multiplicities (1 + r·k)/r, none of them integral."""
    base = random_ribbon_graph(rng, num_edges)
    r = rng.randint(2, MAX_SHEETS)
    a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
    return cover_finite(a, random_cut(rng, base), r).cover


def random_cut(rng: Random, graph: RibbonGraph) -> dict:
    return {v: rng.choice(graph.stars[v]) for v in graph.vertices}


def shuffled_copy(rng: Random, graph: RibbonGraph, degrees=None):
    """Isomorphic copy under random renaming of vertices and half-edges.
    Returns (graph, degrees-or-None)."""
    vnames = [f"w{i}" for i in range(len(graph.vertices))]
    rng.shuffle(vnames)
    vmap = dict(zip(graph.vertices, vnames))
    hnames = [f"k{i}" for i in range(len(graph.attach))]
    rng.shuffle(hnames)
    hmap = dict(zip(sorted(graph.attach), hnames))
    g2 = RibbonGraph.build({vmap[v]: [hmap[h] for h in graph.stars[v]] for v in graph.vertices},
                           [[hmap[a], hmap[b]] for a, b in graph.edge_pairs()])
    d2 = {vmap[v]: degrees[v] for v in degrees} if degrees is not None else None
    return g2, d2


def random_brauer_tree(rng: Random, num_edges: int):
    """Random tree with one marked vertex of multiplicity m and all other
    multiplicities 1.  Returns (Afbg, m)."""
    rotations = {"v0": []}
    edge_pairs = []
    for i in range(num_edges):
        host = rng.choice(sorted(rotations))
        leaf = f"v{i + 1}"
        ha, hb = f"h{2 * i}", f"h{2 * i + 1}"
        pos = rng.randint(0, len(rotations[host]))
        rotations[host].insert(pos, ha)
        rotations[leaf] = [hb]
        edge_pairs.append([ha, hb])
    graph = RibbonGraph.build(rotations, edge_pairs)
    m = rng.randint(1, 4)
    marked = rng.choice(sorted(graph.vertices))
    degrees = {v: graph.valency(v) * (m if v == marked else 1)
               for v in graph.vertices}
    return Afbg.build(graph, degrees), m


def connected_graphs_up_to(max_edges: int) -> list:
    """All connected ribbon graphs with 1..max_edges edges, one
    representative per isomorphism class, as a new list (callers extend
    it); each edge count is enumerated once per process."""
    return [graph for n in range(1, max_edges + 1) for graph in _connected_graphs_with(n)]


@cache
def _connected_graphs_with(n: int) -> tuple:
    """Exhaustive over rotations with the pairing fixed, deduplicated by
    canonical code."""
    out, seen = [], set()
    for perm in permutations(range(2 * n)):
        graph = _graph_from_perm(perm)
        if not graph.connected:
            continue
        code = canonical_code(graph)
        if code not in seen:
            seen.add(code)
            out.append(graph)
    return tuple(out)


def torus_grid(k: int, shift: int = 0) -> RibbonGraph:
    """The k×k square grid on the torus: 2k² edges, every vertex 4-valent
    and every face a square, so every half-edge has the same key.  The wrap
    from the top row back to the bottom one moves ``shift`` columns; for
    k ≥ 2, shift 1 gives a map that is not isomorphic to the plain grid:
    its lattice of periods, spanned by (k, 0) and (1, k), is not kZ², and
    every rotation of the plane's square grid keeps kZ²."""
    rotations = {f"v{i}.{j}": [f"{d}{i}.{j}" for d in "ENWS"]
                 for i in range(k) for j in range(k)}
    edges = [[f"E{i}.{j}", f"W{(i + 1) % k}.{j}"] for i in range(k) for j in range(k)]
    edges += [[f"N{i}.{j}", f"S{(i + (shift if j == k - 1 else 0)) % k}.{(j + 1) % k}"]
              for i in range(k) for j in range(k)]
    return RibbonGraph.build(rotations, edges)


def small_degree_pairs(max_edges: int = 3, max_degree: int = 4) -> list:
    """Every (graph, degrees) on the connected graphs with at most
    ``max_edges`` edges and degrees 1..``max_degree``, admissible or not."""
    return [(g, dict(zip(g.vertices, ds))) for g in connected_graphs_up_to(max_edges)
            for ds in product(range(1, max_degree + 1), repeat=len(g.vertices))]


def disjoint_union(graphs) -> RibbonGraph:
    """The graphs side by side, the names of the i-th suffixed with ``.i``."""
    rotations, edges = {}, []
    for i, g in enumerate(graphs):
        rotations.update({f"{v}.{i}": [f"{h}.{i}" for h in g.stars[v]] for v in g.vertices})
        edges += [[f"{a}.{i}", f"{b}.{i}"] for a, b in g.edge_pairs()]
    return RibbonGraph.build(rotations, edges)


DATA = Path(__file__).resolve().parent.parent / "data"


def presentation_cases() -> list:
    """Presentations to render both ways: the data/ graphs, random Brauer
    graphs, r-sheeted covers, the r-fold trivial extensions (r = 1..4) and
    the windows 0:0, 0:2 and 2:9 of the data/ gentle files, a star with 12
    degree-1 leaves, a loop, a double edge of degree 1001 (its walks wrap
    about 500 times) and half-edge ids that JSON escapes."""
    algebras = []
    for path in sorted(DATA.glob("*.rg")):
        try:
            algebras.append(Afbg.build(*parse_ribbon(path.read_text())))
        except NotAdmissible:
            pass
    rng = Random(16)
    algebras += [random_afbg(rng, rng.randint(1, 8)) for _ in range(20)]
    for r in (2, 3, 4):
        for _ in range(3):
            base = random_ribbon_graph(rng, rng.randint(1, 4))
            a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
            algebras.append(cover_finite(a, random_cut(rng, base), r).cover)
    star = RibbonGraph.build({"c": [f"h{i}" for i in range(12)],
                              **{f"l{i}": [f"t{i}"] for i in range(12)}},
                             [[f"h{i}", f"t{i}"] for i in range(12)])
    algebras.append(Afbg.build(star, {"c": 12, **{f"l{i}": 1 for i in range(12)}}))
    loop = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    algebras.append(Afbg.build(loop, {"v": 4}))
    double = RibbonGraph.build({"u": ["a", "b"], "w": ["c", "d"]}, [["a", "c"], ["b", "d"]])
    algebras.append(Afbg.build(double, {"u": 1001, "w": 3}))
    awkward = RibbonGraph.build({"u": ['q"', "é"], "w": ["λ€", "\\😀"]},
                                [['q"', "λ€"], ["é", "\\😀"]])
    algebras.append(Afbg.build(awkward, {"u": 4, "w": 6}))
    cases = [build_presentation(a) for a in algebras]
    for path in sorted(DATA.glob("*.gentle")):
        gentle = parse_gentle(path.read_text())
        cases.append(trivial_extension(gentle))
        cases += [r_fold_trivial_extension(gentle, r) for r in (2, 3, 4)]
        cases += [repetitive_window(gentle, lo, hi) for lo, hi in ((0, 0), (0, 2), (2, 9))]
    return cases
