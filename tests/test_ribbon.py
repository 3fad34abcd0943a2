import time
from itertools import permutations, product
from random import Random

import pytest

from fbga.afbg import Afbg
from fbga.covering import cover_finite
from fbga.errors import (
    DisconnectedInput,
    DuplicateHalfEdge,
    FbgaError,
    FixedPointPairing,
    MissingDegree,
    OrbitMismatch,
    RibbonStructureError,
    UnknownVertex,
)
from fbga.ribbon import (
    RibbonGraph,
    _root_keys,
    _rooted_word,
    canonical_code,
    edge_id_of_pair,
    is_isomorphic,
    orbits,
)
from generators import (
    connected_graphs_up_to,
    cover_compatible_degrees,
    disjoint_union,
    lambda_afbg,
    loop_afbg,
    random_cut,
    random_ribbon_graph,
    shuffled_copy,
    small_degree_pairs,
    torus_grid,
)
from oracles import (
    reference_bipartite,
    reference_canonical_code,
    reference_connected,
    reference_faces,
    reference_is_isomorphic,
    reference_orbits,
    reference_root_keys,
    reference_rooted_word,
)


def test_orbits_anchored_at_min():
    perm = {"b": "c", "c": "b", "a": "a"}
    assert orbits(perm) == [("a",), ("b", "c")]


def kernel_graphs() -> list:
    """The empty graph, every connected graph with at most 3 edges, and
    disjoint unions of 1 to 4 random connected graphs."""
    rng = Random(13)
    unions = [disjoint_union([random_ribbon_graph(rng, rng.randint(1, 6))
                              for _ in range(rng.randint(1, 4))]) for _ in range(60)]
    return [RibbonGraph.build({}, [])] + connected_graphs_up_to(3) + unions


def test_walks_agree_with_sorted_walks_and_union_find():
    """Connectivity, faces and orbits, walked unsorted, equal the sorted
    walks and union-find they replaced."""
    graphs = kernel_graphs()
    assert {g.connected for g in graphs} == {True, False}
    for g in graphs:
        assert g.connected == reference_connected(g)
        faces = reference_faces(g)
        assert g.face_perimeters() == sorted(len(f) for f in faces)
        assert sorted(map(sorted, g.faces())) == sorted(map(sorted, faces))
        phi = {h: g.rotation[g.pairing[h]] for h in g.attach}
        assert orbits(phi) == faces
        assert orbits(g.rotation) == reference_orbits(g.rotation)
        assert list(_root_keys(g, None).items()) == list(reference_root_keys(g, None).items())


def test_root_keys_agree_with_sorted_face_orbits():
    pairs = small_degree_pairs() + [(RibbonGraph.build({}, []), {})]
    assert len(pairs) == 1105
    for g, d in pairs:
        assert list(_root_keys(g, d).items()) == list(reference_root_keys(g, d).items())


def test_build_basic():
    g = lambda_afbg().graph
    assert set(g.vertices) == {"u", "w"}
    assert g.valency("u") == 2
    assert g.num_edges() == 2
    assert g.edge_of("h") == g.edge_of("ih") == edge_id_of_pair("ih", "h")
    assert g.connected


def test_build_rejects_self_paired_edge():
    with pytest.raises(FixedPointPairing):
        RibbonGraph.build({"v": ["a"]}, [["a", "a"]])


def test_build_rejects_duplicate_half_edge():
    with pytest.raises(DuplicateHalfEdge):
        RibbonGraph.build({"v": ["a", "a"]}, [["a", "b"]])
    with pytest.raises(DuplicateHalfEdge):
        RibbonGraph.build({"v": ["a", "b"], "w": ["c", "d"]},
                          [["a", "b"], ["a", "c"]])


def test_build_rejects_unpaired_and_unattached():
    with pytest.raises(OrbitMismatch):
        RibbonGraph.build({"v": ["a", "b", "c"]}, [["a", "b"]])
    with pytest.raises(OrbitMismatch):
        RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"], ["c", "d"]])


def test_build_rejects_reserved_separator():
    with pytest.raises(RibbonStructureError):
        RibbonGraph.build({"v": ["a~x", "b"]}, [["a~x", "b"]])


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        lambda_afbg().graph.valency("nope")


def test_faces_of_lambda():
    g = lambda_afbg().graph
    assert g.face_perimeters() == [2, 2]
    # Euler characteristic V - E + F of the underlying surface is even
    assert (len(g.vertices) - g.num_edges() + len(g.faces())) % 2 == 0


def test_faces_of_loop():
    # one loop at one vertex: two faces of perimeter one
    assert loop_afbg().graph.face_perimeters() == [1, 1]


def test_loop_not_bipartite_double_edge_is():
    assert not loop_afbg().graph.is_bipartite()
    assert lambda_afbg().graph.is_bipartite()


def test_is_bipartite_agrees_with_every_two_colouring():
    """``is_bipartite`` against the brute-force 2-colouring of
    ``tests/oracles.py``: on every connected graph with at most 3 edges,
    on disjoint unions of them in both orders (an odd component after an
    even one and before it) and on loops added at a vertex of an even
    graph, alone or beside other edges."""
    graphs = [g for g, _ in small_degree_pairs(max_degree=1)]
    unions = [disjoint_union(pair) for i in range(len(graphs) - 1)
              for pair in ((graphs[i], graphs[i + 1]), (graphs[i + 1], graphs[i]))]
    looped = [RibbonGraph.build({"u": ["h", "hp"], "w": star},
                                [["h", "ih"], ["hp", "ihp"], ["l", "lp"]])
              for star in (["ih", "ihp", "l", "lp"], ["ih", "l", "ihp", "lp"])]
    looped.append(disjoint_union([lambda_afbg().graph, loop_afbg().graph]))
    for g in graphs + unions + looped:
        assert g.is_bipartite() == reference_bipartite(g)
    assert {g.is_bipartite() for g in graphs} == {True, False}
    assert not any(g.is_bipartite() for g in looped)


@pytest.mark.parametrize("seed", range(8))
def test_euler_characteristic_parity(seed):
    rng = Random(seed)
    g = random_ribbon_graph(rng, rng.randint(1, 8))
    chi = len(g.vertices) - g.num_edges() + len(g.faces())
    assert chi % 2 == 0
    assert chi <= 2
    assert sum(g.face_perimeters()) == len(g.attach)


def test_canonical_code_invariant_under_relabeling():
    rng = Random(5)
    for _ in range(30):
        g = random_ribbon_graph(rng, rng.randint(1, 7))
        code = canonical_code(g)
        g2, _ = shuffled_copy(rng, g)
        assert canonical_code(g2) == code


def test_canonical_code_degree_aware():
    g = lambda_afbg().graph
    same = canonical_code(g, {"u": 2, "w": 2})
    other = canonical_code(g, {"u": 2, "w": 4})
    assert same != other
    assert canonical_code(g) != same  # degrees change the code space


def test_canonical_code_requires_connected():
    g = RibbonGraph.build({"v": ["a", "b"], "w": ["c", "d"]},
                          [["a", "b"], ["c", "d"]])
    assert not g.connected
    with pytest.raises(DisconnectedInput):
        canonical_code(g)


def test_is_isomorphic_returns_checked_bijection():
    rng = Random(11)
    g = random_ribbon_graph(rng, 5)
    g2, _ = shuffled_copy(rng, g)
    phi = is_isomorphic(g, g2)
    assert phi is not None
    for h in sorted(g.attach):
        assert g2.pairing[phi[h]] == phi[g.pairing[h]]
        assert g2.rotation[phi[h]] == phi[g.rotation[h]]


def test_is_isomorphic_distinguishes_loop_from_edge():
    edge = RibbonGraph.build({"v": ["a"], "w": ["b"]}, [["a", "b"]])
    assert is_isomorphic(loop_afbg().graph, edge) is None


def brute_force_iso(g1, g2, d1=None, d2=None):
    """Exhaustive bijection scan; only viable for tiny graphs.  Degrees are
    compared iff both ``d1`` and ``d2`` are given."""
    hs1, hs2 = sorted(g1.attach), sorted(g2.attach)
    if len(hs1) != len(hs2):
        return False
    for image in permutations(hs2):
        phi = dict(zip(hs1, image))
        if all(phi[g1.pairing[h]] == g2.pairing[phi[h]]
               and phi[g1.rotation[h]] == g2.rotation[phi[h]]
               and (d1 is None or d2 is None or d1[g1.attach[h]] == d2[g2.attach[phi[h]]])
               for h in hs1):
            return True
    return False


def test_iso_agrees_with_brute_force_on_small_graphs():
    rng = Random(23)
    graphs = [random_ribbon_graph(rng, rng.randint(1, 3)) for _ in range(12)]
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            fast = is_isomorphic(a, b) is not None
            assert fast == brute_force_iso(a, b)


def mirror(graph):
    """All rotations reversed: the same valencies and multiset of face lengths."""
    return RibbonGraph.build({v: graph.stars[v][::-1] for v in graph.vertices},
                             graph.edge_pairs())


def assert_checked_isomorphism(g1, g2, d1=None, d2=None):
    phi = is_isomorphic(g1, g2, d1, d2)
    assert phi is not None
    assert sorted(phi) == sorted(g1.attach) and sorted(phi.values()) == sorted(g2.attach)
    for h in sorted(g1.attach):
        assert g2.pairing[phi[h]] == phi[g1.pairing[h]]
        assert g2.rotation[phi[h]] == phi[g1.rotation[h]]
        if d1 is not None:
            assert d2[g2.attach[phi[h]]] == d1[g1.attach[h]]


def agree_with_brute_force(g1, g2, d1=None, d2=None):
    """The fast verdict, equality of codes and the oracle all agree."""
    oracle = brute_force_iso(g1, g2, d1, d2)
    assert (is_isomorphic(g1, g2, d1, d2) is not None) == oracle
    assert (canonical_code(g1, d1) == canonical_code(g2, d2)) == oracle
    return oracle


def test_iso_agrees_with_brute_force_on_relabelled_copies_and_mirrors():
    rng = Random(31)
    for g in connected_graphs_up_to(3):
        copy, _ = shuffled_copy(rng, g)
        assert agree_with_brute_force(g, copy)
        assert agree_with_brute_force(g, mirror(g))  # every map with <= 3 edges is reflexible


def test_degree_aware_iso_agrees_with_brute_force():
    rng = Random(37)
    chiral = 0
    for g in connected_graphs_up_to(3):
        for values in product((1, 2), repeat=len(g.vertices)):
            degrees = dict(zip(g.vertices, values))
            copy, copy_degrees = shuffled_copy(rng, g, degrees)
            assert agree_with_brute_force(g, copy, degrees, copy_degrees)
            chiral += not agree_with_brute_force(g, mirror(g), degrees, degrees)
            v = rng.choice(g.vertices)
            assert not agree_with_brute_force(g, g, degrees, {**degrees, v: 3})
    # mirrors keep valencies, face lengths and degrees, so such pairs can
    # pass the key histograms and must be told apart by their words
    assert chiral == 4


def dipole(n):
    """n parallel edges in the same cyclic order at both ends."""
    return RibbonGraph.build({"u": [f"a{i}" for i in range(n)],
                              "w": [f"b{i}" for i in range(n)]},
                             [[f"a{i}", f"b{i}"] for i in range(n)])


def bouquet(n):
    """One vertex whose 2n half-edges are paired opposite each other."""
    return RibbonGraph.build({"v": [f"x{i}" for i in range(2 * n)]},
                             [[f"x{i}", f"x{i + n}"] for i in range(n)])


def symmetric_graphs():
    """Graphs whose rarest key class is large: every half-edge of a dipole
    or a bouquet has the same key, and the deck transformations of an
    r-sheeted cover permute each class."""
    rng = Random(41)
    out = [pytest.param(dipole(n), {"u": n, "w": n}, id=f"dipole{n}") for n in range(2, 14)]
    out += [pytest.param(bouquet(n), {"v": 2 * n}, id=f"bouquet{n}") for n in range(1, 7)]
    for r in (2, 3):
        for i in range(3):
            base = random_ribbon_graph(rng, 3 + i)
            a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
            cover = cover_finite(a, random_cut(rng, base), r)
            out.append(pytest.param(cover.graph, dict(cover.degrees), id=f"cover{r}-{i}"))
    return out


@pytest.mark.parametrize("graph, degrees", symmetric_graphs())
def test_symmetric_graphs_with_large_root_classes(graph, degrees):
    rng = Random(43)
    copy, copy_degrees = shuffled_copy(rng, graph, degrees)
    assert_checked_isomorphism(graph, copy, degrees, copy_degrees)
    assert_checked_isomorphism(graph, copy)
    assert canonical_code(copy, copy_degrees) == canonical_code(graph, degrees)
    assert canonical_code(copy) == canonical_code(graph)
    v = rng.choice(graph.vertices)
    changed = {**degrees, v: degrees[v] + 1}
    assert canonical_code(graph, changed) != canonical_code(graph, degrees)
    assert is_isomorphic(graph, graph, degrees, changed) is None


@pytest.fixture(scope="module")
def graphs_up_to_4():
    return connected_graphs_up_to(4)


def test_classes_up_to_four_edges(graphs_up_to_4):
    """There are 2, 5, 20 and 107 connected ribbon graphs with 1 to 4
    edges.  ``connected_graphs_up_to`` keeps one graph per canonical code,
    so a code that is not invariant, or two classes with one code, moves
    these counts."""
    counts = [sum(g.num_edges() == n for g in graphs_up_to_4) for n in range(1, 5)]
    assert counts == [2, 5, 20, 107]


def pruning_cases(graphs) -> list:
    """(graph, degrees) pairs: the given graphs with degrees 1 or 2 at each
    vertex, seeded covers (r = 2, 3, 6), whose deck transformations are
    automorphisms, and dipoles, bouquets and torus grids, whose roots all
    share one key."""
    rng = Random(47)
    out = [(g, {v: rng.randint(1, 2) for v in g.vertices}) for g in graphs]
    for r in (2, 3, 6):
        for _ in range(4):
            base = random_ribbon_graph(rng, rng.randint(2, 5))
            a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
            cover = cover_finite(a, random_cut(rng, base), r)
            out.append((cover.graph, dict(cover.degrees)))
    out += [(dipole(n), {"u": n, "w": n}) for n in range(2, 9)]
    out += [(bouquet(n), {"v": 2 * n}) for n in range(1, 7)]
    grids = [torus_grid(k, shift) for k in (3, 4, 5) for shift in (0, 1)]
    out += [(g, dict.fromkeys(g.vertices, 4)) for g in grids]
    return out


def test_pruned_code_equals_the_unpruned_code(graphs_up_to_4):
    """Skipping the roots in the orbit of a tried root leaves the least
    word unchanged, with and without degrees."""
    for g, d in pruning_cases(graphs_up_to_4):
        assert canonical_code(g, d) == reference_canonical_code(g, d)
        assert canonical_code(g) == reference_canonical_code(g)


def test_is_isomorphic_agrees_with_the_root_matching_search(graphs_up_to_4):
    """The verdict of comparing two codes equals that of matching one word
    of g1 against the words of g2, on relabelled copies, mirrors and copies
    with one degree changed; the map returned is checked."""
    rng = Random(53)
    verdicts = set()
    for g, d in pruning_cases(graphs_up_to_4):
        v = rng.choice(g.vertices)
        copy, copy_degrees = shuffled_copy(rng, g, d)
        for other, od in ((copy, copy_degrees), (mirror(g), d), (g, {**d, v: d[v] + 1})):
            for d1, d2 in ((d, od), (None, None)):
                verdict = reference_is_isomorphic(g, other, d1, d2)
                assert (is_isomorphic(g, other, d1, d2) is not None) == verdict
                if verdict:
                    assert_checked_isomorphism(g, other, d1, d2)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_uniform_key_torus_pair():
    """Every half-edge of an 800-edge torus grid and of its shifted twin has
    one key.  The grid has 1,600 automorphisms and its twin 800, so the
    search tries a few roots, not all 1,600."""
    grid, twin = torus_grid(20), torus_grid(20, shift=1)
    assert grid.num_edges() == twin.num_edges() == 800
    assert len(set(_root_keys(grid, None).values()) | set(_root_keys(twin, None).values())) == 1
    t0 = time.monotonic()
    assert is_isomorphic(grid, twin) is None
    assert time.monotonic() - t0 <= 0.5
    assert_checked_isomorphism(grid, shuffled_copy(Random(59), grid)[0])


def test_the_search_on_the_second_graph_ends_at_the_first_code(monkeypatch):
    """A relabelled 800-edge torus grid gives one word from every root, so
    once the code of the grid is known, the copy builds a single word."""
    built = []

    def counted(graph, *args):
        built.append(graph)
        return _rooted_word(graph, *args)

    monkeypatch.setattr("fbga.ribbon._rooted_word", counted)
    grid = torus_grid(20)
    copy = shuffled_copy(Random(67), grid)[0]
    assert is_isomorphic(grid, copy) is not None
    assert sum(g is copy for g in built) == 1
    assert sum(g is grid for g in built) == len(built) - 1 > 1


def test_graphs_whose_keys_differ_build_no_word(monkeypatch):
    """A loop and an edge differ in valency, so ``is_isomorphic`` rejects
    the pair on its half-edge keys before any search."""
    def no_word(*args):
        raise AssertionError("a rooted word was built")

    monkeypatch.setattr("fbga.ribbon._rooted_word", no_word)
    assert is_isomorphic(bouquet(1), dipole(1)) is None


@pytest.mark.parametrize("graph", [dipole, bouquet])
def test_code_of_an_800_edge_map_with_one_key(graph):
    g = graph(800)
    t0 = time.monotonic()
    assert canonical_code(g) == canonical_code(shuffled_copy(Random(61), g)[0])
    assert time.monotonic() - t0 <= 0.5


def test_rooted_word_stops_exactly_when_it_exceeds_the_bound():
    for g in connected_graphs_up_to(3):
        rinv = g.rotation_inverse()
        for root in sorted(g.attach):
            word = reference_rooted_word(g, root)
            assert _rooted_word(g, root, rinv, None)[0] == word
            for other in sorted(g.attach):
                bound = reference_rooted_word(g, other)
                found = _rooted_word(g, root, rinv, None, bound)
                assert (found is None) == (word > bound)
                assert found is None or found[0] == word


TWO_LOOPS = ({"v": ["a", "b"], "w": ["c", "d"]}, [["a", "b"], ["c", "d"]])
# input checks that no other test reaches, each with its one-line message
REFUSALS = {
    "vertex-without-half-edges": (lambda: RibbonGraph.build({"v": []}, []),
                                  OrbitMismatch, "vertex 'v' has no half-edges"),
    "empty-half-edge-id": (lambda: RibbonGraph.build({"v": [""]}, []),
                           RibbonStructureError, "bad half-edge id ''"),
    "three-element-edge": (lambda: RibbonGraph.build({"v": ["a", "b", "c"]}, [["a", "b", "c"]]),
                           RibbonStructureError, "edge ['a', 'b', 'c'] is not a pair"),
    "iso-of-a-disconnected-graph": (
        lambda: is_isomorphic(RibbonGraph.build(*TWO_LOOPS), lambda_afbg().graph),
        DisconnectedInput, "isomorphism testing requires connected graphs"),
    "code-with-a-missing-degree": (lambda: canonical_code(lambda_afbg().graph, {"u": 2}),
                                   MissingDegree, "vertex 'w' has no degree"),
    "iso-with-a-missing-degree": (
        lambda: is_isomorphic(lambda_afbg().graph, lambda_afbg().graph, {"u": 2, "w": 2}, {"w": 2}),
        MissingDegree, "vertex 'u' has no degree"),
    "code-with-degrees-a-list": (lambda: canonical_code(lambda_afbg().graph, [2, 2]), MissingDegree,
                                 "degrees must map each vertex to a degree, got list"),
    "rotation-a-string": (
        lambda: RibbonGraph.build({"u": "hx", "w": "ab"}, [["h", "a"], ["x", "b"]]),
        RibbonStructureError, "vertex 'u' needs a string id and a list of half-edges"),
    "rotations-a-list": (lambda: RibbonGraph.build([("u", ["h", "x"])], [["h", "x"]]),
                         RibbonStructureError, "rotations must be a dict and edges a list"),
    "edges-none": (lambda: RibbonGraph.build({"u": ["h", "x"]}, None),
                   RibbonStructureError, "rotations must be a dict and edges a list"),
    "vertex-id-an-int": (
        lambda: RibbonGraph.build({1: ["h"], "a": ["x"]}, [["h", "x"]]),
        RibbonStructureError, "vertex 1 needs a string id and a list of half-edges"),
    "edge-a-string": (lambda: RibbonGraph.build({"u": ["h", "x"]}, ["hx"]),
                      RibbonStructureError, "edge 'hx' is not a pair"),
    "edge-half-edge-unhashable": (lambda: RibbonGraph.build({"v": ["a", "b"]}, [["a", ["x"]]]),
                                  OrbitMismatch, "edge uses unattached half-edge ['x']"),
    "half-edge-a-long-list": (  # a value is quoted up to 60 characters
        lambda: RibbonGraph.build({"v": [[*range(100)]]}, []), RibbonStructureError,
        "bad half-edge id [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(FbgaError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_the_empty_graph_has_the_empty_code():
    assert canonical_code(RibbonGraph.build({}, [])) == ()
