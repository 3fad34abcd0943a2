from itertools import permutations, product
from random import Random

import pytest

from fbga.afbg import Afbg
from fbga.covering import cover_finite
from fbga.errors import (
    DisconnectedInput,
    DuplicateHalfEdge,
    FixedPointPairing,
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
    random_cut,
    random_ribbon_graph,
    shuffled_copy,
    small_degree_pairs,
)
from oracles import reference_connected, reference_faces, reference_orbits, reference_root_keys


def lambda_graph():
    return RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])


def loop_graph():
    return RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])


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
    g = lambda_graph()
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
        lambda_graph().valency("nope")


def test_faces_of_lambda():
    g = lambda_graph()
    assert g.face_perimeters() == [2, 2]
    # Euler characteristic V - E + F of the underlying surface is even
    assert (len(g.vertices) - g.num_edges() + len(g.faces())) % 2 == 0


def test_faces_of_loop():
    # one loop at one vertex: two faces of perimeter one
    assert loop_graph().face_perimeters() == [1, 1]


def test_loop_not_bipartite_double_edge_is():
    assert not loop_graph().is_bipartite()
    assert lambda_graph().is_bipartite()


@pytest.mark.parametrize("seed", range(8))
def test_euler_characteristic_parity(seed):
    rng = Random(seed)
    g = random_ribbon_graph(rng, rng.randint(1, 8))
    chi = len(g.vertices) - g.num_edges() + len(g.faces())
    assert chi % 2 == 0
    assert chi <= 2
    assert sum(g.face_perimeters()) == len(g.half_edges)


def test_canonical_code_invariant_under_relabeling():
    rng = Random(5)
    for _ in range(30):
        g = random_ribbon_graph(rng, rng.randint(1, 7))
        code = canonical_code(g)
        g2, _ = shuffled_copy(rng, g)
        assert canonical_code(g2) == code


def test_canonical_code_degree_aware():
    g = lambda_graph()
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
    for h in g.half_edges:
        assert g2.pairing[phi[h]] == phi[g.pairing[h]]
        assert g2.rotation[phi[h]] == phi[g.rotation[h]]


def test_is_isomorphic_distinguishes_loop_from_edge():
    edge = RibbonGraph.build({"v": ["a"], "w": ["b"]}, [["a", "b"]])
    assert is_isomorphic(loop_graph(), edge) is None


def brute_force_iso(g1, g2, d1=None, d2=None):
    """Exhaustive bijection scan; only viable for tiny graphs.  Degrees are
    compared iff both ``d1`` and ``d2`` are given."""
    hs1, hs2 = list(g1.half_edges), list(g2.half_edges)
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
    assert sorted(phi) == list(g1.half_edges) and sorted(phi.values()) == list(g2.half_edges)
    for h in g1.half_edges:
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
            cover = cover_finite(a, random_cut(rng, base), r).cover
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


def two_phase_word(graph, root):
    """The rooted word built in two passes: label by BFS, then emit."""
    rinv = graph.rotation_inverse()
    label = {root: 0}
    order = [root]
    for h in order:
        for m in (graph.pairing[h], graph.rotation[h], rinv[h]):
            if m not in label:
                label[m] = len(order)
                order.append(m)
    return tuple((label[graph.pairing[h]], label[graph.rotation[h]], label[rinv[h]])
                 for h in order)


def test_rooted_word_stops_exactly_when_it_exceeds_the_bound():
    for g in connected_graphs_up_to(3):
        rinv = g.rotation_inverse()
        for root in g.half_edges:
            word = two_phase_word(g, root)
            assert _rooted_word(g, root, rinv, None)[0] == word
            for other in g.half_edges:
                bound = two_phase_word(g, other)
                found = _rooted_word(g, root, rinv, None, bound)
                assert (found is None) == (word > bound)
                assert found is None or found[0] == word

