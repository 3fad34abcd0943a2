import time
from itertools import product

import pytest

from fbga.covering import cover_finite
from fbga.errors import FbgaError, InputError, InvalidCut, UnboundedPath
from fbga.gentle import (
    GentlePresentation,
    augmented_vertex_set,
    gentle_cover,
    maximal_paths,
    repetitive_window,
    ribbon_graph_of_gentle,
    r_fold_trivial_extension,
    trivial_extension,
)
from fbga.afbg import Afbg, rep_finite_report
from fbga.presentation import build_presentation, dimension
from fbga.ribbon import is_isomorphic
from generators import aprime, connected_graphs_up_to, kronecker, lambda_afbg
from oracles import commutation_walks, cut_algebra, presentation_isomorphism


def test_build_validation():
    with pytest.raises(InputError):
        GentlePresentation.build(["1", "1"], [], [])
    with pytest.raises(InputError):
        GentlePresentation.build(["1"], [("a", "1", "9")], [])
    with pytest.raises(InputError):
        GentlePresentation.build(["1"], [("a", "1", "1")], [("a", "zz")])


def gentle_problems(vertices, arrows, zero_relations) -> list[str]:
    """The problems that ``GentlePresentation.build`` names when it refuses
    a quiver that is not gentle."""
    with pytest.raises(InputError) as exc:
        GentlePresentation.build(vertices, arrows, zero_relations)
    prefix, _, problems = str(exc.value).partition(": ")
    assert prefix == "not a gentle presentation"
    return problems.split("; ")


def test_validate_gentle_flags_overfull_vertex():
    problems = gentle_problems(
        ["1", "2"],
        [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")], [])
    assert any("3 arrows start" in s for s in problems)


def test_validate_gentle_flags_unmatched_successors():
    # two composable successors of a, no relation choosing between them
    problems = gentle_problems(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")], [])
    assert any("several nonzero successors" in s for s in problems)


def test_validate_gentle_flags_two_zero_successors():
    # b*a and c*a both vanish: a has two forbidden successors
    problems = gentle_problems(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")], [("b", "a"), ("c", "a")])
    assert "arrow a: several zero successors ['b', 'c']" in problems


def test_validate_gentle_flags_two_zero_predecessors():
    # c*a and c*b both vanish: c has two forbidden predecessors
    problems = gentle_problems(
        ["1", "2", "3", "4"],
        [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")], [("c", "a"), ("c", "b")])
    assert "arrow c: several zero predecessors ['a', 'b']" in problems


def test_validate_gentle_flags_noncomposable_relation():
    problems = gentle_problems(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "1", "3")], [("b", "a")])
    assert any("not composable" in s for s in problems)


def test_maximal_paths_examples():
    assert maximal_paths(kronecker()) == [("x",), ("y",)]
    assert maximal_paths(aprime()) == [("x",), ("y",)]


def test_maximal_paths_chain():
    p = GentlePresentation.build(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [])
    assert maximal_paths(p) == [("a", "b")]


def test_relation_free_cycle_is_unbounded():
    p = GentlePresentation.build(["1"], [("a", "1", "1")], [])  # gentle: built
    with pytest.raises(UnboundedPath):
        maximal_paths(p)


def test_cycle_with_relation_is_fine():
    p = GentlePresentation.build(["1"], [("a", "1", "1")], [("a", "a")])
    assert maximal_paths(p) == [("a",)]


def test_isolated_vertex_gets_two_trivial_paths():
    p = GentlePresentation.build(
        ["1", "2", "3"], [("x", "1", "2")], [])
    rotations, occurrences = augmented_vertex_set(p)
    assert rotations == {"p:x": ["p:x#0", "p:x#1"], "t:1": ["t:1#0"], "t:2": ["t:2#0"],
                         "u:3": ["u:3#0"], "t:3": ["t:3#0"]}
    assert occurrences == {"1": ["p:x#0", "t:1#0"], "2": ["p:x#1", "t:2#0"],
                           "3": ["u:3#0", "t:3#0"]}


def test_the_field_gives_the_one_edge_graph_with_two_leaves():
    """k is gentle, and its trivial extension k[x]/(x^2) is the one edge
    between two leaves, both of degree 1."""
    a, _ = ribbon_graph_of_gentle(GentlePresentation.build(["1"], [], []))
    g = a.graph
    assert g.num_edges() == 1 and len(g.vertices) == 2
    assert sorted(a.degrees.values()) == [1, 1]
    assert dimension(a) == 2


def test_paths_are_named_by_their_first_arrow():
    """Joined arrow names would name both paths below ``p:a|b``."""
    p = GentlePresentation.build(
        ["1", "2", "3", "4", "5"], [("a", "1", "2"), ("b", "2", "3"), ("a|b", "4", "5")], [])
    assert maximal_paths(p) == [("a", "b"), ("a|b",)]
    a, _ = ribbon_graph_of_gentle(p)
    g = a.graph
    assert {v: g.valency(v) for v in g.vertices if v.startswith("p:")} == {"p:a": 3, "p:a|b": 2}
    assert g.num_edges() == 5
    assert dimension(a) == 18


def test_half_edge_ids_do_not_grow_with_the_path():
    """The relation-free line with 1,000 vertices is one path of 1,000
    visits plus 1,000 trivial paths."""
    n = 1000
    p = GentlePresentation.build(
        [str(i) for i in range(n)], [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)], [])
    a, _ = ribbon_graph_of_gentle(p)
    assert dimension(a) == 1_001_000
    assert max(map(len, a.graph.attach)) <= 8


def test_every_quiver_vertex_covered_twice():
    for p in (kronecker(), aprime()):
        _, occurrences = augmented_vertex_set(p)
        assert all(len(occ) == 2 for occ in occurrences.values())


def test_trivial_extensions_coincide():
    """Both gentle algebras have the double-edge graph as trivial extension."""
    lam = build_presentation(lambda_afbg())
    for p in (kronecker(), aprime()):
        te = trivial_extension(p)
        assert dimension(te.afbg) == 8
        assert presentation_isomorphism(te, lam) is not None


def test_induced_cuts_differ():
    """Same graph, different induced cut: the 2-sheet covers are the
    covers of the double edge along its two distinct cutting sets."""
    lam = lambda_afbg()
    d1_cover = cover_finite(lam, {"u": "hp", "w": "ihp"}, 2)
    d2_cover = cover_finite(lam, {"u": "hp", "w": "ih"}, 2)
    k_cover = gentle_cover(kronecker(), 2)
    a_cover = gentle_cover(aprime(), 2)
    assert is_isomorphic(k_cover.graph, d1_cover.graph,
                         k_cover.degrees, d1_cover.degrees) is not None
    assert is_isomorphic(a_cover.graph, d2_cover.graph,
                         a_cover.degrees, d2_cover.degrees) is not None
    assert is_isomorphic(k_cover.graph, a_cover.graph,
                         k_cover.degrees, a_cover.degrees) is None


def _adjacency(pres):
    return sorted((source, target) for _, source, target in pres.arrows())


def test_two_sheet_quivers_golden():
    pk = r_fold_trivial_extension(kronecker(), 2)
    pa = r_fold_trivial_extension(aprime(), 2)
    for p in (pk, pa):
        assert len(p.quiver_vertices()) == 4
        assert len(p.arrows()) == 8
        assert dimension(p.afbg) == 16
    # doubled oriented 4-cycle: each vertex has one out-neighbour, hit twice
    adj_k = _adjacency(pk)
    out_k = {}
    for s, t in adj_k:
        out_k.setdefault(s, []).append(t)
    assert all(len(ts) == 2 and len(set(ts)) == 1 for ts in out_k.values())
    # two interleaved 4-cycles: each vertex has two distinct out-neighbours
    adj_a = _adjacency(pa)
    out_a = {}
    for s, t in adj_a:
        out_a.setdefault(s, []).append(t)
    assert all(len(ts) == 2 and len(set(ts)) == 2 for ts in out_a.values())
    assert presentation_isomorphism(pk, pa) is None


def test_path_algebra_of_two_vertices_one_arrow():
    """Single arrow 1 -> 2: the extension is the two-edge path graph."""
    p = GentlePresentation.build(["1", "2"], [("a", "1", "2")], [])
    a, _ = ribbon_graph_of_gentle(p)
    g = a.graph
    assert len(g.vertices) == 3
    assert g.num_edges() == 2
    assert sorted(g.valency(v) for v in g.vertices) == [1, 1, 2]
    assert dimension(a) == 6
    rep = rep_finite_report(a)
    assert rep["finite_type"] and rep["tree_edges"] == 2
    assert rep["exceptional_multiplicity"] == 1


def test_linear_a3_with_and_without_relation():
    with_rel = GentlePresentation.build(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [("b", "a")])
    a, _ = ribbon_graph_of_gentle(with_rel)
    assert a.graph.num_edges() == 3
    assert sorted(a.graph.valency(v) for v in a.graph.vertices) == [1, 1, 2, 2]
    assert dimension(a) == 10

    without = GentlePresentation.build(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [])
    a2, _ = ribbon_graph_of_gentle(without)
    # one long path plus three trivial paths: a 3-leaf star
    assert sorted(a2.graph.valency(v) for v in a2.graph.vertices) == [1, 1, 1, 3]
    assert dimension(a2) == 12


def test_r_fold_dimension_scales():
    for r in (1, 2, 3, 4):
        assert dimension(r_fold_trivial_extension(kronecker(), r).afbg) == 8 * r


def test_repetitive_window_counts():
    bp = repetitive_window(kronecker(), 0, 2)
    assert len(bp.quiver_vertices()) == 6
    assert len(bp.arrows()) == 12
    assert sum(target is None for _, _, target in bp.arrows()) == 2
    assert len(bp.commutations) == 5
    assert len(bp.zero_relations()) == 10


def test_repetitive_window_agrees_with_itself_shifted():
    """Windows [0,1] and [5,6] present the same bordered quiver up to
    the sheet shift."""
    lo = repetitive_window(kronecker(), 0, 1)
    hi = repetitive_window(kronecker(), 5, 6)

    def strip(name, a, b):
        return name.replace(f"@{a}", "@x").replace(f"@{b}", "@y")

    lo_arrows = sorted(strip(n, 0, 1) for n, _, _ in lo.arrows())
    hi_arrows = sorted(strip(n, 5, 6) for n, _, _ in hi.arrows())
    assert lo_arrows == hi_arrows
    assert len(lo.commutations) == len(hi.commutations)
    assert len(lo.zero_relations()) == len(hi.zero_relations())


def test_repetitive_window_is_the_cover_presentation_cut_at_the_border():
    """The window [0, r-1] and the r-fold trivial extension come from the
    same builder: they agree except where the cover's rotation wraps."""
    for p in (kronecker(), aprime()):
        win = repetitive_window(p, 0, 1)
        cov = r_fold_trivial_extension(p, 2)
        assert win.afbg == ribbon_graph_of_gentle(p)[0]
        assert win.window.lo == 0 and win.window.hi == 1
        assert cov.window is None and cov.graph is cov.afbg.graph and win.graph is win.window
        win_arrows, cov_arrows = win.arrows(), cov.arrows()
        assert [n for n, _, _ in win_arrows] == [n for n, _, _ in cov_arrows]
        assert None not in {target for _, _, target in cov_arrows}
        dangling = [row for row in win_arrows if row[2] is None]
        assert set(win_arrows) - set(dangling) < set(cov_arrows)
        assert len(dangling) == len(win.afbg.graph.vertices)
        assert set(commutation_walks(win)) < set(commutation_walks(cov))
        assert set(win.zero_relations()) < set(cov.zero_relations())
        assert sorted(win.quiver_vertices()) == sorted(cov.quiver_vertices())


def test_line_quiver_with_8000_vertices_takes_linear_time():
    """The gentleness check, the maximal paths and the augmented paths read
    one per-vertex arrow index instead of scanning every arrow per arrow."""
    n = 8000
    t0 = time.monotonic()
    p = GentlePresentation.build(
        [str(i) for i in range(n)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)],
        [(f"a{i + 1}", f"a{i}") for i in range(n - 2)])
    pres = trivial_extension(p)
    assert time.monotonic() - t0 < 3.0
    assert dimension(pres.afbg) == 4 * n - 2


def test_cut_algebras_of_graphs_with_up_to_3_edges_come_back():
    """Schroll's cut algebra of a Brauer graph G with multiplicities 1 and a
    cut c is gentle, and its r-fold trivial extension is the r-sheeted
    cover of G along c."""
    pairs = 0
    for g in connected_graphs_up_to(3):
        degrees = {v: g.valency(v) for v in g.vertices}
        base = Afbg.build(g, degrees)
        for chosen in product(*(g.stars[v] for v in g.vertices)):
            cut = dict(zip(g.vertices, chosen))
            algebra = cut_algebra(g, cut)
            for r in (1, 2, 3):
                got = gentle_cover(algebra, r)
                want = cover_finite(base, cut, r)
                assert is_isomorphic(got.graph, want.graph, got.degrees, want.degrees) is not None
            pairs += 1
    assert pairs == 143


CHAIN = (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
# input checks that no other test reaches, each with its one-line message
REFUSALS = {
    "bad-vertex-id": (lambda: GentlePresentation.build([""], [], []),
                      InputError, "bad quiver vertex id ''"),
    "bad-arrow-id": (lambda: GentlePresentation.build(["1"], [("", "1", "1")], []),
                     InputError, "bad arrow id ''"),
    "arrow-row-of-two": (lambda: GentlePresentation.build(["1"], [("a", "1")], []),
                         InputError, "bad arrow id ('a', '1')"),
    "arrow-endpoint-unhashable": (
        lambda: GentlePresentation.build(["1"], [("a", ["1"], "1")], []),
        InputError, "arrow 'a' has unknown endpoint"),
    "relation-row-of-one": (lambda: GentlePresentation.build(*CHAIN, [("a",)]),
                            InputError, "relation references unknown arrow ('a',)"),
    "relation-arrow-unhashable": (lambda: GentlePresentation.build(*CHAIN, [(["a"], "a")]),
                                  InputError, "relation references unknown arrow ['a']"),
    "arrow-id-a-long-list": (  # a value is quoted up to 60 characters
        lambda: GentlePresentation.build(["1"], [([*range(100)], "1", "1")], []), InputError,
        "bad arrow id [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1"),
    "duplicate-arrow": (lambda: GentlePresentation.build(["1", "2"], [("a", "1", "2")] * 2, []),
                        InputError, "duplicate arrow 'a'"),
    "relation-listed-twice": (
        lambda: GentlePresentation.build(*CHAIN, [("b", "a")] * 2),
        InputError, "not a gentle presentation: relation b*a listed twice"),
    "two-nonzero-predecessors": (
        lambda: GentlePresentation.build(
            ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "4", "2"), ("c", "2", "3")], []),
        InputError, "not a gentle presentation: arrow c: several nonzero predecessors ['a', 'b']"),
    "arrows-none": (lambda: GentlePresentation.build(["1"], None, []),
                    InputError, "vertices, arrows and zero relations must be lists"),
    "relations-none": (lambda: GentlePresentation.build(*CHAIN, None),
                       InputError, "vertices, arrows and zero relations must be lists"),
    "vertices-a-string": (lambda: GentlePresentation.build("12", [("a", "1", "2")], []),
                          InputError, "vertices, arrows and zero relations must be lists"),
    "window-bound-true": (lambda: repetitive_window(kronecker(), True, 1),
                          InvalidCut, "window bounds must be integers, got True:1"),
    "window-bound-float": (lambda: repetitive_window(kronecker(), 0, 1.0),
                           InvalidCut, "window bounds must be integers, got 0:1.0"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(FbgaError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
