from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest

from fbga.afbg import (
    Afbg,
    _violations,
    is_admissible,
    nakayama_permutation,
    reduced_form,
    rep_finite_report,
)
from fbga.errors import DisconnectedInput, FbgaError, MissingDegree, NotAdmissible
from fbga.ribbon import RibbonGraph, is_isomorphic
from fbga.fileio import parse_ribbon
from generators import (
    brauer_degrees,
    disjoint_union,
    lambda_afbg,
    random_fractional_afbg,
    random_ribbon_graph,
    small_degree_pairs,
)
from oracles import nakayama_orbit_sizes, reference_violations

DATA = Path(__file__).resolve().parent.parent / "data"


def loop(d):
    g = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    return g, {"v": d}


def single_edge(d1, d2):
    g = RibbonGraph.build({"u": ["a"], "w": ["b"]}, [["a", "b"]])
    return g, {"u": d1, "w": d2}


def test_nakayama_shift():
    g = lambda_afbg().graph
    nu = nakayama_permutation(g, {"u": 1, "w": 1})
    assert nu == {"h": "hp", "hp": "h", "ih": "ihp", "ihp": "ih"}
    assert nakayama_permutation(g, {"u": 2, "w": 2}) == {
        h: h for h in g.attach}


def test_missing_and_bad_degrees():
    g = lambda_afbg().graph
    with pytest.raises(MissingDegree):
        nakayama_permutation(g, {"u": 2})
    with pytest.raises(MissingDegree):
        nakayama_permutation(g, {"u": 2, "w": 0})
    with pytest.raises(MissingDegree):
        nakayama_permutation(g, {"u": 2, "w": Fraction(3, 2)})
    with pytest.raises(MissingDegree):
        nakayama_permutation(g, {"u": 2, "w": True})


def test_loop_degree_one_violates_both_ways():
    g, d = loop(1)
    a, violations = is_admissible(g, d)
    assert a is None and violations
    assert {v.condition for v in violations} == {"orbit_meets_pairing"}
    with pytest.raises(NotAdmissible):
        Afbg.build(g, d)


def test_loop_degree_two_admissible():
    g, d = loop(2)
    a, violations = is_admissible(g, d)
    assert a is not None and violations == []
    assert a.multiplicity("v") == 1
    assert a.is_brauer_graph()


def test_half_multiplicity_example():
    # double edge with degree 1 at both vertices: admissible, m = 1/2
    g = lambda_afbg().graph
    a = Afbg.build(g, {"u": 1, "w": 1})
    assert a.multiplicities() == {"u": Fraction(1, 2), "w": Fraction(1, 2)}
    assert not a.is_brauer_graph()
    assert a.nakayama_order() == 2
    assert nakayama_orbit_sizes(a) == [2, 2]


def test_pairing_compat_violation():
    # degree 1 at u only: nakayama swaps the star at u but fixes w's star
    g = lambda_afbg().graph
    _, violations = is_admissible(g, {"u": 1, "w": 2})
    assert violations
    assert "pairing_compat" in {v.condition for v in violations}


def test_brauer_iff_nakayama_identity():
    rng = Random(3)
    for _ in range(25):
        g = random_ribbon_graph(rng, rng.randint(1, 6))
        a = Afbg.build(g, brauer_degrees(rng, g))
        assert a.is_brauer_graph()
        assert a.nakayama_order() == 1
        assert all(a.nakayama[h] == h for h in g.attach)


def test_reduced_form_is_identity_on_brauer_graphs():
    g = lambda_afbg().graph
    a = Afbg.build(g, {"u": 2, "w": 2})
    red = reduced_form(a)
    assert is_isomorphic(red.graph, g, red.degrees, a.degrees) is not None


def test_reduced_form_of_half_multiplicity():
    a = Afbg.build(lambda_afbg().graph, {"u": 1, "w": 1})
    red = reduced_form(a)
    assert red.graph.num_edges() == 1
    assert red.multiplicities() == {"u": 1, "w": 1}
    assert red.is_brauer_graph()


@pytest.mark.parametrize("seed", range(10))
def test_reduced_form_properties(seed):
    """Reduced forms of fractional algebras are Brauer graphs, idempotently."""
    rng = Random(seed)
    a = random_fractional_afbg(rng, rng.randint(1, 3))
    assert not a.is_brauer_graph()
    g = a.graph
    red = reduced_form(a)
    assert red.is_brauer_graph()
    # valency drops to gcd(degree, valency)
    for v in g.vertices:
        assert red.graph.valency(v) == gcd(a.degrees[v], g.valency(v))
    again = reduced_form(red)
    assert is_isomorphic(again.graph, red.graph, again.degrees, red.degrees) is not None


def test_rep_finite_star_tree():
    # star with 3 edges, exceptional multiplicity 2 at the center
    g = RibbonGraph.build(
        {"c": ["a", "b", "c"], "x": ["ia"], "y": ["ib"], "z": ["ic"]},
        [["a", "ia"], ["b", "ib"], ["c", "ic"]])
    a = Afbg.build(g, {"c": 6, "x": 1, "y": 1, "z": 1})
    rep = rep_finite_report(a)
    assert rep["finite_type"]
    assert rep["tree_edges"] == 3
    assert rep["exceptional_multiplicity"] == 2
    assert list(rep) == ["finite_type", "tree_edges", "exceptional_multiplicity", "candidate_order"]


def test_rep_infinite_double_edge():
    a = Afbg.build(lambda_afbg().graph, {"u": 2, "w": 2})
    rep = rep_finite_report(a)
    assert not rep["finite_type"]
    assert rep["finite_type_reason"] == "reduced form is not a tree"


def test_rep_infinite_two_exceptional():
    g, d = single_edge(3, 3)
    rep = rep_finite_report(Afbg.build(g, d))
    assert not rep["finite_type"]
    assert "2 vertices of multiplicity" in rep["finite_type_reason"]


def violation_cases() -> list:
    """Every pair with at most 3 edges and degrees 1..4, the empty graph,
    the inadmissible sample, and random unions with degrees 1..12."""
    rng = Random(29)
    unions = []
    for _ in range(60):
        g = disjoint_union([random_ribbon_graph(rng, rng.randint(1, 6))
                            for _ in range(rng.randint(1, 3))])
        unions.append((g, {v: rng.randint(1, 12) for v in g.vertices}))
    sample = parse_ribbon((DATA / "inadmissible.rg").read_text())
    return small_degree_pairs() + [(RibbonGraph.build({}, []), {}), sample] + unions


def test_violations_equal_the_sorted_walk_in_order():
    """Condition (b) checked per star lists the same violations, in the
    same order, as the walk over sorted half-edges and orbits."""
    cases = violation_cases()
    conditions = set()
    for g, d in cases:
        nu = nakayama_permutation(g, d)
        found = _violations(g, d, nu)
        assert found == reference_violations(g, nu)
        conditions.add(frozenset(v.condition for v in found))
    assert len(cases) == 1104 + 2 + 60
    assert conditions >= {frozenset(), frozenset({"pairing_compat", "orbit_meets_pairing"}),
                          frozenset({"pairing_compat"}), frozenset({"orbit_meets_pairing"})}


TWO_EDGES = RibbonGraph.build({v: [v] for v in "xyzw"}, [["x", "y"], ["z", "w"]])
# input checks that no other test reaches, each with its one-line message
REFUSALS = {
    "rep-finite-of-a-disconnected-graph": (
        lambda: rep_finite_report(Afbg.build(TWO_EDGES, dict.fromkeys("xyzw", 1))),
        DisconnectedInput, "rep_finite_report requires a connected graph"),
    "degrees-a-list": (lambda: Afbg.build(TWO_EDGES, [1, 1, 1, 1]),
                       MissingDegree, "degrees must map each vertex to a degree, got list"),
    "admissibility-of-degrees-none": (lambda: is_admissible(TWO_EDGES, None),
                                      MissingDegree, "degrees must map each vertex to a degree, "
                                      "got NoneType"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(FbgaError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
