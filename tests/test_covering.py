from random import Random

import pytest

from fbga.afbg import Afbg, reduced_form
from fbga.covering import (
    cover_finite,
    cover_window,
    ordering_from_cut,
    quotient_by_nakayama_power,
    smallest_cut,
)
from fbga.errors import (
    CoverNotAdmissible,
    FbgaError,
    InvalidCut,
    NonDivisorPower,
    NotABrauerGraph,
    NotAdmissible,
)
from fbga.fileio import afbg_to_dict
from fbga.presentation import dimension
from fbga.ribbon import RibbonGraph, is_isomorphic
from generators import (
    brauer_degrees,
    cover_compatible_degrees,
    lambda_afbg,
    random_cut,
    random_fractional_afbg,
    random_ribbon_graph,
    small_degree_pairs,
)
from oracles import nakayama_orbit_sizes, reference_quotient, verify_covering


D1 = {"u": "hp", "w": "ihp"}
D2 = {"u": "hp", "w": "ih"}


def test_validate_cut_errors():
    g = lambda_afbg().graph
    with pytest.raises(InvalidCut):
        ordering_from_cut(g, {"u": "hp"})
    with pytest.raises(InvalidCut):
        ordering_from_cut(g, {"u": "hp", "w": "h"})  # h is attached at u
    ordering_from_cut(g, D1)


def test_ordering_puts_cut_last():
    g = lambda_afbg().graph
    ordering = ordering_from_cut(g, D1)
    assert ordering["u"] == ("h", "hp")
    assert ordering["u"][-1] == D1["u"]
    ordering2 = ordering_from_cut(g, {"u": "h", "w": "ih"})
    assert ordering2["u"] == ("hp", "h")


def test_smallest_cut():
    g = lambda_afbg().graph
    assert smallest_cut(g) == {"u": "h", "w": "ih"}


def test_double_edge_two_sheets_golden():
    a = lambda_afbg()
    cover = cover_finite(a, D1, 2)
    g = cover.graph
    assert g.stars["u"] == ("h@0", "hp@0", "h@1", "hp@1")
    assert g.num_edges() == 4
    ok, reason = verify_covering(cover, a)
    assert ok, reason
    assert nakayama_orbit_sizes(cover) == [2, 2, 2, 2]
    red = reduced_form(cover)
    assert is_isomorphic(red.graph, a.graph, red.degrees, a.degrees) is not None


def test_one_sheet_cover_is_the_base():
    a = lambda_afbg()
    cover = cover_finite(a, D1, 1)
    assert is_isomorphic(cover.graph, a.graph, cover.degrees, a.degrees) is not None


def test_cover_needs_brauer_base():
    g = lambda_afbg().graph
    frac = Afbg.build(g, {"u": 1, "w": 1})
    with pytest.raises(NotABrauerGraph):
        cover_finite(frac, D1, 2)


def test_cover_rejects_bad_sheet_count():
    for r in (0, True, False):
        with pytest.raises(InvalidCut, match=f"sheet count must be a positive integer, got {r!r}"):
            cover_finite(lambda_afbg(), D1, r)


def test_incongruent_multiplicities_fail():
    g = RibbonGraph.build({"u": ["a"], "w": ["b"]}, [["a", "b"]])
    base = Afbg.build(g, {"u": 1, "w": 2})  # multiplicities 1 and 2
    with pytest.raises(CoverNotAdmissible):
        cover_finite(base, {"u": "a", "w": "b"}, 2)
    # congruent mod 3 they are not either
    with pytest.raises(CoverNotAdmissible):
        cover_finite(base, {"u": "a", "w": "b"}, 3)
    # but r = 1 always works
    cover_finite(base, {"u": "a", "w": "b"}, 1)


@pytest.mark.parametrize("seed,r", [(s, r) for s in range(6) for r in (1, 2, 3, 5)])
def test_cover_roundtrip_properties(seed, r):
    rng = Random(1000 * seed + r)
    g = random_ribbon_graph(rng, rng.randint(1, 6))
    base = Afbg.build(g, cover_compatible_degrees(rng, g, r))
    cut = random_cut(rng, g)
    cover = cover_finite(base, cut, r)
    ok, reason = verify_covering(cover, base)
    assert ok, reason
    assert len(cover.graph.attach) == r * len(g.attach)
    assert dimension(cover) == r * dimension(base)
    assert set(nakayama_orbit_sizes(cover)) == {r}
    red = reduced_form(cover)
    assert is_isomorphic(red.graph, g, red.degrees, base.degrees) is not None


def test_window_matches_cover_away_from_border():
    a = lambda_afbg()
    r = 3
    win = cover_window(a, D1, 0, r - 1)
    cov = cover_finite(a, D1, r).graph
    assert win.attach == cov.attach
    assert win.pairing == dict(cov.pairing)
    for h in win.rotation:
        assert win.rotation[h] == cov.rotation[h]
    no_successor = set(win.attach) - set(win.rotation)
    no_predecessor = set(win.attach) - set(win.rotation.values())
    assert len(no_successor) == len(no_predecessor) == len(cov.vertices)
    # the window's rotation leaves it exactly at the top sheet's cut
    assert all(h.endswith(f"@{r - 1}") and cov.rotation[h].endswith("@0") for h in no_successor)


def test_window_stars_are_the_maximal_chains_of_its_rotation():
    """A window's stored stars are its columns: each vertex's maximal
    chain of the partial rotation, in rotation order."""
    rng = Random(17)
    cases = [(lambda_afbg(), D1, 0, 2), (lambda_afbg(), D2, -1, 1), (lambda_afbg(), D1, 4, 4)]
    for _ in range(6):
        g = random_ribbon_graph(rng, rng.randint(1, 5))
        lo = rng.randint(-3, 3)
        cases.append((Afbg.build(g, brauer_degrees(rng, g)), random_cut(rng, g),
                      lo, lo + rng.randint(0, 3)))
    for base, cut, lo, hi in cases:
        win = cover_window(base, cut, lo, hi)
        chains = {}
        for h in set(win.attach) - set(win.rotation.values()):
            chain = [h]
            while chain[-1] in win.rotation:
                chain.append(win.rotation[chain[-1]])
            chains[win.attach[h]] = tuple(chain)
        assert win.stars == chains
        assert sum(map(len, chains.values())) == len(win.attach)


def test_window_rejects_empty_range():
    with pytest.raises(InvalidCut):
        cover_window(lambda_afbg(), D1, 2, 1)


def test_window_negative_sheets_allowed():
    win = cover_window(lambda_afbg(), D1, -1, 1)
    assert "h@-1" in win.attach
    assert win.lo == -1 and win.hi == 1


def test_quotient_power_one_is_reduced_form():
    g = lambda_afbg().graph
    a = Afbg.build(g, {"u": 1, "w": 1})
    q = quotient_by_nakayama_power(a, 1)
    red = reduced_form(a)
    assert is_isomorphic(q.graph, red.graph, q.degrees, red.degrees) is not None


def test_quotient_by_full_order_is_identity():
    g = lambda_afbg().graph
    a = Afbg.build(g, {"u": 1, "w": 1})
    q = quotient_by_nakayama_power(a, a.nakayama_order())
    assert is_isomorphic(q.graph, g, q.degrees, a.degrees) is not None


def test_quotient_rejects_non_divisor():
    a = lambda_afbg()  # nakayama order 1
    for k in (2, True, False):
        with pytest.raises(NonDivisorPower, match=f"power {k!r} must be a positive divisor"):
            quotient_by_nakayama_power(a, k)


def test_quotient_tower_on_cover():
    """Quotienting an r-cover by nakayama^k (k | r) lands between cover
    and base: by the full order it returns the cover, by 1 the base."""
    rng = Random(77)
    g = random_ribbon_graph(rng, 3)
    base = Afbg.build(g, cover_compatible_degrees(rng, g, 4))
    cover = cover_finite(base, random_cut(rng, g), 4)
    q1 = quotient_by_nakayama_power(cover, 1)
    assert is_isomorphic(q1.graph, g, q1.degrees, base.degrees) is not None
    q4 = quotient_by_nakayama_power(cover, 4)
    assert is_isomorphic(q4.graph, cover.graph, q4.degrees, cover.degrees) is not None


def test_quotients_match_the_stepped_out_orbits():
    """reduced_form and every quotient by a dividing Nakayama power equal,
    in every listed name, the quotient by the orbits of the power stepped
    out one Nakayama step at a time: on random fractional algebras, covers
    with r = 2, 3, 4, 6, every admissible pair on at most 3 edges with
    degrees up to 4, and the lambda graph with degree 1, whose two parallel
    edges are glued into one."""
    glued = Afbg.build(lambda_afbg().graph, {"u": 1, "w": 1})
    assert reduced_form(glued).graph.edge_pairs() == [("h", "ih")]
    rng = Random(1901)
    algebras = [glued] + [random_fractional_afbg(rng, n) for n in range(1, 9)]
    for r in (2, 3, 4, 6):
        g = random_ribbon_graph(rng, 3)
        base = Afbg.build(g, cover_compatible_degrees(rng, g, r))
        algebras.append(cover_finite(base, random_cut(rng, g), r))
    for g, d in small_degree_pairs(3, 4):
        try:
            algebras.append(Afbg.build(g, d))
        except NotAdmissible:
            pass
    assert len(algebras) > 100
    quotients = 0
    for a in algebras:
        assert afbg_to_dict(reduced_form(a)) == afbg_to_dict(reference_quotient(a, 1))
        order = a.nakayama_order()
        for k in (k for k in range(1, order + 1) if order % k == 0):
            assert (afbg_to_dict(quotient_by_nakayama_power(a, k))
                    == afbg_to_dict(reference_quotient(a, k)))
            quotients += 1
    assert quotients > len(algebras)


HALF = Afbg.build(RibbonGraph.build({"u": ["h", "hp"], "w": ["ih", "ihp"]},
                                    [["h", "ih"], ["hp", "ihp"]]), {"u": 1, "w": 1})
# input checks that no other test reaches, each with its one-line message
REFUSALS = {
    "window-of-a-fractional-base": (lambda: cover_window(HALF, {"u": "h", "w": "ih"}, 0, 1),
                                    NotABrauerGraph, "window base needs integral multiplicities"),
    **{f"window-bound-{name}": (lambda lo=lo: cover_window(lambda_afbg(), D1, lo, 2), InvalidCut,
                                f"window bounds must be integers, got {lo!r}:2")
       for name, lo in (("true", True), ("float", 1.5), ("none", None), ("str", "0"))},
    "window-top-bound-true": (lambda: cover_window(lambda_afbg(), D1, 0, True), InvalidCut,
                              "window bounds must be integers, got 0:True"),
    "cut-value-unhashable": (lambda: cover_finite(lambda_afbg(), {"u": ["x"], "w": "ihp"}, 2),
                             InvalidCut, "cut half-edge ['x'] is not attached at 'u'"),
    "cut-none": (lambda: cover_finite(lambda_afbg(), None, 2), InvalidCut,
                 "cut must map each vertex to a half-edge, got NoneType"),
    "window-cut-a-list": (lambda: cover_window(lambda_afbg(), ["hp", "ihp"], 0, 1), InvalidCut,
                          "cut must map each vertex to a half-edge, got list"),
    "cut-keys-of-mixed-types": (
        lambda: cover_finite(lambda_afbg(), {**D1, 5: "x", "z": "y"}, 2), InvalidCut,
        "cut must pick one half-edge per vertex (missing [], extra [5, 'z'])"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(FbgaError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
