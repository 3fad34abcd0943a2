import random
from fractions import Fraction

import pytest

from fbga.afbg import Afbg, is_admissible, rep_finite_report
from fbga.covering import cover_finite
from fbga.gentle import GentlePresentation, gentle_cover
from fbga.invariants import COMPARED_FIELDS, compare, fingerprint, special_orbit_sizes
from fbga.ribbon import RibbonGraph, is_isomorphic
from generators import (
    cover_compatible_degrees,
    random_afbg,
    random_cut,
    random_fractional_afbg,
    random_ribbon_graph,
    shuffled_copy,
    small_degree_pairs,
)
from oracles import reference_fingerprint, reference_rep_finite_report


def lambda_afbg(d=2):
    g = RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])
    return Afbg.build(g, {"u": d, "w": d})


def loop_afbg(d=2):
    g = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    return Afbg.build(g, {"v": d})


def test_fingerprint_fields_of_double_edge():
    fp = fingerprint(lambda_afbg())
    assert fp.num_vertices == 2
    assert fp.num_edges == 2
    assert fp.multiplicities == (Fraction(1), Fraction(1))
    assert fp.bipartite is True
    assert fp.nakayama_order == 1
    assert fp.face_perimeters == (2, 2)


def test_fingerprint_as_dict_round_trips_fields():
    d = fingerprint(lambda_afbg()).as_dict()
    assert set(COMPARED_FIELDS) <= set(d)


@pytest.mark.parametrize("seed", range(12))
def test_relabelling_invariance(seed):
    rng = random.Random(seed)
    a = random_afbg(rng, num_edges=rng.randint(1, 6))
    g2, deg2 = shuffled_copy(rng, a.graph, a.degrees)
    b = Afbg.build(g2, deg2)
    assert fingerprint(a) == fingerprint(b)
    assert compare(a, b).consistent


@pytest.mark.parametrize("seed", range(8))
def test_relabelling_invariance_fractional(seed):
    rng = random.Random(1000 + seed)
    a = random_fractional_afbg(rng, rng.randint(1, 3))
    assert not a.is_brauer_graph()
    g2, deg2 = shuffled_copy(rng, a.graph, a.degrees)
    assert fingerprint(a) == fingerprint(Afbg.build(g2, deg2))


def test_compare_reports_first_differing_field():
    cmp_ = compare(lambda_afbg(), loop_afbg())
    assert not cmp_.consistent
    assert cmp_.distinguished_by == "num_vertices"
    assert "num_vertices" in cmp_.describe()


def test_compare_catches_multiplicity_change():
    cmp_ = compare(lambda_afbg(2), lambda_afbg(4))
    assert not cmp_.consistent
    assert cmp_.distinguished_by == "multiplicities"


def test_extras_do_not_decide_comparison():
    """The shape certificate deliberately ignores face data: these two
    algebras agree on every compared field yet are not isomorphic."""
    k = GentlePresentation.build(
        ["1", "2"], [("x", "1", "2"), ("y", "1", "2")], [])
    ap = GentlePresentation.build(
        ["1", "2"], [("x", "1", "2"), ("y", "2", "1")],
        [("y", "x"), ("x", "y")])
    a = gentle_cover(k, 2).cover
    b = gentle_cover(ap, 2).cover
    fa, fb = fingerprint(a), fingerprint(b)
    assert compare(a, b).consistent
    assert fa.face_perimeters != fb.face_perimeters
    assert fa.special_orbits != fb.special_orbits
    assert is_isomorphic(a.graph, b.graph, a.degrees, b.degrees) is None


def test_special_orbit_sizes_loop():
    assert special_orbit_sizes(loop_afbg(2)) == (1, 1)


def exhaustive_pairs():
    """Every admissible pair on the connected graphs with at most 3 edges,
    degrees 1..4."""
    out = [a for a, _ in (is_admissible(g, d) for g, d in small_degree_pairs())
           if a is not None]
    assert len(out) == 269
    return out


def fractional_covers():
    rng = random.Random(17)
    return [random_fractional_afbg(rng, rng.randint(2, 7)) for _ in range(40)]


def sheeted_covers():
    """r-sheeted covers, r = 2..4, of random Brauer graphs whose
    multiplicities are 1 mod r, so every Nakayama orbit has r half-edges."""
    rng, out = random.Random(23), []
    for r in (2, 3, 4):
        for _ in range(10):
            base = random_ribbon_graph(rng, rng.randint(1, 5))
            a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
            out.append(cover_finite(a, random_cut(rng, base), r).cover)
    return out


@pytest.mark.parametrize("family", [exhaustive_pairs, fractional_covers, sheeted_covers])
def test_closed_forms_equal_the_built_reduced_form(family):
    """fingerprint and rep_finite_report read the reduced form off the
    Nakayama orbits; building the quotient gives the same answers."""
    for a in family():
        fp, ref = fingerprint(a), reference_fingerprint(a)
        assert fp == ref and fp.as_dict() == ref.as_dict()
        assert rep_finite_report(a) == reference_rep_finite_report(a)
