import random
from itertools import product

import pytest

from fbga.afbg import Afbg, is_admissible, rep_finite_report
from fbga.cli import main
from fbga.covering import cover_finite
from fbga.fileio import dumps, graph_json
from fbga.gentle import GentlePresentation, gentle_cover, ribbon_graph_of_gentle
from fbga.invariants import COMPARED_FIELDS, compare, describe, fingerprint, special_orbit_sizes
from fbga.ribbon import RibbonGraph, is_isomorphic
from generators import (
    cover_compatible_degrees,
    lambda_afbg,
    linear_an,
    loop_afbg,
    random_afbg,
    random_cut,
    random_fractional_afbg,
    random_gentle_tree,
    random_ribbon_graph,
    shuffled_copy,
    small_degree_pairs,
)
from oracles import reference_fingerprint, reference_rep_finite_report


def test_fingerprint_fields_of_double_edge():
    fp = fingerprint(lambda_afbg())
    assert fp["num_vertices"] == 2
    assert fp["num_edges"] == 2
    assert fp["multiplicities"] == ["1", "1"]
    assert fp["bipartite"] is True
    assert fp["nakayama_order"] == 1
    assert fp["face_perimeters"] == [2, 2]


def test_commands_print_what_the_functions_return(tmp_path, capsys):
    """``fbga invariants`` and ``fbga compare`` print, as json, exactly the
    dicts that ``fingerprint`` and ``compare`` return, for a dozen seeded
    random algebras (every third one fractional), each compared with itself
    and with the next; every compared field is a key of the fingerprint."""
    rng = random.Random(37)
    paths, algebras = [], []
    for i in range(12):
        a = random_fractional_afbg(rng, rng.randint(1, 3)) if i % 3 == 0 \
            else random_afbg(rng, rng.randint(1, 6))
        paths.append(tmp_path / f"a{i}.rg")
        paths[-1].write_text(graph_json(a.graph, a.degrees))
        algebras.append(a)
    for i, a in enumerate(algebras):
        assert set(COMPARED_FIELDS) <= set(fingerprint(a))
        assert main(["invariants", str(paths[i]), "--format", "json"]) == 0
        assert capsys.readouterr().out == dumps(fingerprint(a))
        for j in (i, (i + 1) % len(algebras)):
            expected = compare(a, algebras[j])
            assert main(["compare", str(paths[i]), str(paths[j]), "--format", "json"]) \
                == (0 if expected["consistent"] else 3)
            assert capsys.readouterr().out == dumps(expected)


@pytest.mark.parametrize("seed", range(12))
def test_relabelling_invariance(seed):
    rng = random.Random(seed)
    a = random_afbg(rng, num_edges=rng.randint(1, 6))
    g2, deg2 = shuffled_copy(rng, a.graph, a.degrees)
    b = Afbg.build(g2, deg2)
    assert fingerprint(a) == fingerprint(b)
    assert compare(a, b)["consistent"]


@pytest.mark.parametrize("seed", range(8))
def test_relabelling_invariance_fractional(seed):
    rng = random.Random(1000 + seed)
    a = random_fractional_afbg(rng, rng.randint(1, 3))
    assert not a.is_brauer_graph()
    g2, deg2 = shuffled_copy(rng, a.graph, a.degrees)
    assert fingerprint(a) == fingerprint(Afbg.build(g2, deg2))


EDGE = RibbonGraph.build({"u": ["h"], "w": ["ih"]}, [["h", "ih"]])
LOOP_AND_EDGE = RibbonGraph.build({"u": ["a", "b", "h"], "w": ["ih"]}, [["a", "b"], ["h", "ih"]])
FIRST_DIFFERENCES = {
    "num_vertices": (lambda_afbg, loop_afbg, "2 vs 1"),
    "num_edges": (lambda_afbg, lambda: Afbg.build(EDGE, {"u": 1, "w": 1}), "2 vs 1"),
    "multiplicities": (lambda: lambda_afbg(1), lambda_afbg, "(1/2, 1/2) vs (1, 1)"),
    "bipartite": (lambda: Afbg.build(LOOP_AND_EDGE, {"u": 3, "w": 1}), lambda_afbg,
                  "False vs True"),
}


@pytest.mark.parametrize("field", FIRST_DIFFERENCES)
def test_compare_reports_first_differing_field(field):
    """Each pair first differs on ``field``, and ``describe`` renders it.
    Two compared fields have no case.  ``nakayama_order`` can never decide:
    it is the lcm of the multiplicities' denominators, and ``multiplicities``
    is compared first.  ``reduced`` decided no pair among 6,000 random
    algebras from ``generators`` (one in three fractional), whose first five
    fields fall into 520 classes."""
    left, right, text = FIRST_DIFFERENCES[field]
    cmp_ = compare(left(), right())
    assert not cmp_["consistent"]
    assert cmp_["distinguished_by"] == field
    assert describe(cmp_) == f"distinguished by {field}: {text}"


def test_compare_catches_multiplicity_change():
    cmp_ = compare(lambda_afbg(2), lambda_afbg(4))
    assert not cmp_["consistent"]
    assert cmp_["distinguished_by"] == "multiplicities"


def test_extras_do_not_decide_comparison():
    """The shape certificate deliberately ignores face data: these two
    algebras agree on every compared field yet are not isomorphic."""
    k = GentlePresentation.build(
        ["1", "2"], [("x", "1", "2"), ("y", "1", "2")], [])
    ap = GentlePresentation.build(
        ["1", "2"], [("x", "1", "2"), ("y", "2", "1")],
        [("y", "x"), ("x", "y")])
    a = gentle_cover(k, 2)
    b = gentle_cover(ap, 2)
    fa, fb = fingerprint(a), fingerprint(b)
    assert compare(a, b)["consistent"]
    assert fa["face_perimeters"] != fb["face_perimeters"]
    assert fa["special_orbits"] != fb["special_orbits"]
    assert is_isomorphic(a.graph, b.graph, a.degrees, b.degrees) is None


def kauer_move(a, h):
    """The Kauer move of the edge of ``h`` on a Brauer graph, or None.

    Each end e whose rotation successor s is not e itself slides to just
    after pairing(s), at that half-edge's vertex; multiplicities stay with
    their vertices.  The move is skipped when an end's successor is the
    edge's own other half-edge."""
    g = a.graph
    ends = (h, g.pairing[h])
    if any(g.rotation[e] == g.pairing[e] for e in ends):
        return None
    moving = [e for e in ends if g.rotation[e] != e]
    rotations = {v: [e for e in star if e not in moving] for v, star in g.stars.items()}
    for e in moving:
        anchor = g.pairing[g.rotation[e]]
        column = rotations[g.attach[anchor]]
        column.insert(column.index(anchor) + 1, e)
    degrees = {v: a.degrees[v] // len(star) * len(rotations[v]) for v, star in g.stars.items()}
    return Afbg.build(RibbonGraph.build(rotations, g.edge_pairs()), degrees)


def test_compare_is_consistent_under_kauer_moves():
    """A Kauer move is a derived equivalence of Brauer graph algebras
    (Kauer, Contemp. Math. 229, 1998), and the compared fields are derived
    invariants (Antipov, 2007): every move of the edges of the 8 smallest
    half-edges of 400 random Brauer graphs keeps ``compare`` consistent and
    the face perimeters equal.  A move that changes the multiset of
    valencies gives a non-isomorphic algebra, so the check is not vacuous."""
    rng = random.Random(9)
    moves = changed = 0
    for _ in range(400):
        a = random_afbg(rng, rng.randint(2, 6))
        valencies = sorted(map(len, a.graph.stars.values()))
        for h in sorted(a.graph.attach)[:8]:
            b = kauer_move(a, h)
            if b is None:
                continue
            moves += 1
            cmp_ = compare(a, b)
            assert b.graph.connected and cmp_["consistent"], describe(cmp_)
            assert b.graph.face_perimeters() == a.graph.face_perimeters()
            changed += sorted(map(len, b.graph.stars.values())) != valencies
    assert (moves, changed) == (2074, 864)


def test_compare_is_consistent_on_gentle_trees_and_linear_an():
    """A gentle algebra whose quiver is a tree with n vertices is derived
    equivalent to the path algebra of linear A_n (Assem and Happel, 1981),
    and derived equivalent algebras have derived equivalent trivial
    extensions (Rickard, 1989): on 200 seeded gentle trees, ``compare``
    of T(A) and T(kA_n) is consistent.  The control, T(kA_{n+1}), has one
    edge more; its graph is a tree too, so the first compared field that
    differs is the number of vertices, one more as well."""
    rng = random.Random(38)
    relations = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        tree = random_gentle_tree(rng, n)
        relations += len(tree.zero_relations)
        t = ribbon_graph_of_gentle(tree)[0]
        same = compare(t, ribbon_graph_of_gentle(linear_an(n))[0])
        assert same["consistent"], describe(same)
        longer = compare(t, ribbon_graph_of_gentle(linear_an(n + 1))[0])
        assert longer["distinguished_by"] == "num_vertices"
        assert longer["left"]["num_edges"] + 1 == longer["right"]["num_edges"] == n + 1
    assert relations == 212  # the trees are not all path algebras


def affine_a(orientation) -> GentlePresentation:
    """The path algebra of the n-cycle whose arrow i joins vertices i and
    i + 1 (mod n), pointing forward where ``orientation[i]`` is true.  With
    p arrows forward and q back, p, q >= 1, it is of type Ã_{p,q}: gentle,
    with no relations."""
    n = len(orientation)
    ends = [(str(i), str((i + 1) % n)) for i in range(n)]
    arrows = [(f"a{i}", *(e if forward else e[::-1]))
              for i, (e, forward) in enumerate(zip(ends, orientation))]
    return GentlePresentation.build([str(i) for i in range(n)], arrows, [])


def test_compare_is_consistent_on_affine_a_orientations():
    """Path algebras of the n-cycle with the same numbers {p, q} of arrows
    each way are derived equivalent (Assem and Skowroński, 1987), so their
    trivial extensions are too (Rickard, 1989): on every orientation of an
    n-cycle, n <= 8, with p, q >= 1, ``compare`` against the first
    orientation of its type is consistent and the face perimeters are
    equal.  They are [2p, 2q], so the check is not vacuous."""
    first, orientations = {}, 0
    for n in range(2, 9):
        for orientation in product((True, False), repeat=n):
            p = sum(orientation)
            if not 0 < p < n:
                continue
            orientations += 1
            t = ribbon_graph_of_gentle(affine_a(orientation))[0]
            ref = first.setdefault((min(p, n - p), max(p, n - p)), t)
            same = compare(t, ref)
            assert same["consistent"], describe(same)
            perimeters = t.graph.face_perimeters()
            assert perimeters == ref.graph.face_perimeters() == sorted([2 * p, 2 * (n - p)])
    assert (orientations, len(first)) == (494, 16)


def test_compare_misses_that_affine_a_13_and_a_22_differ():
    """A known incompleteness of ``compare``: T(Ã_{1,3}) and T(Ã_{2,2}) agree
    on every compared field, while their face perimeters differ."""
    a13, a22 = (ribbon_graph_of_gentle(affine_a(o))[0]
                for o in ((True, False, False, False), (True, True, False, False)))
    assert compare(a13, a22)["consistent"]
    assert (a13.graph.face_perimeters(), a22.graph.face_perimeters()) == ([2, 6], [4, 4])


def test_special_orbit_sizes_loop():
    assert special_orbit_sizes(loop_afbg(2)) == [1, 1]


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
            out.append(cover_finite(a, random_cut(rng, base), r))
    return out


@pytest.mark.parametrize("family", [exhaustive_pairs, fractional_covers, sheeted_covers])
def test_closed_forms_equal_the_built_reduced_form(family):
    """fingerprint and rep_finite_report read the reduced form off the
    Nakayama orbits; building the quotient gives the same answers."""
    for a in family():
        fp, ref = fingerprint(a), reference_fingerprint(a)
        assert fp == ref
        assert rep_finite_report(a) == reference_rep_finite_report(a)
