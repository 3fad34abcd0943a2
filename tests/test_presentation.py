import json
import time
from pathlib import Path
from random import Random

import pytest

from fbga.afbg import Afbg
from fbga.covering import cover_finite, smallest_cut
from fbga.errors import InvariantError, SizeLimitExceeded
from fbga.fileio import loewy_json, parse_gentle, parse_loewy
from fbga.gentle import repetitive_window
from fbga.presentation import (
    WALK_BUDGET,
    arrow_name,
    basis,
    build_presentation,
    cut_walks,
    dimension,
    oracle_dimension,
    render_text,
    walk_texts,
)
from fbga.reconstruct import loewy_labels
from fbga.ribbon import RibbonGraph
from generators import (
    brauer_degrees,
    lambda_afbg,
    presentation_cases,
    random_afbg,
    random_fractional_afbg,
    random_ribbon_graph,
    shuffled_copy,
)
from oracles import (
    commutation_walks,
    nakayama_on_presentation,
    presentation_isomorphism,
    product_str,
    reference_basis,
    reference_commutations,
    special_cycles,
    step_walk,
    walk,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def test_arrows_follow_rotation():
    p = build_presentation(lambda_afbg())
    assert set(p.quiver_vertices) == {"h~ih", "hp~ihp"}
    a = p.arrows[arrow_name("h")]
    assert a.source == "h~ih" and a.target == "hp~ihp"
    assert sum(a.source == "h~ih" for a in p.arrows.values()) == 2
    assert sum(a.target == "h~ih" for a in p.arrows.values()) == 2


def test_golden_double_edge_relations():
    """The known four-arrow presentation with six relations."""
    p = build_presentation(lambda_afbg())
    assert set(commutation_walks(p)) == {
        (("a_h", "a_hp"), ("a_ih", "a_ihp")),
        (("a_hp", "a_h"), ("a_ihp", "a_ih")),
    }
    assert set(p.zero_relations) == {
        ("a_h", "a_ihp"),
        ("a_hp", "a_ih"),
        ("a_ih", "a_hp"),
        ("a_ihp", "a_h"),
    }
    assert dimension(p.afbg) == 8


def test_walk_application_order():
    a = lambda_afbg()
    assert walk(a, "h", 2) == ("a_h", "a_hp")
    assert product_str(walk(a, "h", 2)) == "a_hp*a_h"


def dipole(n):
    g = RibbonGraph.build({"u": [f"x{i}" for i in range(n)],
                           "w": [f"y{i}" for i in reversed(range(n))]},
                          [[f"x{i}", f"y{i}"] for i in range(n)])
    return Afbg.build(g, {"u": 3 * n, "w": n})


def bouquet(n):
    g = RibbonGraph.build({"v": [f"h{i}" for i in range(2 * n)]},
                          [[f"h{i}", f"h{i + n}"] for i in range(n)])
    return Afbg.build(g, {"v": 2 * n})


def closed_graphs():
    rng = Random(53)
    out = [random_afbg(rng, rng.randint(1, 6)) for _ in range(12)]
    for r in (2, 3, 4):
        g = random_ribbon_graph(rng, rng.randint(1, 4))
        base = Afbg.build(g, brauer_degrees(rng, g, max_mult=1))
        out.append(cover_finite(base, smallest_cut(g), r).cover)
    out += [dipole(n) for n in (1, 2, 5)] + [bouquet(n) for n in (1, 2, 5)]
    return out


def test_walks_match_the_step_loop_on_closed_graphs():
    """Every walk that ``cut_walks`` cuts from a star's arrow names, from
    each start and of each length up to three turns round the star and
    one arrow past, is the walk stepped out one rotation at a time."""
    for a in closed_graphs():
        g = a.graph
        for star in g.stars.values():
            val = len(star)
            walks = [(i, n) for i in range(val) for n in range(3 * val + 2)]
            texts = cut_walks([arrow_name(h) for h in star], " ", walks)
            assert texts == [" ".join(map(arrow_name, step_walk(g.rotation, star[i], n)))
                             for i, n in walks]


@pytest.mark.parametrize("window", [(0, 2), (-1, 3), (0, 12)])
@pytest.mark.parametrize("name", ["aprime", "kronecker"])
def test_walks_match_the_step_loop_on_windows(name, window):
    """A window keeps the commutation of an edge exactly when both full
    walks stay inside their columns, and its walk texts, in either
    direction, are those walks stepped out one rotation at a time."""
    pres = repetitive_window(parse_gentle((DATA / f"{name}.gentle").read_text()), *window)
    win, degrees = pres.window, pres.afbg.degrees
    walks = {}  # start half-edge -> the arrow names of its stepped walk
    want = []
    ran_off = 0
    for x, y in sorted((x, y) for x, y in win.pairing.items() if x < y):
        wx, wy = (step_walk(win.rotation, h, degrees[win.attach[h]]) for h in (x, y))
        if wx is None or wy is None:
            ran_off += 1
            continue
        walks[x], walks[y] = (tuple(map(arrow_name, w)) for w in (wx, wy))
        want.append(((x, len(wx)), (y, len(wy))))
    assert ran_off > 0 and want
    assert pres.commutations == tuple(want)
    assert walk_texts(pres, arrow_name, " ") == {h: " ".join(w) for h, w in walks.items()}
    assert walk_texts(pres, arrow_name, "*", reverse=True) == {
        h: product_str(w) for h, w in walks.items()}


def test_walk_budget_refuses_before_building_walks():
    a = Afbg.build(lambda_afbg().graph, {"u": 10**18, "w": 10**18})
    t0 = time.monotonic()
    for build in (build_presentation, loewy_json, basis):
        with pytest.raises(SizeLimitExceeded, match="walk budget"):
            build(a)
    assert time.monotonic() - t0 < 1.0
    below = Afbg.build(lambda_afbg().graph, {"u": 10**6, "w": 10**6})
    assert dimension(below) < WALK_BUDGET
    row = parse_loewy(loewy_json(below)).rows[0]
    assert len(row.strands[0]) == 10**6 - 1


def test_relation_counts():
    rng = Random(7)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(1, 5))
        p = build_presentation(a)
        assert len(p.arrows) == len(a.graph.attach)
        assert len(p.commutations) == a.graph.num_edges()
        assert len(p.zero_relations) == len(a.graph.attach)


def test_commutation_walks_share_endpoints():
    rng = Random(19)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(1, 5))
        p = build_presentation(a)
        for wx, wy in commutation_walks(p):
            assert p.arrows[wx[0]].source == p.arrows[wy[0]].source
            assert p.arrows[wx[-1]].target == p.arrows[wy[-1]].target


def test_zero_relations_are_composable():
    rng = Random(29)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(1, 5))
        p = build_presentation(a)
        for later, earlier in p.zero_relations:
            assert p.arrows[earlier].target == p.arrows[later].source


def test_special_cycles_have_valency_length():
    a = lambda_afbg()
    cycles = special_cycles(a)
    assert cycles["a_h"] == ("a_h", "a_hp")
    assert all(len(c) == 2 for c in cycles.values())


def test_basis_counts_match_dimension():
    rng = Random(31)
    brauer = [random_afbg(rng, rng.randint(1, 5)) for _ in range(8)]
    fractional = [random_fractional_afbg(rng, rng.randint(1, 3)) for _ in range(8)]
    assert not any(a.is_brauer_graph() for a in fractional)
    for a in brauer + fractional:
        b = basis(a)
        assert len(b) == dimension(a)
        kinds = [x.kind for x in b]
        assert kinds.count("idempotent") == a.graph.num_edges()
        assert kinds.count("socle") == a.graph.num_edges()


def test_basis_elements_are_walks_from_their_start():
    a = lambda_afbg()
    b = basis(a)
    assert [(x.kind, x.start, x.length) for x in b if x.edge == "h~ih"] == [
        ("idempotent", "", 0), ("socle", "h", 2), ("walk", "h", 1), ("walk", "ih", 1)]
    p = build_presentation(a)
    for x in b:
        arrows = walk(a, x.start, x.length)
        assert len(arrows) == x.length
        if arrows:
            assert p.arrows[arrows[0]].source == x.edge
    socles = {walk(a, x.start, x.length) for x in b if x.kind == "socle"}
    assert socles == {wx for wx, _ in commutation_walks(p)}


def test_inadmissible_afbg_fails_consistency_checks():
    """Bypassing Afbg.build with a nakayama map that breaks condition (a)
    makes the checks raise (they are not asserts, so -O keeps them)."""
    g = lambda_afbg().graph
    bad = Afbg(g, {"u": 1, "w": 2}, {"h": "hp", "hp": "h", "ih": "ih", "ihp": "ihp"})
    with pytest.raises(InvariantError):
        parse_loewy(loewy_json(bad))
    with pytest.raises(InvariantError):
        nakayama_on_presentation(bad)


def loewy_rows(a) -> dict:
    """The rows of the Loewy file of ``a``, as written, by label."""
    return {row["id"]: row for row in json.loads(loewy_json(a))}


def test_loewy_table_shapes():
    a = lambda_afbg()
    assert loewy_labels(a.graph) == {"hp~ihp": "s0", "h~ih": "s1"}
    row = loewy_rows(a)["s1"]
    assert row["strands"] == [["s0"], ["s0"]]
    assert row["socle"] == "s1"
    assert row["uniserial"] is False


def test_loewy_strand_lengths_and_socle():
    rng = Random(37)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(2, 6))
        rows = loewy_rows(a)
        g = a.graph
        name = loewy_labels(g)
        for x, y in g.edge_pairs():
            row = rows[name[g.edge_of(x)]]
            sx, sy = row["strands"]
            assert len(sx) == a.degrees[g.attach[x]] - 1
            assert len(sy) == a.degrees[g.attach[y]] - 1
            assert row["uniserial"] is (not (sx and sy))
            # socle is where the full walks land
            assert row["socle"] == name[g.edge_of(a.nakayama[x])]


def test_nakayama_identity_on_brauer_graphs():
    auto = nakayama_on_presentation(lambda_afbg())
    assert auto.vertex_orbit_sizes() == [1, 1]
    assert all(k == v for k, v in auto.arrow_map.items())


def test_nakayama_swaps_on_half_multiplicity():
    g = lambda_afbg().graph
    a = Afbg.build(g, {"u": 1, "w": 1})
    auto = nakayama_on_presentation(a)
    assert auto.vertex_orbit_sizes() == [2]
    assert auto.vertex_map["h~ih"] == "hp~ihp"


def test_oracle_matches_dimension_small_random():
    rng = Random(41)
    for _ in range(20):
        a = random_fractional_afbg(rng, rng.randint(1, 3))
        assert not a.is_brauer_graph()
        p = build_presentation(a)
        assert oracle_dimension(p) == dimension(a)


def test_oracle_size_guard():
    rng = Random(43)
    g = random_ribbon_graph(rng, 21)  # 42 half-edges
    a = Afbg.build(g, brauer_degrees(rng, g, max_mult=1))
    with pytest.raises(SizeLimitExceeded):
        oracle_dimension(build_presentation(a))


def test_presentation_isomorphism_on_relabeled_copy():
    rng = Random(47)
    a = random_afbg(rng, 4)
    g2, d2 = shuffled_copy(rng, a.graph, a.degrees)
    p1 = build_presentation(a)
    p2 = build_presentation(Afbg.build(g2, d2))
    assert presentation_isomorphism(p1, p2) is not None


def test_presentation_isomorphism_negative():
    a = lambda_afbg()
    b = Afbg.build(a.graph, {"u": 4, "w": 4})
    assert presentation_isomorphism(build_presentation(a),
                                    build_presentation(b)) is None


def test_render_text_mentions_everything():
    text = render_text(build_presentation(lambda_afbg()))
    assert "a_hp*a_h = a_ihp*a_ih" in text
    assert "a_h*a_ihp = 0" in text


def commutation_lines(text: str) -> list:
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("commutation relations ("))
    stop = next(i for i, l in enumerate(lines) if l.startswith("zero relations ("))
    return lines[start + 1:stop]


def test_render_text_cuts_each_walk_from_its_orbit():
    """Each commutation line is the product string of the walks of an edge
    whose walks both fit, stepped out, in pair order.  The arrows are
    listed in name order, which the renderers write as they are."""
    cases = presentation_cases()
    assert {p.window is None for p in cases} == {True, False}
    for p in cases:
        assert list(p.arrows) == sorted(p.arrows)
        assert commutation_walks(p) == reference_commutations(p)
        assert commutation_lines(render_text(p)) == [
            f"  {product_str(wx)} = {product_str(wy)}" for wx, wy in reference_commutations(p)]


def test_basis_is_emitted_in_sorted_order():
    """The basis comes out in the order the old sort gave: edge id (string
    order, not pair order), kind, start, length."""
    rng = Random(16)
    algebras = [p.afbg for p in presentation_cases() if p.window is None]
    algebras += [random_fractional_afbg(rng, rng.randint(1, 4)) for _ in range(6)]
    star = RibbonGraph.build({"c": ["a", "a!", "b"], "x": ["ab"], "y": ["z"], "w": ["c"]},
                             [["a", "z"], ["a!", "c"], ["b", "ab"]])
    algebras.append(Afbg.build(star, {"c": 6, "x": 2, "y": 1, "w": 1}))
    assert sorted(star.edge_ids()) != star.edge_ids()  # "a!~c" < "a~z", yet ("a", "z") < ("a!", "c")
    for a in algebras:
        assert basis(a) == reference_basis(a)
