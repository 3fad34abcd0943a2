import time
from pathlib import Path
from random import Random

import pytest

from fbga.afbg import Afbg
from fbga.covering import cover_finite, smallest_cut
from fbga.errors import InvariantError, SizeLimitExceeded
from fbga.fileio import parse_gentle
from fbga.gentle import repetitive_window
from fbga.presentation import (
    WALK_BUDGET,
    _orbit_index,
    _walk,
    arrow_name,
    basis,
    build_presentation,
    dimension,
    loewy_table,
    nakayama_on_presentation,
    oracle_dimension,
    product_str,
    render_text,
    walk,
)
from fbga.randgen import (
    brauer_degrees,
    random_admissible_degrees,
    random_afbg,
    random_ribbon_graph,
    shuffled_copy,
)
from fbga.ribbon import RibbonGraph
from oracles import presentation_isomorphism, special_cycles

DATA = Path(__file__).resolve().parent.parent / "data"


def lambda_afbg():
    g = RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])
    return Afbg.build(g, {"u": 2, "w": 2})


def test_arrows_follow_rotation():
    p = build_presentation(lambda_afbg())
    assert set(p.quiver_vertices) == {"h~ih", "hp~ihp"}
    a = p.arrow_of("h")
    assert a.source == "h~ih" and a.target == "hp~ihp"
    assert len(p.out_arrows("h~ih")) == 2
    assert len(p.in_arrows("h~ih")) == 2


def test_golden_double_edge_relations():
    """The known four-arrow presentation with six relations."""
    p = build_presentation(lambda_afbg())
    assert set(p.commutation_relations) == {
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


def step_walk(rotation: dict, half_edge: str, length: int):
    """The reference walk, one rotation step per arrow: half-edges
    ``half_edge``, ``rotation(half_edge)``, ... of a walk of ``length``
    arrows, or None when a partial rotation ends first (the last arrow may
    dangle)."""
    run = []
    h = half_edge
    for _ in range(length):
        if h is None:
            return None
        run.append(h)
        h = rotation.get(h)
    return run


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
    for a in closed_graphs():
        g = a.graph
        index = _orbit_index(g.rotation, g.attach, arrow_name)
        for h in g.half_edges:
            val = g.valency(g.attach[h])
            for length in range(3 * val + 2):
                want = tuple(map(arrow_name, step_walk(g.rotation, h, length)))
                assert walk(a, h, length) == want
                assert _walk(index, h, length) == want
    assert walk(a, "", 0) == ()


@pytest.mark.parametrize("window", [(0, 2), (-1, 3), (0, 12)])
@pytest.mark.parametrize("name", ["aprime", "kronecker"])
def test_walks_match_the_step_loop_on_windows(name, window):
    pres = repetitive_window(parse_gentle((DATA / f"{name}.gentle").read_text()), *window)
    win, base = pres.window, pres.afbg.graph
    index = _orbit_index(win.rotation, win.attach, arrow_name)
    ran_off = 0
    for h in win.half_edges:
        for length in range(3 * base.valency(win.attach[h]) + 2):
            run = step_walk(win.rotation, h, length)
            got = _walk(index, h, length)
            assert got == (None if run is None else tuple(map(arrow_name, run)))
            ran_off += got is None
    assert ran_off > 0


def test_walk_budget_refuses_before_building_walks():
    a = Afbg.build(lambda_afbg().graph, {"u": 10**18, "w": 10**18})
    t0 = time.monotonic()
    for build in (build_presentation, loewy_table, basis):
        with pytest.raises(SizeLimitExceeded, match="walk budget"):
            build(a)
    with pytest.raises(SizeLimitExceeded, match="walk budget"):
        walk(a, "h", 10**18)
    assert time.monotonic() - t0 < 1.0
    below = Afbg.build(lambda_afbg().graph, {"u": 10**6, "w": 10**6})
    assert dimension(below) < WALK_BUDGET
    assert len(loewy_table(below)["h~ih"].strands[0]) == 10**6 - 1


def test_relation_counts():
    rng = Random(7)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(1, 5))
        p = build_presentation(a)
        assert len(p.arrows) == len(a.graph.half_edges)
        assert len(p.commutation_relations) == a.graph.num_edges()
        assert len(p.zero_relations) == len(a.graph.half_edges)


def test_commutation_walks_share_endpoints():
    rng = Random(19)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(1, 5))
        p = build_presentation(a)
        for wx, wy in p.commutation_relations:
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
    for _ in range(15):
        g = random_ribbon_graph(rng, rng.randint(1, 5))
        degrees = random_admissible_degrees(rng, g) or brauer_degrees(rng, g)
        a = Afbg.build(g, degrees)
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
    assert socles == {wx for wx, _ in p.commutation_relations}


def test_inadmissible_afbg_fails_consistency_checks():
    """Bypassing Afbg.build with a nakayama map that breaks condition (a)
    makes the checks raise (they are not asserts, so -O keeps them)."""
    g = lambda_afbg().graph
    bad = Afbg(g, {"u": 1, "w": 2}, {"h": "hp", "hp": "h", "ih": "ih", "ihp": "ihp"})
    with pytest.raises(InvariantError):
        loewy_table(bad)
    with pytest.raises(InvariantError):
        nakayama_on_presentation(bad)


def test_loewy_table_shapes():
    a = lambda_afbg()
    table = loewy_table(a)
    row = table["h~ih"]
    assert row.strands == (("hp~ihp",), ("hp~ihp",))
    assert row.socle == "h~ih"
    assert not row.uniserial


def test_loewy_strand_lengths_and_socle():
    rng = Random(37)
    for _ in range(10):
        a = random_afbg(rng, rng.randint(2, 6))
        table = loewy_table(a)
        g = a.graph
        for x, y in g.edge_pairs():
            row = table[g.edge_of(x)]
            assert len(row.strands[0]) == a.degrees[g.attach[x]] - 1
            assert len(row.strands[1]) == a.degrees[g.attach[y]] - 1
            assert row.uniserial == (not (row.strands[0] and row.strands[1]))
            # socle is where the full walks land
            assert row.socle == g.edge_of(a.nakayama[x])


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
        g = random_ribbon_graph(rng, rng.randint(1, 4))
        degrees = random_admissible_degrees(rng, g, max_degree=4) or \
            brauer_degrees(rng, g, max_mult=2)
        a = Afbg.build(g, degrees)
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
