import random

import pytest

from fbga.afbg import Afbg
from fbga.errors import Ambiguous, Exceptional, InconsistentInput, InputError
from fbga.randgen import random_afbg
from fbga.reconstruct import (
    LoewyData,
    loewy_data_of,
    reconstruct_afbg,
    roundtrip_check,
)
from fbga.ribbon import RibbonGraph, is_isomorphic


def lambda_afbg():
    g = RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])
    return Afbg.build(g, {"u": 2, "w": 2})


def loop_afbg(d):
    g = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    return Afbg.build(g, {"v": d})


def single_edge_afbg(du, dw):
    g = RibbonGraph.build({"u": ["h"], "w": ["k"]}, [["h", "k"]])
    return Afbg.build(g, {"u": du, "w": dw})


# ---------------------------------------------------------------- validation

def test_build_rejects_duplicate_labels():
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), ()), True, "a"),
                         ("a", ((), ()), True, "a")])


def test_build_rejects_three_strands():
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), (), ()), True, "a")])


def test_build_rejects_unknown_labels():
    with pytest.raises(InputError):
        LoewyData.build([("a", (("zz",), ()), True, "a")])
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), ()), True, "zz")])


def test_build_rejects_uniserial_contradiction():
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", (("a",), ("a",)), True, "a")])
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", (("a",), ()), False, "a")])


def test_build_rejects_non_permutation_socles():
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", ((), ()), True, "a"),
                         ("b", ((), ()), True, "a")])


def test_build_pads_missing_strand():
    data = LoewyData.build([("a", (("a",),), True, "a")])
    assert data.rows[0].strands == (("a",), ())
    assert data.rows[0].uniserial is True


# ------------------------------------------------------------ reconstruction

def test_reconstruct_double_edge_unique():
    a = lambda_afbg()
    data, name = loewy_data_of(a)
    rec = reconstruct_afbg(data)
    assert rec.wirings_tried == 4
    assert is_isomorphic(rec.afbg.graph, a.graph,
                         rec.afbg.degrees, a.degrees) is not None
    assert sorted(rec.edge_labels.values()) == sorted(name.values())


def test_reconstruct_degenerate_loop_is_ambiguous():
    data, _ = loewy_data_of(loop_afbg(4))
    with pytest.raises(Ambiguous) as exc:
        reconstruct_afbg(data)
    assert exc.value.tie_classes == ["s0"]


def test_reconstruct_exceptional_pair_rejected():
    for a in (loop_afbg(2), single_edge_afbg(2, 2)):
        data, _ = loewy_data_of(a)
        with pytest.raises(Exceptional):
            reconstruct_afbg(data)


def test_cyclic_sequences_reject_impossible_walk():
    # the walk from side 0 of a needs b to carry a strand (b,), and it has none
    data = LoewyData.build([
        ("a", (("b",), ()), True, "b"),
        ("b", ((), ()), True, "a"),
    ])
    with pytest.raises(InconsistentInput, match="successor requirements do not match"):
        reconstruct_afbg(data)


def test_reconstruct_mismatched_requirements():
    data = LoewyData.build([
        ("a", (("b",), ()), True, "b"),
        ("b", ((), ()), True, "a"),
    ])
    with pytest.raises(InconsistentInput):
        reconstruct_afbg(data)


def test_single_loop_not_exceptional_when_degree_differs():
    """A loop of degree 4 shares nothing with the exceptional pair; it
    fails by ambiguity, not by the exceptional guard."""
    data, _ = loewy_data_of(loop_afbg(6))
    with pytest.raises(Ambiguous):
        reconstruct_afbg(data)


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_random_brauer(seed):
    rng = random.Random(seed)
    a = random_afbg(rng, num_edges=rng.randint(2, 5))
    try:
        assert roundtrip_check(a)
    except Ambiguous as exc:
        # ambiguity is only permitted when interchangeable sides exist
        data, _ = loewy_data_of(a)
        tied = {r.label for r in data.rows if r.strands[0] == r.strands[1]}
        assert exc.tie_classes
        assert set(exc.tie_classes) <= tied
    except Exceptional:
        assert a.graph.num_edges() == 1


def test_roundtrip_check_true_on_star():
    g = RibbonGraph.build(
        {"c": ["c1", "c2", "c3"], "x": ["x1"], "y": ["y1"], "z": ["z1"]},
        [["c1", "x1"], ["c2", "y1"], ["c3", "z1"]])
    a = Afbg.build(g, {"c": 3, "x": 1, "y": 1, "z": 1})
    assert roundtrip_check(a)
