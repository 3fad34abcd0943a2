import json
from random import Random

import pytest

from fbga.afbg import Afbg
from fbga.errors import ParseError
from fbga.fileio import (
    afbg_to_dict,
    bordered_to_dict,
    cut_to_list,
    dot_of_graph,
    dot_of_presentation,
    dumps,
    loewy_to_list,
    parse_cut,
    parse_gentle,
    parse_loewy,
    parse_ribbon,
    presentation_to_dict,
    ribbon_to_dict,
)
from fbga.gentle import repetitive_window, GentlePresentation
from fbga.presentation import build_presentation
from fbga.reconstruct import reconstruct_afbg
from fbga.ribbon import RibbonGraph, is_isomorphic

LAMBDA_TEXT = json.dumps({
    "vertices": [
        {"id": "u", "rotation": ["h", "hp"], "degree": 2},
        {"id": "w", "rotation": ["ih", "ihp"], "degree": 2},
    ],
    "edges": [["h", "ih"], ["hp", "ihp"]],
})


def test_parse_ribbon_roundtrip():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    assert deg == {"u": 2, "w": 2}
    text2 = dumps(ribbon_to_dict(g, deg))
    g2, deg2 = parse_ribbon(text2)
    assert g2.stars == g.stars and deg2 == deg


def test_parse_ribbon_without_degrees():
    obj = json.loads(LAMBDA_TEXT)
    for row in obj["vertices"]:
        del row["degree"]
    g, deg = parse_ribbon(json.dumps(obj))
    assert deg is None


def test_parse_ribbon_partial_degrees_rejected():
    obj = json.loads(LAMBDA_TEXT)
    del obj["vertices"][0]["degree"]
    with pytest.raises(ParseError):
        parse_ribbon(json.dumps(obj))


def test_parse_ribbon_bad_json_and_missing_keys():
    with pytest.raises(ParseError):
        parse_ribbon("{nope")
    with pytest.raises(ParseError):
        parse_ribbon(json.dumps({"vertices": []}))


def test_cut_roundtrip_and_duplicate():
    cut = {"u": "hp", "w": "ih"}
    assert parse_cut(dumps(cut_to_list(cut))) == cut
    with pytest.raises(ParseError):
        parse_cut(json.dumps([{"vertex": "u", "half_edge": "h"},
                              {"vertex": "u", "half_edge": "hp"}]))


def test_parse_gentle():
    p = parse_gentle(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"id": "x", "from": "1", "to": "2"},
                   {"id": "y", "from": "2", "to": "1"}],
        "zero_relations": [["y", "x"], ["x", "y"]],
    }))
    assert set(p.arrows) == {"x", "y"}
    assert ("y", "x") in p.zero_relations
    with pytest.raises(ParseError):
        parse_gentle(json.dumps({"vertices": [], "arrows": [],
                                 "zero_relations": [["x"]]}))


def test_loewy_roundtrip_through_json():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    a = Afbg.build(g, deg)
    rows = loewy_to_list(a)
    data = parse_loewy(dumps(rows))
    rec = reconstruct_afbg(data)
    assert is_isomorphic(rec.afbg.graph, g, rec.afbg.degrees, deg) is not None


def test_parse_loewy_uniserial_is_optional():
    rows = [{"id": "s0", "strands": [["s1"], ["s1"]], "socle": "s0"},
            {"id": "s1", "strands": [["s0"], ["s0"]], "socle": "s1"}]
    data = parse_loewy(json.dumps(rows))
    assert data.rows[0].uniserial is False


def test_presentation_dict_shape():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    d = presentation_to_dict(build_presentation(Afbg.build(g, deg)))
    assert d["dimension"] == 8
    assert len(d["vertices"]) == 2
    assert len(d["arrows"]) == 4
    assert len(d["commutation_relations"]) == 2
    assert len(d["zero_relations"]) == 4
    assert "conventions" in d


def test_dot_outputs_mention_everything():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    dot = dot_of_graph(g, deg)
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"{v}"' in dot
    pres_dot = dot_of_presentation(build_presentation(Afbg.build(g, deg)))
    assert pres_dot.startswith("digraph")
    assert "->" in pres_dot


def test_bordered_dict_marks_dangling():
    p = GentlePresentation.build(
        ["1", "2"], [("x", "1", "2"), ("y", "1", "2")], [])
    b = repetitive_window(p, 0, 1)
    d = bordered_to_dict(b)
    assert d["window"] == [0, 1]
    assert len(d["dangling"]) > 0
    dot = dot_of_presentation(b)
    assert "boundary" in dot


def test_afbg_dict_keeps_degrees():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    d = afbg_to_dict(Afbg.build(g, deg))
    assert all("degree" in row for row in d["vertices"])


# characters that JSON escapes, plus non-ASCII text and a lone surrogate
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", "€", "😀", "\ud800", "a", "~"]


def random_text(rng: Random) -> str:
    return "".join(rng.choice(AWKWARD) for _ in range(rng.randrange(6)))


def random_json(rng: Random, depth: int = 0):
    """A random value of the types fbga emits, nested at most four deep."""
    kind = rng.randrange(8 if depth < 4 else 3)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 2**64 + 1, -(2**70), rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None, 1, 0])
    if kind in (3, 4):  # a list of strings is joined in one call; others recurse
        items = [random_text(rng) if kind == 3 else random_json(rng, depth + 1)
                 for _ in range(rng.randrange(5))]
        return tuple(items) if rng.random() < 0.3 else items
    if kind in (5, 6):
        return {random_text(rng) if kind == 5 else str(rng.randrange(10)): random_json(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return rng.choice([[], {}, ()])


def test_dumps_equals_json_dumps_with_indent():
    rng = Random(59)
    for _ in range(4000):
        obj = random_json(rng)
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"
    mixed = [True, 1, False, 0, None, "1", 2**65, [], {}, (), [[]], {"": {}}]
    assert dumps(mixed) == json.dumps(mixed, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1: "x"}, {"a": {None: 1}}, [{True: 1}], {(1,): 2}])
def test_dumps_rejects_non_string_keys(obj):
    with pytest.raises(TypeError):
        dumps(obj)
