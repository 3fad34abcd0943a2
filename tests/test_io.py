import json
import re
from pathlib import Path
from random import Random

import pytest

from fbga import fileio
from fbga.afbg import Afbg
from fbga.covering import cover_finite
from fbga.errors import InconsistentInput, InputError, InvariantError, NotAdmissible, ParseError
from fbga.fileio import (
    afbg_to_dict,
    bordered_to_dict,
    dot_of_graph,
    dot_of_presentation,
    dumps,
    loewy_json,
    loewy_to_list,
    parse_cut,
    parse_gentle,
    parse_loewy,
    parse_ribbon,
    presentation_json,
    presentation_to_dict,
    ribbon_to_dict,
)
from fbga.gentle import repetitive_window, GentlePresentation
from fbga.presentation import build_presentation
from fbga.reconstruct import reconstruct_afbg
from fbga.ribbon import RibbonGraph, is_isomorphic
from generators import (
    cover_compatible_degrees,
    presentation_cases,
    random_afbg,
    random_cut,
    random_ribbon_graph,
)
from oracles import loewy_data_of, reference_presentation_dict

DATA = Path(__file__).resolve().parent.parent / "data"

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
    assert parse_cut(dumps([{"vertex": v, "half_edge": h} for v, h in cut.items()])) == cut
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
    flagged = [{**row, "uniserial": False} for row in rows]
    assert parse_loewy(json.dumps(rows)) == parse_loewy(json.dumps(flagged))


def test_parse_loewy_rejects_uniserial_contradiction():
    """The flag is derived, so a file that gives it wrongly, either way, is
    refused where it is read."""
    for strands, flag in (([["s0"], ["s0"]], True), ([["s0"], []], False)):
        rows = [{"id": "s0", "strands": strands, "uniserial": flag, "socle": "s0"}]
        with pytest.raises(InconsistentInput, match="uniserial flag contradicts the strands"):
            parse_loewy(json.dumps(rows))


def loewy_json_cases():
    """Algebras whose Loewy JSON is rendered both ways: the data/ samples,
    random Brauer graphs, r-sheeted covers, a star with 12 edges (so s10
    sorts before s2) and degree-1 leaves (empty strands), a loop, and a
    double edge whose strands wrap around its star 500 times."""
    cases = []
    for path in sorted(DATA.glob("*.rg")):
        graph, degrees = parse_ribbon(path.read_text())
        try:
            cases.append(Afbg.build(graph, degrees))
        except NotAdmissible:
            pass
    rng = Random(14)
    cases += [random_afbg(rng, rng.randint(1, 14)) for _ in range(40)]
    for r in (2, 3, 4):
        for _ in range(5):
            base = random_ribbon_graph(rng, rng.randint(1, 5))
            a = Afbg.build(base, cover_compatible_degrees(rng, base, r))
            cases.append(cover_finite(a, random_cut(rng, base), r).cover)
    star = RibbonGraph.build({"c": [f"h{i}" for i in range(12)],
                              **{f"l{i}": [f"t{i}"] for i in range(12)}},
                             [[f"h{i}", f"t{i}"] for i in range(12)])
    cases.append(Afbg.build(star, {"c": 12, **{f"l{i}": 1 for i in range(12)}}))
    loop = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    cases.append(Afbg.build(loop, {"v": 4}))
    double = RibbonGraph.build({"u": ["a", "b"], "w": ["c", "d"]}, [["a", "c"], ["b", "d"]])
    cases.append(Afbg.build(double, {"u": 1001, "w": 3}))
    return cases


def oracle_rows(a) -> list:
    """The rows of the stepped-out reference table, as a Loewy file lists
    them: a row is uniserial unless both of its strands are non-empty."""
    return [{"id": r.label, "strands": r.strands,
             "uniserial": not (r.strands[0] and r.strands[1]), "socle": r.socle}
            for r in loewy_data_of(a)[0].rows]


def test_loewy_json_equals_dumps_of_the_oracle_rows():
    cases = loewy_json_cases()
    assert any(a.graph.num_edges() >= 11 for a in cases)
    assert any(1 in a.degrees.values() for a in cases)
    for a in cases:
        assert loewy_json(a) == dumps(oracle_rows(a))
    assert loewy_json(Afbg.build(RibbonGraph.build({}, []), {})) == "[]\n"


def test_loewy_json_raises_the_oracle_table_errors(monkeypatch):
    """A forged algebra is refused with the error, and the message, of the
    stepped-out reference table and LoewyData.build; a forged label set
    with the label check of LoewyData.build."""
    graph, degrees = parse_ribbon(LAMBDA_TEXT)
    a = Afbg.build(graph, degrees)
    for nu, error in (({**a.nakayama, "h": "hp"}, InvariantError),
                      ({h: "h" for h in a.nakayama}, InconsistentInput)):
        forged = Afbg(graph, degrees, nu)
        with pytest.raises(error) as expected:
            loewy_data_of(forged)
        with pytest.raises(error, match=re.escape(str(expected.value))):
            loewy_json(forged)
    for labels in ({"h~ih": "s0", "hp~ihp": "s0"}, {"h~ih": "s0", "hp~ihp": "s~1"},
                   {"h~ih": "s0", "hp~ihp": ""}):
        monkeypatch.setattr(fileio, "loewy_labels", lambda g: labels)
        with pytest.raises(InputError, match="simple label"):
            loewy_json(a)


def test_presentation_dict_shape():
    g, deg = parse_ribbon(LAMBDA_TEXT)
    d = presentation_to_dict(build_presentation(Afbg.build(g, deg)))
    assert d["dimension"] == 8
    assert len(d["vertices"]) == 2
    assert len(d["arrows"]) == 4
    assert len(d["commutation_relations"]) == 2
    assert len(d["zero_relations"]) == 4
    assert "conventions" in d


def test_presentation_json_equals_dumps_of_its_dict():
    """The writer against its byte reference, the dict tree built with the
    walks stepped out (``tests/oracles.py``): on closed graphs and windows,
    walks that wrap their orbit hundreds of times, degree-1 walks and ids
    that JSON escapes."""
    cases = presentation_cases()
    assert {p.window is None for p in cases} == {True, False}
    assert any(max(a.degrees.values()) > 500 for a in (p.afbg for p in cases))
    for p in cases:
        assert presentation_json(p) == dumps(reference_presentation_dict(p))
    empty = build_presentation(Afbg.build(RibbonGraph.build({}, []), {}))
    assert presentation_json(empty) == dumps(reference_presentation_dict(empty))


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
