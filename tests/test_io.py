import json
import re
from pathlib import Path
from random import Random

import pytest

import tracemalloc

from fbga.afbg import Afbg, reduced_form
from fbga.covering import cover_finite, smallest_cut
from fbga.errors import (
    FbgaError,
    InconsistentInput,
    InputError,
    InvariantError,
    MathPreconditionError,
    MissingDegree,
    NotAdmissible,
    ParseError,
)
from fbga.fileio import (
    afbg_to_dict,
    bordered_to_dict,
    dot_of_graph,
    dot_of_presentation,
    dumps,
    graph_json,
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
from fbga.reconstruct import LoewyData, reconstruct_afbg
from fbga.ribbon import RibbonGraph, is_isomorphic
from generators import (
    cover_compatible_degrees,
    presentation_cases,
    random_afbg,
    random_cut,
    random_ribbon_graph,
)
from oracles import loewy_data_of, reference_presentation_dict, strand_labels

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
    with pytest.raises(MissingDegree) as exc:
        parse_ribbon(json.dumps(obj))
    assert (type(exc.value), str(exc.value)) == (MissingDegree, "vertex 'u' has no degree")


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
    with pytest.raises(InputError) as exc:
        parse_gentle(json.dumps({"vertices": [], "arrows": [],
                                 "zero_relations": [["x"]]}))
    assert (type(exc.value), str(exc.value)) == (InputError,
                                                 "relation references unknown arrow ['x']")


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


def row(label, strands=((), ()), socle=None) -> dict:
    return {"id": label, "strands": [list(s) for s in strands], "socle": socle or label}


NESTED = {"id": "a", "strands": [["a"]], "socle": "a"}
MALFORMED_LOEWY = {  # name: (table, error, message), the messages as first released
    "empty-entry": ([row("a"), row("b", (("a", ""), ()))],
                    InputError, "strand of 'b' mentions unknown label ''"),
    "entry-with-separator": ([row("a"), row("b"), row("c", (("a~b",), ()))],
                             InputError, "strand of 'c' mentions unknown label 'a~b'"),
    "entry-not-a-string": ([row("a"), {"id": "b", "strands": [["a", 3], []], "socle": "b"}],
                           ParseError, "loewy row 'b' strand: expected a list of strings, "
                                       "got ['a', 3]"),
    "object-in-a-strand": ([row("a"), {"id": "b", "strands": [[NESTED]], "socle": "b"}],
                           ParseError, "loewy row 'b' strand: expected a list of strings, "
                                       "got [{'id': 'a', 'strands': [['a']], 'socle': 'a'}]"),
    "unknown-strand-label": ([row("a"), row("b", (("a", "zz"), ("a",)))],
                             InputError, "strand of 'b' mentions unknown label 'zz'"),
    "unknown-socle": ([row("a"), row("b", (("a",), ()), "zz")],
                      InputError, "socle of 'b' is unknown label 'zz'"),
    "unknown-socle-before-strand": ([row("a", socle="zz"), row("b", (("yy",), ()))],
                                    InputError, "socle of 'a' is unknown label 'zz'"),
    "duplicate-label": ([row("a"), row("b"), row("a")],
                        InputError, "duplicate simple label 'a'"),
    "three-strands": ([row("a"), row("b", (("a",), ("a",), ()))],
                      InputError, "simple 'b' lists 3 strands (max 2)"),
    "socles-not-a-permutation": ([row("a", socle="b"), row("b")], InconsistentInput,
                                 "socles must permute the simples (each label exactly once)"),
    "uniserial-contradiction": ([row("a"), {**row("b", (("a",), ("a",))), "uniserial": True}],
                                InconsistentInput,
                                "simple 'b': uniserial flag contradicts the strands"),
    # a strand [""] joins to the text of the strand [], in a table whose sides match
    "empty-entry-alone-flagged": ([{**row("s0", (("",), ("s1",))), "uniserial": True},
                                   row("s1", (("s0",), ()))], InconsistentInput,
                                  "simple 's0': uniserial flag contradicts the strands"),
    "empty-entry-alone": ([row("s0", (("",), ("s1",))), row("s1", (("s0",), ()))],
                          InputError, "strand of 's0' mentions unknown label ''"),
    "empty-label": ([row("a"), row("", socle="a")], InputError, "bad simple label ''"),
    "label-with-separator": ([row("a~b")], InputError, "bad simple label 'a~b'"),
    "label-a-list": ([{**row("a"), "id": ["a"]}], InputError, "bad simple label ['a']"),
    "strands-a-string": ([{**row("a"), "strands": "a"}],
                         ParseError, "loewy row 'a' strands: expected a list, got 'a'"),
    "strand-a-string": ([{**row("a"), "strands": ["a"]}],
                        ParseError, "loewy row 'a' strand: expected a list of strings, got 'a'"),
    "not-a-list": (NESTED, ParseError, "loewy file: expected a list of rows"),
}


@pytest.mark.parametrize("table,error,message", MALFORMED_LOEWY.values(),
                         ids=MALFORMED_LOEWY.keys())
def test_malformed_loewy_tables_keep_their_messages(table, error, message):
    with pytest.raises(error) as caught:
        parse_loewy(json.dumps(table))
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_invalid_json_is_reported_before_any_row():
    for text, message in (
            ('[{"id": "a", "strands": 5, "socle": "a"}, {"id": ',
             "invalid JSON: Expecting value: line 1 column 50 (char 49)"),
            ('[{"id": "a", "strands": [["zz"]], "socle": "a"}] x',
             "invalid JSON: Extra data: line 1 column 50 (char 49)")):
        with pytest.raises(ParseError) as caught:
            parse_loewy(text)
        assert str(caught.value) == message


def test_parsed_strands_are_texts():
    rows = [row("a", (("b", "a"), ())), row("b", (("a",), ("a",)))]
    data = parse_loewy(json.dumps(rows))
    assert [r.strands for r in data.rows] == [("b~a", ""), ("a", "a")]
    assert data == LoewyData.build((r["id"], r["strands"], r["socle"]) for r in rows)


def test_reconstruct_peaks_below_three_times_the_table():
    """Strand entries are joined row by row as the file is decoded, so
    parsing and reconstructing a 200-edge table (1.3 MB) allocates less
    than three times the text at any moment."""
    a = random_afbg(Random(1), 200)
    text = loewy_json(a)
    assert len(text) > 10**6
    tracemalloc.start()
    try:
        rec = reconstruct_afbg(parse_loewy(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.afbg.graph.num_edges() == 200
    assert peak <= 3 * len(text), peak


def test_a_star_table_is_matched_within_its_own_size():
    """The 200 strands of a star wrap its hub once each (0.6 MB).  Only the
    supply keys of the side match copy strand text, so parsing and
    reconstructing allocate less than the text at any moment."""
    n = 200
    star = RibbonGraph.build({"c": [f"h{i}" for i in range(n)],
                              **{f"l{i}": [f"t{i}"] for i in range(n)}},
                             [[f"h{i}", f"t{i}"] for i in range(n)])
    text = loewy_json(Afbg.build(star, {"c": n, **{f"l{i}": 1 for i in range(n)}}))
    assert len(text) > 5 * 10**5
    tracemalloc.start()
    try:
        rec = reconstruct_afbg(parse_loewy(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.afbg.graph.num_edges() == n
    assert peak <= len(text), peak


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
            cases.append(cover_finite(a, random_cut(rng, base), r))
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
    return [{"id": r.label, "strands": [strand_labels(s) for s in r.strands],
             "uniserial": not (r.strands[0] and r.strands[1]), "socle": r.socle}
            for r in loewy_data_of(a)[0].rows]


def test_loewy_json_equals_dumps_of_the_oracle_rows():
    cases = loewy_json_cases()
    assert any(a.graph.num_edges() >= 11 for a in cases)
    assert any(1 in a.degrees.values() for a in cases)
    for a in cases:
        assert loewy_json(a) == dumps(oracle_rows(a))
    assert loewy_json(Afbg.build(RibbonGraph.build({}, []), {})) == "[]\n"


def test_loewy_json_raises_the_oracle_table_errors():
    """A forged algebra is refused with the error, and the message, of the
    stepped-out reference table and LoewyData.build."""
    graph, degrees = parse_ribbon(LAMBDA_TEXT)
    a = Afbg.build(graph, degrees)
    for nu, error in (({**a.nakayama, "h": "hp"}, InvariantError),
                      ({h: "h" for h in a.nakayama}, InconsistentInput)):
        forged = Afbg(graph, degrees, nu)
        with pytest.raises(error) as expected:
            loewy_data_of(forged)
        with pytest.raises(error, match=re.escape(str(expected.value))):
            loewy_json(forged)


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


# -- graph JSON ------------------------------------------------------------------

def graph_json_cases() -> list:
    """(graph, degrees, extra) as ``export``, ``reduce``, ``cover`` and
    ``reconstruct`` hand them to ``graph_json``: every data/ graph and
    every data/ Loewy table that each command accepts."""
    cases = []
    for path in sorted(DATA.glob("*.rg")):
        graph, degrees = parse_ribbon(path.read_text())
        cases.append((graph, degrees, None))
        try:
            a = Afbg.build(graph, degrees)
        except NotAdmissible:
            continue
        red = reduced_form(a)
        cases.append((red.graph, red.degrees, None))
        for r in (2, 3):
            try:
                cover = cover_finite(a, smallest_cut(graph), r)
            except MathPreconditionError:
                continue
            cases.append((cover.graph, cover.degrees, {"sheets": r}))
    for path in sorted(DATA.glob("*.loewy")):
        try:
            rec = reconstruct_afbg(parse_loewy(path.read_text()))
        except FbgaError:
            continue
        labels = {eid: rec.edge_labels[eid] for eid in sorted(rec.edge_labels)}
        cases.append((rec.afbg.graph, rec.afbg.degrees,
                      {"edge_labels": labels, "wirings_tried": rec.wirings_tried}))
    return cases


ESCAPED = RibbonGraph.build({'q"v': ['h"', "h\\"], "w\\": ["ω", "\ud800"]},
                            [['h"', "ω"], ["h\\", "\ud800"]])


@pytest.mark.parametrize("graph,degrees,extra", [
    *graph_json_cases(),
    (RibbonGraph.build({}, []), {}, None),
    (RibbonGraph.build({}, []), None, {"edge_labels": {}, "wirings_tried": 1}),
    (parse_ribbon(LAMBDA_TEXT)[0], None, None),
    (ESCAPED, {'q"v': 2, "w\\": 10**30}, {"edge_labels": {"(h\\,\ud800)": "ω\n"}}),
    (ESCAPED, None, {"sheets": 2, "edge_labels": {}}),
])
def test_graph_json_equals_dumps_of_its_dict(graph, degrees, extra):
    want = dumps({**ribbon_to_dict(graph, degrees), **(extra or {})})
    assert graph_json(graph, degrees, extra) == want


def test_graph_json_cases_cover_every_command():
    kinds = [tuple(extra or ()) for _, _, extra in graph_json_cases()]
    assert kinds.count(()) > len(list(DATA.glob("*.rg")))  # exports and reductions
    assert ("sheets",) in kinds and ("edge_labels", "wirings_tried") in kinds


# input checks that no other test reaches, each with its one-line message
REFUSALS = {
    "cut-not-a-list": (lambda: parse_cut('{"vertex": "u", "half_edge": "h"}'),
                       ParseError, "cut file: expected a list of {vertex, half_edge}"),
    "degree-a-long-list": (  # quoted up to 60 characters, as the readers quote a value
        lambda: parse_ribbon(LAMBDA_TEXT.replace('"degree": 2', f'"degree": {[*range(100)]}', 1)),
        MissingDegree, "degree of 'u' must be a positive integer, got "
                       "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(FbgaError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
