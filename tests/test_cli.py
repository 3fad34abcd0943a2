import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fbga.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_validate_lambda(capsys):
    code, out = run(capsys, "validate", DATA / "lambda.rg")
    assert code == 0
    assert "admissible: yes" in out
    assert "finite type: no" in out


def test_validate_half_multiplicity(capsys):
    code, out = run(capsys, "validate", DATA / "halfmult.rg")
    assert code == 0
    assert "u=1/2" in out
    assert "brauer graph: no" in out


def test_validate_inadmissible_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rg"
    bad.write_text(json.dumps({
        "vertices": [{"id": "v", "rotation": ["a", "b"], "degree": 1}],
        "edges": [["a", "b"]],
    }))
    code, out = run(capsys, "validate", bad)
    assert code == 2
    assert "admissible: no" in out


def test_validate_missing_file_exits_1(capsys):
    assert run(capsys, "validate", "no/such/file.rg")[0] == 1


def loop_of_degree(d):
    return {"vertices": [{"id": "v", "rotation": ["a", "b"], "degree": d}],
            "edges": [["a", "b"]]}


LOOP = loop_of_degree(2)
MALFORMED = {
    "graph-vertices-not-a-list": (["validate"], {"vertices": 5, "edges": []}),
    "graph-edges-not-a-list": (["validate"], {**LOOP, "edges": 5}),
    "graph-edge-not-a-list": (["validate"], {**LOOP, "edges": [5]}),
    "vertex-id-a-list": (["validate"], {"vertices": [{"id": ["v"], "rotation": ["a", "b"]}],
                                        "edges": [["a", "b"]]}),
    "vertex-id-repeated": (["validate"], {"vertices": [LOOP["vertices"][0]] * 2,
                                          "edges": [["a", "b"]]}),
    "rotation-a-string": (["validate"], {"vertices": [{"id": "v", "rotation": "ab"}],
                                         "edges": [["a", "b"]]}),
    "degree-a-bool": (["iso", "{input}"], loop_of_degree(True)),
    "degree-zero-iso": (["iso", "{input}"], loop_of_degree(0)),
    "degree-negative-iso": (["iso", "{input}"], loop_of_degree(-3)),
    "degree-zero-export": (["export"], loop_of_degree(0)),
    "degree-negative-export": (["export"], loop_of_degree(-3)),
    "gentle-vertices-not-a-list": (["gentle-trivext"], {"vertices": 5, "arrows": []}),
    "loewy-strands-not-a-list": (["reconstruct"], [{"id": "s", "strands": 5, "socle": "s"}]),
    "loewy-socle-a-list": (["reconstruct"], [{"id": "s", "strands": [], "socle": ["s"]}]),
    "not-utf8": (["validate"], b"\xff\xfe"),
    "nested-too-deep": (["validate"], b"[" * 100_000 + b"]" * 100_000),
    "out-unwritable": (["validate", "--out", "{tmp}/missing/out.txt"], LOOP),
}


@pytest.mark.parametrize("argv, content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_one_line_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    command, *rest = [a.format(input=path, tmp=tmp_path) for a in argv]
    assert main([command, str(path), *rest]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_present_text_and_json(tmp_path, capsys):
    code, out = run(capsys, "present", DATA / "lambda.rg")
    assert code == 0
    assert "dimension: 8" in out
    out_file = tmp_path / "pres.json"
    code, _ = run(capsys, "present", DATA / "lambda.rg",
                  "--format", "json", "--out", out_file)
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["dimension"] == 8
    assert len(obj["arrows"]) == 4


def test_present_requires_degrees(tmp_path, capsys):
    obj = json.loads((DATA / "lambda.rg").read_text())
    for row in obj["vertices"]:
        del row["degree"]
    path = tmp_path / "nodeg.rg"
    path.write_text(json.dumps(obj))
    assert run(capsys, "present", path)[0] == 1


def test_cover_with_cut_file(capsys):
    code, out = run(capsys, "cover", DATA / "lambda.rg", "--r", "3",
                    "--cut", DATA / "lambda_d1.cut")
    assert code == 0
    assert "sheets: 3" in out
    assert "edges: 6" in out


def test_cover_auto_cut_json(capsys):
    code, out = run(capsys, "cover", DATA / "lambda.rg", "--r", "2",
                    "--auto-cut", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["edges"]) == 4


def test_cover_needs_some_cut(capsys):
    assert run(capsys, "cover", DATA / "lambda.rg", "--r", "2")[0] == 2


def test_reduce_collapses_half_multiplicity(capsys):
    code, out = run(capsys, "reduce", DATA / "halfmult.rg", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 2
    assert len(obj["edges"]) == 1


def test_gentle_trivext_dimension(capsys):
    code, out = run(capsys, "gentle-trivext", DATA / "kronecker.gentle")
    assert code == 0
    assert "dimension: 8" in out
    code, out = run(capsys, "gentle-trivext", DATA / "aprime.gentle", "--r", "2")
    assert code == 0
    assert "dimension: 16" in out


def test_repetitive_window(capsys):
    code, out = run(capsys, "repetitive-window", DATA / "kronecker.gentle",
                    "--window", "0:2")
    assert code == 0
    assert "out of window" in out
    assert "commutation relations inside window: 5" in out
    assert run(capsys, "repetitive-window", DATA / "kronecker.gentle",
               "--window", "nonsense")[0] == 1


def test_invariants_json(capsys):
    code, out = run(capsys, "invariants", DATA / "lambda.rg", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["num_edges"] == 2
    assert obj["bipartite"] is True


def test_compare_equal_and_distinguished(tmp_path, capsys):
    assert run(capsys, "compare", DATA / "lambda.rg", DATA / "lambda.rg")[0] == 0
    other = tmp_path / "loop.rg"
    other.write_text(json.dumps({
        "vertices": [{"id": "v", "rotation": ["a", "b"], "degree": 2}],
        "edges": [["a", "b"]],
    }))
    code, out = run(capsys, "compare", DATA / "lambda.rg", other)
    assert code == 3
    assert "num_vertices" in out


def test_iso_positive_negative(tmp_path, capsys):
    assert run(capsys, "iso", DATA / "lambda.rg", DATA / "lambda.rg")[0] == 0
    other = tmp_path / "loop.rg"
    other.write_text(json.dumps({
        "vertices": [{"id": "v", "rotation": ["a", "b"], "degree": 2}],
        "edges": [["a", "b"]],
    }))
    assert run(capsys, "iso", DATA / "lambda.rg", other)[0] == 3


def test_reconstruct_roundtrip(capsys):
    code, out = run(capsys, "reconstruct", DATA / "lambda.loewy")
    assert code == 0
    assert "wirings_tried: 2" in out


def test_reconstruct_ambiguous_exits_4(capsys):
    assert run(capsys, "reconstruct", DATA / "loop_deg4.loewy")[0] == 4


def test_reconstruct_exceptional_exits_2(capsys):
    assert run(capsys, "reconstruct", DATA / "exceptional.loewy")[0] == 2


def test_reconstruct_split_ties_exits_1(tmp_path, capsys):
    """13 tied rows that each feed themselves: 13 cycles of ties, so every
    wiring is disconnected."""
    table = tmp_path / "split.loewy"
    table.write_text(json.dumps([
        {"id": f"l{i}", "strands": [[f"l{i}"] * 3] * 2, "uniserial": False, "socle": f"l{i}"}
        for i in range(13)]))
    assert main(["reconstruct", str(table)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no connected admissible graph realizes this table")


def test_export_loewy_and_dot(capsys):
    code, out = run(capsys, "export", DATA / "lambda.rg", "--loewy",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {r["id"] for r in rows} == {"s0", "s1"}
    code, out = run(capsys, "export", DATA / "lambda.rg", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


HUGE_DEGREE_EXITS = [
    (["validate"], 0), (["invariants"], 0), (["reduce"], 0), (["export"], 0),
    (["cover", "--r", "2", "--auto-cut"], 0), (["compare", "SAME"], 0), (["iso", "SAME"], 0),
    (["present"], 2), (["export", "--loewy"], 2),
]


@pytest.mark.parametrize("argv,exit_code", HUGE_DEGREE_EXITS)
def test_degree_10_18_answers_or_refuses_within_a_second(tmp_path, capsys, argv, exit_code):
    """Walks of length 10^18 are refused by the walk budget (exit 2, one
    line) before any is built; everything else answers in closed form."""
    huge = tmp_path / "huge.rg"
    huge.write_text((DATA / "lambda.rg").read_text().replace('"degree": 2', f'"degree": {10**18}'))
    cmd, *rest = argv
    argv = [cmd, str(huge)] + [str(huge) if a == "SAME" else a for a in rest]
    t0 = time.monotonic()
    assert main(argv) == exit_code
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    if exit_code:
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "walk budget" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fbga.cli", "validate", str(DATA / "lambda.rg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "admissible: yes" in proc.stdout
