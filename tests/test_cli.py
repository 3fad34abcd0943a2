import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fbga.cli
from fbga.cli import main
from fbga.fileio import graph_json
from generators import torus_grid

DATA = Path(__file__).resolve().parent.parent / "data"
LAMBDA = str(DATA / "lambda.rg")
KRONECKER = str(DATA / "kronecker.gentle")


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


def test_validate_leaves_finite_type_of_a_disconnected_graph_open(tmp_path, capsys):
    """Two disjoint edges with degree 1 everywhere: admissible, but
    finite type is only decided for a connected graph."""
    two = tmp_path / "two.rg"
    two.write_text(json.dumps({
        "vertices": [{"id": v, "rotation": [h], "degree": 1}
                     for v, h in zip("abcd", ["x", "y", "z", "w"])],
        "edges": [["x", "y"], ["z", "w"]],
    }))
    code, out = run(capsys, "validate", two)
    assert code == 0
    assert "connected: no" in out and "admissible: yes" in out
    assert "finite type: not decided (graph is disconnected)" in out
    code, out = run(capsys, "validate", two, "--format", "json")
    assert code == 0
    res = json.loads(out)
    assert res["admissible"] is True and res["connected"] is False
    assert res["finite_type"] is None
    assert res["finite_type_reason"] == "graph is disconnected"


def test_validate_missing_file_exits_1(capsys):
    assert run(capsys, "validate", "no/such/file.rg")[0] == 1


def loop_of_degree(d):
    return {"vertices": [{"id": "v", "rotation": ["a", "b"], "degree": d}],
            "edges": [["a", "b"]]}


LOOP = loop_of_degree(2)
# a JSON integer with more digits than int() converts from a string
HUGE = b"9" * (sys.get_int_max_str_digits() + 1)
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
    "degree-over-the-int-digit-limit": (["validate"], b'{"vertices": [{"id": "v", "degree": %s, '
                                        b'"rotation": ["a", "b"]}], "edges": [["a", "b"]]}' % HUGE),
    "loewy-socle-over-the-int-digit-limit": (["reconstruct"],
                                             b'[{"id": "s", "strands": [], "socle": %s}]' % HUGE),
    "gentle-id-over-the-int-digit-limit": (["gentle-trivext"],
                                           b'{"vertices": [%s], "arrows": []}' % HUGE),
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


USAGE_ERRORS = {
    "bad-r": ["cover", LAMBDA, "--r", "x"],
    "unknown-subcommand": ["bogus", LAMBDA],
    "no-arguments": [],
    "missing-r": ["cover", LAMBDA, "--auto-cut"],
    "missing-window": ["repetitive-window", KRONECKER],
    "missing-positional": ["validate"],
    "negative-window-as-option": ["repetitive-window", KRONECKER, "--window", "-3:-1"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_a_one_line_input_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# answers and refusals that no other test reaches: exit code and the one line
# of stdout (exit 0) or stderr (any other exit) that names them
PLAIN = {"vertices": [{"id": v, "rotation": r} for v, r in (("u", ["h", "hp"]),
                                                            ("w", ["ih", "ihp"]))],
         "edges": [["h", "ih"], ["hp", "ihp"]]}
NOT_GENTLE = {"vertices": ["1", "2", "3"],
              "arrows": [{"id": a, "from": s, "to": t} for a, s, t in (("a", "1", "2"),
                                                                       ("b", "2", "3"))],
              "zero_relations": [["b", "a"], ["b", "a"]]}
ANSWERS = {
    "validate-without-degrees": (["validate", "{plain}"], 0,
                                 "degrees: absent (structure check only)"),
    "iso-with-degrees-on-one-side": (["iso", LAMBDA, "{plain}"], 1,
                                     "error: either both graphs carry degrees or neither"),
    "export-loewy-without-degrees": (["export", "{plain}", "--loewy"], 1,
                                     "error: --loewy needs vertex degrees"),
    "gentle-trivext-of-a-non-gentle-file": (
        ["gentle-trivext", "{not_gentle}"], 1,
        "error: not a gentle presentation: relation b*a listed twice"),
}


@pytest.mark.parametrize("argv, code, line", ANSWERS.values(), ids=ANSWERS.keys())
def test_a_checked_input_gets_its_one_line(tmp_path, capsys, argv, code, line):
    files = {"plain": PLAIN, "not_gentle": NOT_GENTLE}
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    assert main([a.format(**{n: tmp_path / n for n in files}) for a in argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", line + "\n")
    else:
        assert err == "" and line in out.splitlines()


ALL_FORMATS = ("text", "json", "dot")
# every subcommand, on an input it answers with exit 0, and the formats it renders
FORMS = {
    "validate": (["validate", LAMBDA], ("text", "json")),
    "present": (["present", LAMBDA], ALL_FORMATS),
    "reduce": (["reduce", LAMBDA], ALL_FORMATS),
    "cover": (["cover", LAMBDA, "--r", "2", "--auto-cut"], ALL_FORMATS),
    "gentle-trivext": (["gentle-trivext", KRONECKER], ALL_FORMATS),
    "repetitive-window": (["repetitive-window", KRONECKER, "--window", "0:2"], ALL_FORMATS),
    "invariants": (["invariants", LAMBDA], ("text", "json")),
    "compare": (["compare", LAMBDA, LAMBDA], ("text", "json")),
    "reconstruct": (["reconstruct", str(DATA / "lambda.loewy")], ALL_FORMATS),
    "iso": (["iso", LAMBDA, LAMBDA], ("text", "json")),
    "export": (["export", LAMBDA], ALL_FORMATS),
    "export-loewy": (["export", LAMBDA, "--loewy"], ("text", "json")),
}


@pytest.mark.parametrize("fmt", (*ALL_FORMATS, "xml"))
@pytest.mark.parametrize("argv, formats", FORMS.values(), ids=FORMS.keys())
def test_a_command_answers_only_the_formats_it_renders(tmp_path, capsys, argv, formats, fmt):
    """A format the command has no renderer for is refused in one line,
    exit 1, with nothing written: stdout stays empty and ``--out`` keeps
    its bytes.  The refusal comes before any input is read, so an input
    the command would refuse (not admissible, or missing) gets it too.
    A format it has is written, and json parses."""
    out = tmp_path / "out"
    out.write_bytes(b"keep\n")
    code = main([*argv, "--format", fmt, "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert stdout == ""
    if fmt in formats:
        assert (code, err) == (0, "") and out.read_bytes() != b"keep\n"
        if fmt == "json":
            json.loads(out.read_text(encoding="utf-8"))
        return
    refusal = f"error: {argv[0]} has no {fmt} output; it has {', '.join(formats)}\n"
    assert (code, err) == (1, refusal) and out.read_bytes() == b"keep\n"
    for first in (argv[1], DATA / "inadmissible.rg", tmp_path / "missing"):
        assert main([argv[0], str(first), *argv[2:], "--format", fmt]) == 1
        assert capsys.readouterr() == ("", refusal)


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, tmp_path, capsys):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(fbga.cli, "build_parser", rebuilt)
    assert run(capsys, "validate", LAMBDA)[0] == 0
    assert run(capsys, "cover", LAMBDA, "--r", "2", "--auto-cut")[0] == 0
    assert main(["cover", LAMBDA, "--r", "2"]) == 2
    assert "pass --cut FILE or --auto-cut" in capsys.readouterr().err
    out_file = tmp_path / "out.txt"
    assert run(capsys, "validate", LAMBDA, "--out", out_file) == (0, "")
    code, out = run(capsys, "validate", LAMBDA)
    assert code == 0 and out == out_file.read_text()


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
    code, out = run(capsys, "repetitive-window", KRONECKER, "--window=-3:-1")
    assert code == 0
    assert out.startswith("window sheets -3..-1\n")


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


def test_iso_of_an_800_edge_torus_pair(tmp_path, capsys):
    """Every half-edge of the grid and of its shifted twin has one key; the
    two codes are found in well under a second."""
    paths = [tmp_path / "grid.rg", tmp_path / "twin.rg"]
    for path, shift in zip(paths, (0, 1)):
        path.write_text(graph_json(torus_grid(20, shift)))
    t0 = time.monotonic()
    assert run(capsys, "iso", *paths) == (3, "not isomorphic\n")
    assert time.monotonic() - t0 <= 0.5


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


@pytest.mark.parametrize("argv", [["present"], ["export", "--loewy"]], ids=["present", "loewy"])
def test_a_dimension_past_the_int_digit_limit_is_refused_in_one_line(tmp_path, capsys, argv):
    """A degree with as many digits as ``int`` reads from a string gives a
    dimension with more, which the refusal names without converting it."""
    huge = tmp_path / "huge.rg"
    degree = "9" * sys.get_int_max_str_digits()
    huge.write_text((DATA / "lambda.rg").read_text().replace('"degree": 2', f'"degree": {degree}'))
    assert main([argv[0], str(huge), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "dimension at least 2^" in err and "walk budget" in err


SHEETS_ABOVE_BUDGET = {
    "cover": ["cover", DATA / "lambda.rg", "--r", 10**9, "--auto-cut"],
    "gentle-trivext": ["gentle-trivext", DATA / "kronecker.gentle", "--r", 10**9],
    "repetitive-window": ["repetitive-window", DATA / "kronecker.gentle", "--window", f"0:{10**9}"],
    # 70,000 sheets of 4 half-edges fit the walk budget as walk steps, not
    # as built half-edges
    "cover-70000": ["cover", DATA / "lambda.rg", "--r", 70_000, "--auto-cut"],
    "gentle-trivext-70000": ["gentle-trivext", DATA / "kronecker.gentle", "--r", 70_000],
    "repetitive-window-70000": ["repetitive-window", DATA / "kronecker.gentle",
                                "--window", "0:70000"],
}


@pytest.mark.parametrize("argv", SHEETS_ABOVE_BUDGET.values(), ids=SHEETS_ABOVE_BUDGET.keys())
def test_sheet_counts_above_the_budget_are_refused_within_a_second(capsys, argv):
    """A cover or a window is sized by the half-edges it builds before
    anything is built, so these exit 2 with one line instead of taking
    seconds and gigabytes."""
    t0 = time.monotonic()
    assert main([str(a) for a in argv]) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "walk budget" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fbga.cli", "validate", str(DATA / "lambda.rg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "admissible: yes" in proc.stdout


def run_in_posix_locale(*argv):
    """The command in a subprocess whose locale encoding is ASCII: the POSIX
    locale, with Python's UTF-8 mode and stream-encoding override off."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="POSIX", PYTHONUTF8="0")
    return subprocess.run([sys.executable, "-m", "fbga.cli", *map(str, argv)],
                          capture_output=True, env=env)


def test_a_utf8_graph_file_is_read_in_any_locale(tmp_path):
    omega = tmp_path / "omega.rg"
    omega.write_text(json.dumps({
        "vertices": [{"id": "ω", "rotation": ["a"]}, {"id": "v", "rotation": ["b"]}],
        "edges": [["a", "b"]]}, ensure_ascii=False), encoding="utf-8")
    proc = run_in_posix_locale("iso", omega, omega)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"isomorphic\n", b"")


def test_out_is_written_as_utf8_in_any_locale(tmp_path):
    """The dot boundary label of a window is "…", which ASCII cannot encode."""
    out = tmp_path / "window.dot"
    argv = ["repetitive-window", KRONECKER, "--window", "0:2", "--format", "dot"]
    proc = run_in_posix_locale(*argv, "--out", out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == subprocess.run(
        [sys.executable, "-m", "fbga.cli", *argv], capture_output=True, check=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"}).stdout
    assert 'label="…"'.encode() in out.read_bytes()


def test_a_stdout_that_cannot_encode_the_output_ends_in_one_error_line():
    proc = run_in_posix_locale("repetitive-window", KRONECKER, "--window", "0:2", "--format", "dot")
    assert proc.returncode == 1 and proc.stdout == b""
    (line,) = proc.stderr.decode("ascii").splitlines()
    assert line.startswith("error: cannot write stdout:") and "PYTHONIOENCODING=utf-8" in line


LONE_SURROGATE_TARGETS = {  # the environment, and whether --out names a file
    "stdout-utf8": ({"PYTHONIOENCODING": "utf-8"}, False),
    "stdout-posix": ({"LC_ALL": "POSIX", "PYTHONUTF8": "0"}, False),
    "out": ({}, True),
}


@pytest.mark.parametrize("env,to_file", LONE_SURROGATE_TARGETS.values(),
                         ids=LONE_SURROGATE_TARGETS.keys())
def test_text_with_a_lone_surrogate_ends_without_the_encoding_hint(tmp_path, env, to_file):
    """A vertex id that is an escaped lone surrogate parses, but no UTF-8
    stream or file can take it as text, so the one error line gives no
    PYTHONIOENCODING hint; the json, which escapes it, is written."""
    graph = tmp_path / "surrogate.rg"
    graph.write_text(json.dumps({
        "vertices": [{"id": "\ud800", "rotation": ["a"]}, {"id": "v", "rotation": ["b"]}],
        "edges": [["a", "b"]]}))
    out = tmp_path / "out"
    target = ["--out", out] if to_file else []
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}, **env}

    def export(*argv):
        return subprocess.run([sys.executable, "-m", "fbga.cli", "export", *map(str, argv)],
                              capture_output=True, env=env)

    proc = export(graph, *target)
    assert proc.returncode == 1 and proc.stdout == b""
    (line,) = proc.stderr.decode("ascii").splitlines()
    where = out if to_file else "stdout"
    assert line.startswith(f"error: cannot write {where}:") and "PYTHONIOENCODING" not in line
    proc = export(graph, "--format", "json", *target)
    assert proc.returncode == 0 and proc.stderr == b""
    written = out.read_bytes() if to_file else proc.stdout
    assert [v["id"] for v in json.loads(written)["vertices"]] == ["v", "\ud800"]


def test_a_failed_write_keeps_the_old_out_file(tmp_path):
    """The text is encoded before ``--out`` is opened, so a lone surrogate
    that UTF-8 refuses leaves the file that was there."""
    graph = tmp_path / "surrogate.rg"
    graph.write_text(json.dumps({
        "vertices": [{"id": "\ud800", "rotation": ["a"]}, {"id": "v", "rotation": ["b"]}],
        "edges": [["a", "b"]]}))
    out = tmp_path / "out.txt"
    out.write_bytes(b"keep\n")
    proc = subprocess.run([sys.executable, "-m", "fbga.cli", "export", str(graph), "--out", str(out)],
                          capture_output=True)
    assert proc.returncode == 1 and proc.stdout == b""
    (line,) = proc.stderr.decode("ascii").splitlines()
    assert line.startswith(f"error: cannot write {out}:")
    assert out.read_bytes() == b"keep\n"


def test_a_refusal_names_the_count_and_the_first_three_violations(tmp_path, capsys):
    """3,000 leaves of degree 2 around a hub of degree 1 fail admissibility
    6,000 times: the refusal stays one short line, and ``validate`` still
    lists every violation."""
    n = 3000
    star = tmp_path / "star.rg"
    star.write_text(json.dumps({
        "vertices": [{"id": "c", "degree": 1, "rotation": [f"c{i}" for i in range(n)]}]
                    + [{"id": f"v{i}", "degree": 2, "rotation": [f"l{i}"]} for i in range(n)],
        "edges": [[f"c{i}", f"l{i}"] for i in range(n)]}))
    assert main(["present", str(star)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: degree function is not admissible: 6000 violations, the first 3: ")
    assert line.count("pairing_compat at ") == 3 and len(line.encode()) <= 1000
    code, out = run(capsys, "validate", star, "--format", "json")
    assert code == 2 and len(json.loads(out)["violations"]) == 2 * n
    code, out = run(capsys, "validate", star)
    assert code == 2 and out.count("\n  pairing_compat at ") == 2 * n
