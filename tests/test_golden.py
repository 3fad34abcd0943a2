"""Byte-for-byte CLI output on the sample files.

``golden/cases.txt`` lists one case per line: a name, then the fbga
arguments (paths relative to the repository root).  Every case runs in
each of the three formats; ``<name>.<format>.out`` holds the exact
stdout, and ``<name>.<format>.err`` the exact stderr followed by the line
``exit <code>``.  Every non-empty ``*.json.out`` must also parse as JSON.

The files are regenerated, from the repository root, by::

    while read -r name argv; do for fmt in text json dot; do
      { PYTHONPATH=src python -m fbga.cli $argv --format $fmt 2>&1 \
          > tests/golden/$name.$fmt.out; echo "exit $?"; } > tests/golden/$name.$fmt.err
    done; done < tests/golden/cases.txt

Commit only the files whose change the commit intends.
"""

import json
from pathlib import Path

import pytest

import fbga.afbg
import fbga.covering
import fbga.presentation
import fbga.reconstruct
from fbga.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json", "dot")
CASES = [line.split() for line in (GOLDEN / "cases.txt").read_text().splitlines()]


def mismatches(cases, capsys) -> list:
    """The golden files that running ``cases`` in every format does not
    reproduce byte for byte."""
    mismatched = []
    for name, *argv in cases:
        for fmt in FORMATS:
            code = main(argv + ["--format", fmt])
            out, err = capsys.readouterr()
            stem = GOLDEN / f"{name}.{fmt}"
            if out.encode() != Path(f"{stem}.out").read_bytes():
                mismatched.append(f"{stem.name}.out")
            if fmt == "json" and out:
                try:
                    json.loads(out)
                except json.JSONDecodeError:
                    mismatched.append(f"{stem.name}.out is not JSON")
            if (err + f"exit {code}\n").encode() != Path(f"{stem}.err").read_bytes():
                mismatched.append(f"{stem.name}.err")
    return mismatched


def test_cli_output_matches_golden_files(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert not mismatches(CASES, capsys)


class QuotientBuilt(Exception):
    pass


def test_invariants_do_not_build_the_reduced_form(capsys, monkeypatch):
    """validate, invariants and compare read the reduced form's numbers off
    the Nakayama orbits; only reduce builds the quotient graph."""
    def refuse(*args):
        raise QuotientBuilt

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(fbga.afbg, "_quotient", refuse)
    monkeypatch.setattr(fbga.covering, "_quotient", refuse)
    cases = [c for c in CASES if c[1] in ("validate", "invariants", "compare")]
    assert len(cases) == 7
    assert not mismatches(cases, capsys)
    for graph in ("data/lambda.rg", "data/halfmult.rg"):
        with pytest.raises(QuotientBuilt):
            main(["reduce", graph])


class TableBuilt(Exception):
    pass


def test_reconstruct_does_not_build_a_table(capsys, monkeypatch):
    """reconstruct proves that a candidate reproduces the input table, so it
    never builds one; export --loewy renders the table without building it."""
    def refuse(*args):
        raise TableBuilt

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(fbga.presentation, "loewy_table", refuse)
    monkeypatch.setattr(fbga.reconstruct, "loewy_table", refuse)
    cases = [c for c in CASES if c[1] == "reconstruct" or "--loewy" in c]
    assert len(cases) == 7
    assert not mismatches(cases, capsys)
