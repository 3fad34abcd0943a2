"""Byte-for-byte CLI output on the sample files.

``golden/cases.txt`` lists one case per line: a name, then the fbga
arguments (paths relative to the repository root).  Every case runs in
each of the three formats; ``<name>.<format>.out`` holds the exact
stdout, and ``<name>.<format>.err`` the exact stderr followed by the line
``exit <code>``.
"""

from pathlib import Path

from fbga.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json", "dot")


def test_cli_output_matches_golden_files(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    mismatched = []
    for line in (GOLDEN / "cases.txt").read_text().splitlines():
        name, *argv = line.split()
        for fmt in FORMATS:
            code = main(argv + ["--format", fmt])
            out, err = capsys.readouterr()
            stem = GOLDEN / f"{name}.{fmt}"
            if out.encode() != Path(f"{stem}.out").read_bytes():
                mismatched.append(f"{stem.name}.out")
            if (err + f"exit {code}\n").encode() != Path(f"{stem}.err").read_bytes():
                mismatched.append(f"{stem.name}.err")
    assert not mismatched
