"""Seeded fuzzing of the command line on mutated sample files.

Each file under ``data/`` is parsed and mutated a few times over: a value
is deleted, duplicated, retyped, swapped for another string of the file,
or made huge, negative or empty.  Every subcommand that reads that kind of
file then runs on the mutant in-process, through ``fbga.cli.main``, in a
random output format.  Whatever the input, ``main`` must return an exit
code from 0 to 4 without an exception escaping: 0 and 3 with nothing on
stderr, 1, 2 and 4 with exactly one ``error:`` or ``ambiguous:`` line.
``validate`` reports an inadmissible graph (exit 2) on stdout instead.

The same mutants, and more that give a flag or a degree an odd value or
rename an id everywhere, are read by ``parse_ribbon`` and ``parse_loewy``,
and by their one-item-at-a-time references in ``tests/oracles.py``: both
must accept the same files with the same result, and refuse the rest with
the same error and message.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from fbga.cli import main
from fbga.fileio import parse_loewy, parse_ribbon
from fbga.reconstruct import LoewyData
from fbga.ribbon import RibbonGraph
from oracles import reference_build, reference_parse_loewy, reference_parse_ribbon

DATA = Path(__file__).resolve().parent.parent / "data"
LAMBDA = str(DATA / "lambda.rg")
KRONECKER = str(DATA / "kronecker.gentle")
INPUT = "{input}"
SEED = 20261018
MUTANTS_PER_FILE = 12

# the subcommands that read each kind of file; INPUT stands for the mutant
COMMANDS = {
    ".rg": [["validate", INPUT], ["present", INPUT], ["reduce", INPUT],
            ["invariants", INPUT], ["export", INPUT], ["export", INPUT, "--loewy"],
            ["cover", INPUT, "--r", "2", "--auto-cut"], ["compare", INPUT, LAMBDA],
            ["iso", LAMBDA, INPUT]],
    ".cut": [["cover", LAMBDA, "--r", "3", "--cut", INPUT]],
    ".gentle": [["gentle-trivext", INPUT], ["gentle-trivext", INPUT, "--r", "2"],
                ["repetitive-window", INPUT, "--window", "0:2"]],
    ".loewy": [["reconstruct", INPUT]],
}
FIXED_OPTIONS = (
    [["cover", LAMBDA, "--auto-cut", "--r", r] for r in ("0", "-1", str(10**9))]
    + [["gentle-trivext", KRONECKER, "--r", r] for r in ("0", "-1", str(10**9))]
    + [["repetitive-window", KRONECKER, "--window", w] for w in ("2:1", "0:x", "-3:-1")]
    + [["cover", LAMBDA, "--auto-cut", "--r", "x"]]
)
ODD_VALUES = (None, True, 0, -1, 10**18, -(10**18), 1.5, "", "#", "~", "@", [], {}, [[]])


def slots(obj, out):
    """Every (container, key) pair below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            slots(value, out)
    return out


def strings(obj):
    if isinstance(obj, str):
        return [obj]
    if isinstance(obj, dict):
        return list(obj) + [s for v in obj.values() for s in strings(v)]
    if isinstance(obj, list):
        return [s for v in obj for s in strings(v)]
    return []


def mutate(rng, obj):
    """One random change to a slot of ``obj``, in place."""
    found = slots(obj, [])
    if not found:
        return
    container, key = rng.choice(found)
    kind = rng.randrange(5)
    if kind == 0:
        del container[key]
    elif kind == 1 and isinstance(container, list):
        container.insert(key, json.loads(json.dumps(container[key])))
    elif kind == 2:
        container[key] = rng.choice(strings(obj) or [""])
    elif kind == 3 and isinstance(container[key], (int, str)):
        container[key] = [container[key]] if rng.random() < 0.5 else {"id": container[key]}
    else:
        container[key] = json.loads(json.dumps(rng.choice(ODD_VALUES)))


def mutants(rng, path):
    original = json.loads(path.read_text())
    for _ in range(MUTANTS_PER_FILE):
        obj = json.loads(json.dumps(original))
        for _ in range(rng.randint(1, 3)):
            if isinstance(obj, (dict, list)):
                mutate(rng, obj)
        yield json.dumps(obj)


def problem(argv, fmt):
    """Why one run breaks the exit-code contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", fmt])
    except (Exception, SystemExit) as exc:  # anything that escapes is a finding
        return f"{type(exc).__name__}: {exc}"
    err = err.getvalue()
    verdict = argv[0] == "validate" and code == 2 and "admissible" in out.getvalue()
    if code in (0, 3) or verdict:
        return None if err == "" else f"exit {code} wrote to stderr: {err!r}"
    if code not in (1, 2, 4):
        return f"exit code {code!r}"
    if len(err.splitlines()) != 1 or not err.startswith(("error:", "ambiguous:")):
        return f"exit {code} with stderr {err!r}"
    return None


def test_mutated_inputs_end_in_an_exit_code_with_one_line(tmp_path):
    rng = random.Random(SEED)
    start = time.perf_counter()
    cases = [(argv, None) for argv in FIXED_OPTIONS]
    for path in sorted(DATA.iterdir()):
        for k, text in enumerate(mutants(rng, path)):
            mutant = tmp_path / f"{path.stem}-{k}{path.suffix}"
            mutant.write_text(text)
            cases += [([str(mutant) if a == INPUT else a for a in argv], text)
                      for argv in COMMANDS[path.suffix]]
    failures = []
    for argv, text in cases:
        why = problem(argv, rng.choice(("text", "json", "dot")))
        if why is not None:
            failures.append(f"{' '.join(argv)}: {why} on {text}")
    assert len(cases) > 400
    assert not failures, "\n".join(failures[:5])
    assert time.perf_counter() - start < 3.0


FLAG_VALUES = (None, True, False, 0, "x")  # for "uniserial" and "degree"
ODD_NAMES = ("", "~", "a~b")  # an id renamed to one of these everywhere it is used
READERS = {".rg": (parse_ribbon, reference_parse_ribbon),
           ".loewy": (parse_loewy, reference_parse_loewy)}
BUILD_INPUTS = [  # (rotations, edges) that no file decodes to
    ({"v": ("a", "b")}, [("a", "b")]),
    ({"v": "ab"}, ["ab"]),
    ({"v": ["b", "a"], "u": ["d", "c"]}, [["d", "a"], ["c", "b"]]),
    ({"v": []}, []),
    ({"v": ["a", 3]}, [["a", 3]]),
    ({"v": ["a", ["x"]]}, [["a", ["x"]]]),
    ({"v": ["a", "b"]}, [["a", ["x"]]]),
    ({"v": ["a", "b"]}, [["c", ["x"]]]),
    ({"v": ["a", "b", "c"]}, [["a", "b"], ["c"]]),
    ({"v": ["a", "b"]}, [5]),
    ({"v": ["a", "b"]}, [["a", "b"], ["a", "b"]]),
    ({"v": ["a", "b"]}, [["a", "a"]]),
    ({"u": ["a"], "v": ["a"]}, [["a", "a"]]),
    ([("v", ["a", "b"])], [["a", "b"]]),
    ({"v": ["a", "b"]}, None),
    ({"v": ["a", "b"]}, "ab"),
    ({1: ["a", "b"]}, [["a", "b"]]),
    ({"v": ["a", "b"], "w": "cd"}, [["a", "c"], ["b", "d"]]),
]


def rows_of(obj) -> list:
    return obj["vertices"] if isinstance(obj, dict) else obj


def renamed(obj, old: str, new: str):
    """``obj`` with every string value equal to ``old`` (not a key) made ``new``."""
    if isinstance(obj, dict):
        return {k: renamed(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [renamed(v, old, new) for v in obj]
    return new if obj == old else obj


def reader_mutants(rng, path) -> list:
    """The file, its ``mutants``, each row with its "uniserial" or "degree"
    set to each of FLAG_VALUES, and each id renamed to each of ODD_NAMES."""
    text = path.read_text()
    key = "uniserial" if path.suffix == ".loewy" else "degree"
    out = [text, *mutants(rng, path)]
    for i in range(len(rows_of(json.loads(text)))):
        for value in FLAG_VALUES:
            obj = json.loads(text)
            rows_of(obj)[i][key] = value
            out.append(json.dumps(obj))
    ids = {s for row in rows_of(json.loads(text)) for s in strings(list(row.values()))}
    out += [json.dumps(renamed(json.loads(text), old, new))
            for old in sorted(ids) for new in ODD_NAMES]
    return out


def normal(value):
    """``value`` with each dict, also inside a graph or table, as its list of
    items, and each sequence tagged with its type: equal only when every
    key is listed in the same order."""
    if isinstance(value, (RibbonGraph, LoewyData)):
        return type(value).__name__, normal(vars(value))
    if isinstance(value, dict):
        return [(k, normal(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [normal(v) for v in value]
    return value


def outcome(read, *args):
    """("ok", what ``read`` returns, in ``normal`` form) or (error type, message)."""
    try:
        return "ok", normal(read(*args))
    except Exception as exc:  # whatever either side raises is compared
        return type(exc), str(exc)


def test_bulk_readers_accept_and_refuse_as_their_references():
    """Every graph file, Loewy table and ``RibbonGraph.build`` input gives the
    reader and its reference equal results, or the same error and message."""
    rng = random.Random(SEED)
    texts = {suffix: [] for suffix in READERS}
    for path in sorted(DATA.iterdir()):
        if path.suffix in READERS:
            texts[path.suffix] += reader_mutants(rng, path)
    verdicts = set()
    for suffix, (read, reference) in READERS.items():
        for text in texts[suffix]:
            got = outcome(read, text)
            assert got == outcome(reference, text), text
            verdicts.add((suffix, got[0] == "ok"))
    for rotations, edges in BUILD_INPUTS:
        got = outcome(RibbonGraph.build, rotations, edges)
        assert got == outcome(reference_build, rotations, edges), (rotations, edges)
        verdicts.add(("build", got[0] == "ok"))
    assert min(map(len, texts.values())) >= 100
    assert verdicts == {(kind, ok) for kind in (*READERS, "build") for ok in (True, False)}
