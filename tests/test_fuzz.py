"""Seeded fuzzing of the command line on mutated sample files.

Each file under ``data/`` is parsed and mutated a few times over: a value
is deleted, duplicated, retyped, swapped for another string of the file,
or made huge, negative or empty.  Every subcommand that reads that kind of
file then runs on the mutant in-process, through ``fbga.cli.main``, in a
random output format.  Whatever the input, ``main`` must return an exit
code from 0 to 4 without an exception escaping: 0 and 3 with nothing on
stderr, 1, 2 and 4 with exactly one ``error:`` or ``ambiguous:`` line.
``validate`` reports an inadmissible graph (exit 2) on stdout instead.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from fbga.cli import main

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
