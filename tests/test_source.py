"""Rules the source of the package and of its tests keep."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fbga"
ENTRY_POINTS = ("__init__", "cli")


def parsed(directory: Path) -> dict:
    """Module name -> syntax tree of every ``*.py`` file in ``directory``."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def test_no_assert_statements():
    """Correctness checks raise errors: ``python -O`` strips ``assert``."""
    found = []
    for name, tree in parsed(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}.py:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found


def relative_imports(tree) -> set:
    """Modules of the package that ``tree`` imports relatively, at any depth
    (``from .x import y`` names ``x``; ``from . import x`` names ``x``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_every_module_is_reachable_from_the_entry_points():
    """Code that neither the package nor the command imports belongs in the
    tests, not in the package."""
    modules = parsed(SRC)
    reached = set(ENTRY_POINTS)
    queue = list(ENTRY_POINTS)
    while queue:
        for name in relative_imports(modules[queue.pop()]) - reached:
            reached.add(name)
            queue.append(name)
    assert set(modules) - reached == set()
    assert len(modules) > 5


def test_no_test_is_skipped():
    """Generators produce what they promise by construction, so no test has
    a reason to skip."""
    found = []
    for name, tree in parsed(TESTS).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("skip", "skipif", "importorskip"):
                found.append(f"{name}.py:{node.lineno}")
    assert not found


def test_imports_are_at_module_level():
    """A module's dependencies show at its top: no ``import`` inside a
    function body (a module-level ``TYPE_CHECKING`` block stays allowed)."""
    found = set()
    for name, tree in parsed(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{name}.py:{n.lineno}" for n in ast.walk(node)
                             if isinstance(n, (ast.Import, ast.ImportFrom)))
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, sorted(found)


def test_oracles_import_no_private_names():
    """A reference in ``tests/oracles.py`` never shares the code it checks:
    it imports no underscore name from ``fbga``."""
    tree = parsed(TESTS)["oracles"]
    found = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fbga"
             for alias in node.names if alias.name.startswith("_")]
    assert any(isinstance(node, ast.ImportFrom) and node.module == "fbga.presentation"
               for node in ast.walk(tree))
    assert not found
