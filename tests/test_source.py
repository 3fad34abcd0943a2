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


def raised_names(tree) -> set:
    """Names of the classes that ``raise`` statements in ``tree`` raise:
    ``raise X``, ``raise X(...)`` or ``raise module.X(...)``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                out.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return out


def test_every_error_class_is_raised():
    """Each class in ``errors.py`` is raised somewhere in the package, or is
    the base class of one that is: an error nothing raises only documents
    a refusal that no longer happens."""
    modules = parsed(SRC)
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in modules["errors"].body if isinstance(node, ast.ClassDef)}
    covered = set()
    queue = [name for tree in modules.values() for name in raised_names(tree) if name in bases]
    while queue:
        name = queue.pop()
        if name not in covered:
            covered.add(name)
            queue += [b for b in bases[name] if b in bases]
    assert len(bases) > 10
    assert set(bases) - covered == set()


def test_json_is_decoded_only_by_the_one_loader():
    """Every input parser decodes JSON through ``fileio._load``, so every
    decode failure (bad syntax, nesting too deep, an integer over the digit
    limit) becomes the same one-line ``ParseError``."""
    found = set()
    for name, tree in parsed(SRC).items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                        and node.func.attr in ("load", "loads")):
                    found.add(f"{name}.{getattr(top, 'name', top.lineno)}")
        found.update(f"{name}.from json import" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "json")
    assert found == {"fileio._load"}


def bound_names(body) -> list:
    """Names that the statements of a module's or a class's ``body`` bind:
    functions, classes, imports and assignments, and, inside each class,
    its methods, properties and fields."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += bound_names(node.body)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [alias.asname or alias.name for alias in node.names]
        else:
            out += [n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return out


def defined_in_package(names) -> set:
    """``module.name`` for each of ``names`` that a module of the package binds."""
    return {f"{module}.{b}" for module, tree in parsed(SRC).items()
            for b in bound_names(tree.body) if b in names}


def test_the_loewy_table_is_built_only_by_its_writer():
    """``fileio.loewy_json`` is the package's one Loewy table builder:
    reconstruction proves that a candidate reproduces its input table, so
    ``reconstruct`` imports neither the presentation walks nor the writer,
    and the table builders and the tuple walker the tests keep as
    references (``tests/oracles.py``) are defined in no module."""
    modules = parsed(SRC)
    assert relative_imports(modules["reconstruct"]) & {"presentation", "fileio"} == set()
    assert "loewy_json" in {node.name for node in modules["fileio"].body
                            if isinstance(node, ast.FunctionDef)}
    found = defined_in_package(("loewy_table", "loewy_data_of", "walk"))
    assert not found, sorted(found)


def test_presentation_output_has_one_form():
    """``presentation_json`` and ``loewy_json`` are the package's one form
    of presentation and Loewy output.  The dict builders that the
    benchmark's trace layer wraps by name only decode them
    (``bordered_to_dict`` is ``presentation_to_dict`` under a second
    name), and the tuple walks, their splitter and the properties that only
    the tests read are defined in no module: ``tests/oracles.py`` steps out
    the walks, and the tests derive the flag and sort the half-edges."""
    tree = parsed(SRC)["fileio"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, writer in (("presentation_to_dict", "presentation_json"),
                         ("loewy_to_list", "loewy_json")):
        node = functions[name]
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        (arg,) = [a.arg for a in node.args.args]
        decode = ast.parse(f"return _load({writer}({arg}))").body
        assert [ast.dump(s) for s in body] == [ast.dump(s) for s in decode], name
    aliases = [(target.id, node.value.id) for node in tree.body
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
               for target in node.targets]
    assert ("bordered_to_dict", "presentation_to_dict") in aliases
    assert bound_names(tree.body).count("bordered_to_dict") == 1
    found = defined_in_package(("commutation_relations", "_split", "uniserial", "half_edges"))
    assert not found, sorted(found)
