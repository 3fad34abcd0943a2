"""JSON input/output and DOT rendering.

Graph files look like::

    {"vertices": [{"id": "u", "degree": 2, "rotation": ["h", "hp"]}, ...],
     "edges": [["h", "ih"], ...]}

"degree" is optional per vertex but must be given for all vertices or
none.  Cut files are ``[{"vertex": ..., "half_edge": ...}]``.  Gentle
files are ``{"vertices": [...], "arrows": [{"id","from","to"}],
"zero_relations": [[later, earlier]]}`` — a listed relation kills the
composite later∘earlier.  Loewy files are a list of ``{"id", "strands",
"socle"}`` rows; "uniserial" is derived from the strands, and a row
that gives it must agree.  Ids, half-edges and labels are strings and
degrees are positive integers; anything else is a :class:`ParseError`.

Exported paths list arrows in application order (first arrow first);
exported zero relations are ``[later, earlier]`` pairs.  Every JSON output
is what ``dumps`` writes: ``json.dumps(obj, indent=2)`` and a newline.
Graphs, presentations and Loewy tables each have one writer, ``graph_json``,
``presentation_json`` and ``loewy_json``, which write those bytes without
the dict tree: each list is joined once, and each strand or relation walk
is cut from its orbit's text, rendered once (``presentation.cut_walks``).
"""

from __future__ import annotations

import json
from itertools import chain

from .afbg import Afbg
from .errors import InconsistentInput, InputError, InvariantError, ParseError
from .gentle import GentlePresentation
from .presentation import Presentation, _check_budget, arrow_name, cut_walks, dimension, walk_texts
from .reconstruct import LoewyData, LoewyRow, loewy_labels
from .ribbon import EDGE_SEP, RibbonGraph

PATH_CONVENTIONS = {
    "paths": "arrow lists are in application order (first arrow first)",
    "zero_relations": "[later, earlier]: the composite later∘earlier vanishes",
}


def _load(text: str, object_hook=None):
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          bool: "true or false"}


def _typed(value, kind, where: str):
    """``value`` if it is a ``kind`` (an int is never a bool), else a ParseError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected {_KINDS[kind]}, got {value!r:.60}")
    return value


def _need(obj: dict, key: str, where: str):
    if key not in _typed(obj, dict, where):
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


def _strings(value, where: str) -> list:
    if isinstance(value, list):
        try:
            "".join(value)  # json yields no str subclasses: fails iff an item is not a str
            return value
        except TypeError:
            pass
    raise ParseError(f"{where}: expected a list of strings, got {value!r:.60}")


# -- ribbon graphs -------------------------------------------------------------

def parse_ribbon(text: str):
    """Returns (RibbonGraph, degrees-or-None).  Each check covers all rows at
    once; when one fails, :func:`_refuse_ribbon` names the first fault."""
    obj = _load(text)
    vrows = _typed(_need(obj, "vertices", "graph file"), list, "graph vertices")
    erows = _typed(_need(obj, "edges", "graph file"), list, "graph edges")
    try:
        rotations = {row["id"]: row["rotation"] for row in vrows}
        degrees = {row["id"]: row["degree"] for row in vrows if "degree" in row}
        "".join(chain(rotations, *rotations.values(), *erows))  # fails on an item that is no str
        ok = (len(rotations) == len(vrows) and len(degrees) in (0, len(vrows))
              and {list}.issuperset(map(type, chain(rotations.values(), erows)))
              and {int}.issuperset(map(type, degrees.values()))  # an int, never a bool
              and min(degrees.values(), default=1) >= 1)
    except (KeyError, TypeError):  # a row that is no object, or a key it lacks
        ok = False
    if not ok:
        _refuse_ribbon(vrows, erows)
    return RibbonGraph.build(rotations, erows), (degrees or None)


def _refuse_ribbon(vrows: list, erows: list):
    """Raise the error of the first fault in a graph file's rows, stepping
    through them one at a time."""
    rotations = {}
    degrees = {}
    for row in vrows:
        vid = _typed(_need(row, "id", "vertex entry"), str, "vertex id")
        if vid in rotations:
            raise ParseError(f"graph file: vertex {vid!r} listed twice")
        rotations[vid] = _strings(_need(row, "rotation", f"vertex {vid!r}"),
                                  f"rotation of {vid!r}")
        if "degree" in row:
            degrees[vid] = _typed(row["degree"], int, f"degree of {vid!r}")
            if degrees[vid] < 1:
                raise ParseError(f"degree of {vid!r}: expected a positive integer, "
                                 f"got {degrees[vid]}")
    if degrees and set(degrees) != set(rotations):
        missing = sorted(set(rotations) - set(degrees))
        raise ParseError(f"degrees given for some vertices but not {missing}")
    [_strings(e, "edge") for e in erows]
    raise InvariantError("the bulk checks refused a valid graph file")


def ribbon_to_dict(graph: RibbonGraph, degrees=None) -> dict:
    vertices = []
    for v in sorted(graph.vertices):
        row = {"id": v, "rotation": list(graph.stars[v])}
        if degrees is not None:
            row["degree"] = degrees[v]
        vertices.append(row)
    return {"vertices": vertices,
            "edges": [list(pair) for pair in graph.edge_pairs()]}


def afbg_to_dict(a: Afbg) -> dict:
    return ribbon_to_dict(a.graph, a.degrees)


def graph_json(graph: RibbonGraph, degrees=None, extra=None) -> str:
    """``dumps({**ribbon_to_dict(graph, degrees), **extra})``, written without
    the dict tree: ids by their literals, each list joined once."""
    literal = json.encoder.encode_basestring_ascii
    vertices = []
    for v in sorted(graph.vertices):
        degree = "" if degrees is None else f',\n      "degree": {degrees[v]}'
        vertices.append(f'{{\n      "id": {literal(v)},\n      "rotation": [\n        '
                        + ",\n        ".join(map(literal, graph.stars[v]))  # never empty
                        + f'\n      ]{degree}\n    }}')
    edges = [f"[\n      {literal(x)},\n      {literal(y)}\n    ]" for x, y in graph.edge_pairs()]
    return _document({"vertices": vertices, "edges": edges, **(extra or {})}, ("vertices", "edges"))


def _document(fields: dict, written: tuple) -> str:
    """``dumps(fields)``, where each list under ``written`` holds its items' JSON."""
    parts = []
    for key, value in fields.items():
        if key in written:
            value = "[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]"
        else:  # indented as a whole: JSON escapes every newline inside a string
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts.append(f"{json.encoder.encode_basestring_ascii(key)}: {value}")
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def parse_cut(text: str) -> dict:
    obj = _load(text)
    if not isinstance(obj, list):
        raise ParseError("cut file: expected a list of {vertex, half_edge}")
    cut = {}
    for row in obj:
        v = _typed(_need(row, "vertex", "cut entry"), str, "cut vertex")
        h = _typed(_need(row, "half_edge", "cut entry"), str, "cut half-edge")
        if v in cut:
            raise ParseError(f"cut file: vertex {v!r} listed twice")
        cut[v] = h
    return cut


# -- gentle presentations ------------------------------------------------------

def parse_gentle(text: str) -> GentlePresentation:
    obj = _load(text)
    vertices = _strings(_need(obj, "vertices", "gentle file"), "gentle vertices")
    arrows = [tuple(_typed(_need(a, key, "arrow entry"), str, f"arrow {key!r}")
                    for key in ("id", "from", "to"))
              for a in _typed(_need(obj, "arrows", "gentle file"), list, "gentle arrows")]
    rels = []
    for pair in _typed(obj.get("zero_relations", []), list, "gentle zero_relations"):
        if len(_strings(pair, "gentle relation")) != 2:
            raise ParseError(f"gentle file: bad relation {pair!r}")
        rels.append((pair[0], pair[1]))
    return GentlePresentation.build(vertices, arrows, rels)


# -- Loewy data ----------------------------------------------------------------

def parse_loewy(text: str) -> LoewyData:
    """The Loewy table in ``text``: each well-formed row becomes a LoewyRow as it
    is decoded; a table with any other row is decoded again, for the message."""
    entries = set()  # every entry of a joined strand

    def read_row(obj: dict):
        label, s, socle = obj.get("id"), obj.get("strands"), obj.get("socle")
        if (type(label) is str and type(socle) is str and type(s) is list and len(s) <= 2
                and {list}.issuperset(map(type, s))):
            try:
                strands = (*map(EDGE_SEP.join, s), "", "")[:2]
            except TypeError:  # an entry that is not a string: left as an object
                return obj
            uniserial = not all(strands)
            if obj.get("uniserial", uniserial) is uniserial:  # absent, or the same bool
                entries.update(*s)
                return LoewyRow(label, strands, socle)
        return obj

    rows = _load(text, read_row)
    if type(rows) is list and {LoewyRow}.issuperset(map(type, rows)):
        data = LoewyData._of_texts(rows, entries)
        if data is not None:
            return data
    return LoewyData.build(_loewy_rows(_load(text)))


def _loewy_rows(obj) -> list:
    if not isinstance(obj, list):
        raise ParseError("loewy file: expected a list of rows")
    raw = []
    for row in obj:
        label = _need(row, "id", "loewy row")
        where = f"loewy row {label!r}"
        strands = [_strings(s, f"{where} strand")
                   for s in _typed(_need(row, "strands", where), list, f"{where} strands")]
        socle = _typed(_need(row, "socle", where), str, f"{where} socle")
        uniserial = sum(1 for s in strands if s) <= 1
        if _typed(row.get("uniserial", uniserial), bool, f"{where} uniserial") != uniserial:
            raise InconsistentInput(
                f"simple {label!r}: uniserial flag contradicts the strands")
        raw.append((label, strands, socle))
    return raw


def loewy_to_list(a: Afbg) -> list:
    """``loewy_json(a)`` decoded.  No command calls it; it stays a public
    name because the benchmark's trace layer wraps it by name."""
    return _load(loewy_json(a))


def loewy_json(a: Afbg) -> str:
    """The Loewy file of ``a``, edges labelled by ``loewy_labels``: one row per
    edge, by label, in the bytes ``dumps`` writes.  A strand (the rotation walk
    of length d - 1 after a half-edge) is a slice of its star's label literals,
    joined once and repeated until all fit (``presentation.cut_walks``)."""
    _check_budget(dimension(a), "algebra of dimension")
    name = loewy_labels(a.graph)  # the checks of LoewyData.build, per label, star and edge
    lit = {l: json.encoder.encode_basestring_ascii(l) for l in name.values()
           if isinstance(l, str) and l and EDGE_SEP not in l}
    if len(lit) < len(name):
        raise InputError("simple labels must be distinct, non-empty and free of '~'")
    # one row per edge, by label; every half-edge labelled in one pass over the pairs
    rows = sorted((name[x + EDGE_SEP + y], x, y) for x, y in a.graph.pairing.items() if x < y)
    label = {h: l for l, x, y in rows for h in (x, y)}
    strands = {}  # half-edge -> the JSON of its strand's labels
    for v, star in a.graph.stars.items():
        lits = [lit[label[h]] for h in star]
        val, d = len(star), a.degrees[v]  # the walk of length d - 1 from rotation(h)
        walks = [((i + 1) % val, d - 1) for i in range(val)]
        strands.update(zip(star, cut_walks(lits, ",\n        ", walks)))
    out, socles = [], set()
    for n, (l, x, y) in enumerate(rows):
        socle = label[a.nakayama[x]]
        if socle != label[a.nakayama[y]]:  # forced by admissibility (a)
            raise InvariantError(f"the two full walks of edge {l!r} end on different edges")
        socles.add(socle)
        sx, sy = strands[x], strands[y]
        out += (",\n  " if n else "[\n  ", '{\n    "id": ', lit[l], ',\n    "strands": [\n      ')
        for strand, after in ((sx, ",\n      "), (sy, '\n    ],\n    "uniserial": ')):
            out += ("[\n        ", strand, "\n      ]", after) if strand else ("[]", after)
        out += ("false" if sx and sy else "true", ',\n    "socle": ', lit[socle], "\n  }")
    if socles != lit.keys():
        raise InconsistentInput("socles must permute the simples (each label exactly once)")
    return "".join([*out, "\n]\n"]) if out else "[]\n"


# -- presentations ---------------------------------------------------------------

def presentation_to_dict(p: Presentation) -> dict:
    """``presentation_json(p)`` decoded, for a closed graph or a window.  No
    command calls it, nor its alias ``bordered_to_dict``; both stay public
    names because the benchmark's trace layer wraps them by name."""
    return _load(presentation_json(p))


bordered_to_dict = presentation_to_dict


def presentation_json(p: Presentation) -> str:
    """The presentation JSON of ``p``, in the bytes ``dumps`` writes for its
    dict tree, without building the tree.  A window adds its bounds and its
    dangling arrows (those with no target) and leaves out the dimension.
    Arrows are written as they are listed, and each commutation walk is cut
    from its orbit's text of arrow-name literals (``presentation.walk_texts``);
    the other fields go through ``json.dumps``, indented one level."""
    literal = json.encoder.encode_basestring_ascii
    walk = walk_texts(p, lambda h: literal(arrow_name(h)), ",\n        ")
    w, arrows = p.window, p.arrows()
    fields = {"conventions": PATH_CONVENTIONS,
              **({} if w is None else {"window": [w.lo, w.hi]}),
              "vertices": p.quiver_vertices(),
              "arrows": [f'{{\n      "id": {literal(name)},\n      "from": {literal(source)},'
                         f'\n      "to": {"null" if target is None else literal(target)}'
                         "\n    }" for name, source, target in arrows],
              **({} if w is None else {"dangling": [a for a, _, t in arrows if t is None]}),
              "commutation_relations": [f"[\n      [\n        {walk[x]}\n      ],\n      "
                                        f"[\n        {walk[y]}\n      ]\n    ]"
                                        for (x, _), (y, _) in p.commutations],
              "zero_relations": p.zero_relations(),
              **({"dimension": dimension(p.afbg)} if w is None else {})}
    return _document(fields, ("arrows", "commutation_relations"))


# -- DOT rendering ---------------------------------------------------------------

def _q(s: str) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_of_graph(graph: RibbonGraph, degrees=None) -> str:
    lines = ["graph G {"]
    for v in sorted(graph.vertices):
        label = v if degrees is None else f"{v} (d={degrees[v]})"
        rot = ",".join(graph.stars[v])
        lines.append(f"  {_q(v)} [label={_q(label)}, rotation={_q(rot)}];")
    for x, y in graph.edge_pairs():
        lines.append(f"  {_q(graph.attach[x])} -- {_q(graph.attach[y])} "
                     f"[label={_q(graph.edge_of(x))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_of_presentation(p) -> str:
    """Directed quiver of a presentation; dangling arrows of a window
    point at a shared boundary node."""
    lines = ["digraph Q {"]
    for v in p.quiver_vertices():
        lines.append(f"  {_q(v)};")
    boundary = False
    for name, source, target in p.arrows():
        if target is None:
            boundary = True
            lines.append(f"  {_q(source)} -> boundary [label={_q(name)}, style=dashed];")
        else:
            lines.append(f"  {_q(source)} -> {_q(target)} [label={_q(name)}];")
    if boundary:
        lines.append('  boundary [shape=plaintext, label="…"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """``obj`` as JSON: two-space indents, ASCII escapes and a final newline."""
    return json.dumps(obj, indent=2) + "\n"
