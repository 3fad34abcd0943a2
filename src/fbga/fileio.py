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
degrees are positive integers.  The structure of a graph or gentle file (its
keys, a graph's vertex ids) is checked here, as a :class:`ParseError`, and its
values by the builder that takes them; a cut or Loewy file's types are
ParseErrors too.

Exported paths list arrows in application order (first arrow first);
exported zero relations are ``[later, earlier]`` pairs.  Every JSON output
is what ``dumps`` writes: ``json.dumps(obj, indent=2)`` and a newline.
Graphs, presentations and Loewy tables each have one writer, ``graph_json``,
``presentation_json`` and ``loewy_json``, which write those bytes without
the dict tree: each list or dict that grows with the input is joined once
from its items' literals, each strand or relation walk is cut from its
orbit's text, rendered once (``presentation.cut_walks``), and ``json.dumps``
sees only the fixed-size fields (``conventions``, ``window``, ``dimension``,
``sheets``, ``wirings_tried``).
"""

from __future__ import annotations

import json

from .afbg import Afbg
from .errors import InconsistentInput, InvariantError, ParseError
from .gentle import GentlePresentation
from .presentation import (ARROW_PREFIX, Presentation, _check_budget, cut_walks, dimension,
                           walk_texts)
from .reconstruct import LoewyData, LoewyRow, loewy_labels
from .ribbon import EDGE_SEP, RibbonGraph, _check_degrees

PATH_CONVENTIONS = {
    "paths": "arrow lists are in application order (first arrow first)",
    "zero_relations": "[later, earlier]: the composite later∘earlier vanishes",
}
_literal = json.encoder.encode_basestring_ascii  # a string's JSON, non-ASCII escaped


def _load(text: str, object_hook=None):
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def _typed(value, kind, where: str):
    """``value`` if it is a ``kind``, else a ParseError."""
    if not isinstance(value, kind):
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
    """Returns (RibbonGraph, degrees-or-None).  One pass over the rows checks the
    keys and ids; ``RibbonGraph.build`` and ``_check_degrees`` check the values."""
    obj = _load(text)
    vrows = _typed(_need(obj, "vertices", "graph file"), list, "graph vertices")
    erows = _typed(_need(obj, "edges", "graph file"), list, "graph edges")
    rotations, degrees = {}, {}
    for row in vrows:
        vid = _typed(_need(row, "id", "vertex entry"), str, "vertex id")
        if vid in rotations:
            raise ParseError(f"graph file: vertex {vid!r} listed twice")
        if "rotation" not in row:  # as _need says it, with no message made for a good row
            raise ParseError(f"vertex {vid!r}: missing key 'rotation'")
        rotations[vid] = row["rotation"]
        if "degree" in row:
            degrees[vid] = row["degree"]
    graph = RibbonGraph.build(rotations, erows)
    if degrees:
        _check_degrees(graph, degrees)
    return graph, (degrees or None)


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
    the dict tree: ids and edge labels (strings) by their literals, joined once."""
    vertices = []
    for v in sorted(graph.vertices):
        degree = "" if degrees is None else f',\n      "degree": {degrees[v]}'
        vertices.append(f'{{\n      "id": {_literal(v)},\n      "rotation": [\n        '
                        + ",\n        ".join(map(_literal, graph.stars[v]))  # never empty
                        + f'\n      ]{degree}\n    }}')
    edges = [f"[\n      {_literal(x)},\n      {_literal(y)}\n    ]" for x, y in graph.edge_pairs()]
    return _document({"vertices": vertices, "edges": edges, **(extra or {})},
                     ("vertices", "edges", "edge_labels"))


def _document(fields: dict, written: tuple) -> str:
    """``dumps(fields)``; under ``written``, a list holds its items' JSON and a dict str -> str."""
    parts = []
    for key, value in fields.items():
        if key not in written:  # indented as a whole: JSON escapes every newline inside a string
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        elif type(value) is dict:
            items = map(": ".join, zip(map(_literal, value), map(_literal, value.values())))
            value = "{\n    " + ",\n    ".join(items) + "\n  }" if value else "{}"
        else:
            value = "[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]"
        parts.append(f"{_literal(key)}: {value}")
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
    """The file's keys are checked here, its values by ``GentlePresentation.build``."""
    obj = _load(text)
    vertices, arrows = (_need(obj, key, "gentle file") for key in ("vertices", "arrows"))
    if type(arrows) is list:  # anything else is for build to refuse
        arrows = [tuple(_need(a, key, "arrow entry") for key in ("id", "from", "to"))
                  for a in arrows]
    return GentlePresentation.build(vertices, arrows, obj.get("zero_relations", []))


# -- Loewy data ----------------------------------------------------------------

def parse_loewy(text: str) -> LoewyData:
    """The Loewy table in ``text``: rows become LoewyRows as they are decoded,
    taken if the sides match; any other table is decoded again, for the message."""

    def read_row(obj: dict):
        label, s, socle = obj.get("id"), obj.get("strands"), obj.get("socle")
        if (type(label) is str and type(socle) is str and type(s) is list and len(s) <= 2
                and {list}.issuperset(map(type, s))):
            try:
                strands = (*map(EDGE_SEP.join, s), "", "")[:2]
            except TypeError:  # an entry that is not a string: left as an object
                return obj
            uniserial = not all(strands)
            # a flag absent or the same bool, and each text splits back into its list
            if obj.get("uniserial", uniserial) is uniserial and all(
                    t.count(EDGE_SEP) + 1 == len(x) if t else not x for t, x in zip(strands, s)):
                return LoewyRow(label, strands, socle)
        return obj

    rows = _load(text, read_row)
    if type(rows) is list and {LoewyRow}.issuperset(map(type, rows)):
        data = LoewyData(tuple(sorted(rows)))  # by label, where labels are unique
        if data.follow is not None:
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
    name = loewy_labels(a.graph)  # s0, s1, ...: distinct, non-empty and free of '~'
    lit = {l: _literal(l) for l in name.values()}
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
    Every list is written from its items' literals, and each commutation walk
    is cut from its orbit's text of arrow-name literals (``walk_texts``); the
    fixed-size fields go through ``json.dumps``, indented one level."""
    walk = walk_texts(p, {h: _literal(ARROW_PREFIX + h) for h in p.graph.pairing}.__getitem__,
                      ",\n        ")  # each arrow name's literal made once, dropped after
    w, arrows = p.window, p.arrows()
    fields = {"conventions": PATH_CONVENTIONS,
              **({} if w is None else {"window": [w.lo, w.hi]}),
              "vertices": list(map(_literal, p.quiver_vertices())),
              "arrows": [f'{{\n      "id": {_literal(name)},\n      "from": {_literal(source)},'
                         f'\n      "to": {"null" if target is None else _literal(target)}'
                         "\n    }" for name, source, target in arrows],
              **({} if w is None else
                 {"dangling": [_literal(a) for a, _, t in arrows if t is None]}),
              "commutation_relations": [f"[\n      [\n        {walk[x]}\n      ],\n      "
                                        f"[\n        {walk[y]}\n      ]\n    ]"
                                        for (x, _), (y, _) in p.commutations],
              "zero_relations": [f"[\n      {_literal(later)},\n      {_literal(earlier)}\n    ]"
                                 for later, earlier in p.zero_relations()],
              **({"dimension": dimension(p.afbg)} if w is None else {})}
    return _document(fields, ("vertices", "arrows", "dangling", "commutation_relations",
                              "zero_relations"))


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
