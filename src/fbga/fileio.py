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
exported zero relations are ``[later, earlier]`` pairs.  ``dumps`` writes
tuples as JSON arrays, as ``json.dumps`` does.  A presentation and a Loewy
table each have one writer, ``presentation_json`` and ``loewy_json``, which
build no dict tree: each strand or relation walk is cut from its orbit's
text, rendered once (``presentation.cut_walks``).
"""

from __future__ import annotations

import json

from .afbg import Afbg
from .errors import InconsistentInput, InputError, InvariantError, ParseError
from .gentle import GentlePresentation
from .presentation import Presentation, _check_budget, arrow_name, cut_walks, dimension, walk_texts
from .reconstruct import LoewyData, loewy_labels
from .ribbon import EDGE_SEP, RibbonGraph, edge_id_of_pair

PATH_CONVENTIONS = {
    "paths": "arrow lists are in application order (first arrow first)",
    "zero_relations": "[later, earlier]: the composite later∘earlier vanishes",
}


def _load(text: str):
    try:
        return json.loads(text)
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
    """Returns (RibbonGraph, degrees-or-None)."""
    obj = _load(text)
    vrows = _typed(_need(obj, "vertices", "graph file"), list, "graph vertices")
    erows = _typed(_need(obj, "edges", "graph file"), list, "graph edges")
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
    graph = RibbonGraph.build(rotations, [_strings(e, "edge") for e in erows])
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
    obj = _load(text)
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
    return LoewyData.build(raw)


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
    label = {h: name[edge_id_of_pair(h, p)] for h, p in a.graph.pairing.items()}
    strands = {}  # half-edge -> the JSON of its strand's labels
    for v, star in a.graph.stars.items():
        lits = [lit.get(label[h]) for h in star]
        if None in lits:
            raise InputError(f"a strand at {v!r} mentions an unknown label")
        val, d = len(star), a.degrees[v]  # the walk of length d - 1 from rotation(h)
        walks = [((i + 1) % val, d - 1) for i in range(val)]
        strands.update(zip(star, cut_walks(lits, ",\n        ", walks)))
    out = []
    for n, (l, x, y) in enumerate(sorted((label[x], x, y) for x, y in a.graph.edge_pairs())):
        socle = label[a.nakayama[x]]
        if socle != label[a.nakayama[y]]:  # forced by admissibility (a)
            raise InvariantError(f"the two full walks of edge {l!r} end on different edges")
        sx, sy = strands[x], strands[y]
        out += (",\n  " if n else "[\n  ", '{\n    "id": ', lit[l], ',\n    "strands": [\n      ')
        for strand, after in ((sx, ",\n      "), (sy, '\n    ],\n    "uniserial": ')):
            out += ("[\n        ", strand, "\n      ]", after) if strand else ("[]", after)
        out += ("false" if sx and sy else "true", ',\n    "socle": ', lit[socle], "\n  }")
    if {label[a.nakayama[h]] for h in label} != lit.keys():
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
    dangling arrows and leaves out the dimension.  Arrows are written as
    they are listed, and each commutation walk is cut from its orbit's text
    of arrow-name literals (``presentation.walk_texts``)."""
    literal = _Literals().__getitem__
    walk = walk_texts(p, lambda h: literal(arrow_name(h)), ",\n        ")
    w = p.window
    fields = {"conventions": PATH_CONVENTIONS,
              **({} if w is None else {"window": [w.lo, w.hi]}),
              "vertices": p.quiver_vertices,
              "arrows": [f'{{\n      "id": {literal(name)},\n      "from": {literal(a.source)},'
                         f'\n      "to": {"null" if a.target is None else literal(a.target)}'
                         "\n    }" for name, a in p.arrows.items()],
              **({} if w is None else {"dangling": p.dangling}),
              "commutation_relations": [f"[\n      [\n        {walk[x]}\n      ],\n      "
                                        f"[\n        {walk[y]}\n      ]\n    ]"
                                        for (x, _), (y, _) in p.commutations],
              "zero_relations": p.zero_relations,
              **({"dimension": dimension(p.afbg)} if w is None else {})}
    parts, sep = [], "{\n  "
    for key, value in fields.items():
        parts.append(sep + literal(key) + ": ")
        sep = ",\n  "
        if key in ("arrows", "commutation_relations"):  # items written above
            parts.append("[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]")
        else:
            _emit(value, "\n  ", parts.append, literal)
    parts.append("\n}\n")
    return "".join(parts)


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
    for v in p.quiver_vertices:
        lines.append(f"  {_q(v)};")
    boundary = False
    for name, a in p.arrows.items():
        if a.target is None:
            boundary = True
            lines.append(f"  {_q(a.source)} -> boundary [label={_q(name)}, style=dashed];")
        else:
            lines.append(f"  {_q(a.source)} -> {_q(a.target)} [label={_q(name)}];")
    if boundary:
        lines.append('  boundary [shape=plaintext, label="…"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, for dicts with
    ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None``.

    ``json.dumps`` encodes every value in Python once ``indent`` is set;
    here a list of strings is joined in one C call, and each distinct
    string is encoded once.  The pieces are joined once at the end, so a
    large output is not copied per nesting level.  A non-``str`` key or
    any other type raises ``TypeError``."""
    parts = []
    _emit(obj, "\n", parts.append, _Literals().__getitem__)
    parts.append("\n")
    return "".join(parts)


class _Literals(dict):
    """A string -> its JSON literal, each computed on first use; anything
    that is not a string raises TypeError."""

    def __missing__(self, s):
        self[s] = literal = json.encoder.encode_basestring_ascii(s)
        return literal


def _emit(obj, newline: str, out, literal) -> None:
    """Append the pieces of ``obj``; ``newline`` is a line break followed by
    the indentation of ``obj``'s own line."""
    if isinstance(obj, str):
        out(literal(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        out("[" + inner)
        try:
            out(("," + inner).join(map(literal, obj)))
        except TypeError:  # not a list of strings
            sep = ""
            for item in obj:
                out(sep)
                sep = "," + inner
                _emit(item, inner, out, literal)
        out(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out(sep + literal(key) + ": ")  # TypeError unless key is a str
            sep = "," + inner
            _emit(value, inner, out, literal)
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
