"""JSON input/output and DOT rendering.

Graph files look like::

    {"vertices": [{"id": "u", "degree": 2, "rotation": ["h", "hp"]}, ...],
     "edges": [["h", "ih"], ...]}

"degree" is optional per vertex but must be given for all vertices or
none.  Cut files are ``[{"vertex": ..., "half_edge": ...}]``.  Gentle
files are ``{"vertices": [...], "arrows": [{"id","from","to"}],
"zero_relations": [[later, earlier]]}`` — a listed relation kills the
composite later∘earlier.  Loewy files are a list of ``{"id", "strands",
"socle"}`` rows ("uniserial" optional; derived when absent).

Exported paths list arrows in application order (first arrow first);
exported zero relations are ``[later, earlier]`` pairs.
"""

from __future__ import annotations

import json

from .afbg import Afbg
from .errors import ParseError
from .gentle import GentlePresentation
from .presentation import Presentation
from .reconstruct import LoewyData
from .ribbon import RibbonGraph

PATH_CONVENTIONS = {
    "paths": "arrow lists are in application order (first arrow first)",
    "zero_relations": "[later, earlier]: the composite later∘earlier vanishes",
}


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


# -- ribbon graphs -------------------------------------------------------------

def parse_ribbon(text: str):
    """Returns (RibbonGraph, degrees-or-None)."""
    obj = _load(text)
    vrows = _need(obj, "vertices", "graph file")
    erows = _need(obj, "edges", "graph file")
    rotations = {}
    degrees = {}
    for row in vrows:
        vid = _need(row, "id", "vertex entry")
        rotations[vid] = list(_need(row, "rotation", f"vertex {vid!r}"))
        if "degree" in row:
            degrees[vid] = row["degree"]
    if degrees and set(degrees) != set(rotations):
        missing = sorted(set(rotations) - set(degrees))
        raise ParseError(f"degrees given for some vertices but not {missing}")
    graph = RibbonGraph.build(rotations, [list(e) for e in erows])
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
        v = _need(row, "vertex", "cut entry")
        h = _need(row, "half_edge", "cut entry")
        if v in cut:
            raise ParseError(f"cut file: vertex {v!r} listed twice")
        cut[v] = h
    return cut


def cut_to_list(cut: dict) -> list:
    return [{"vertex": v, "half_edge": cut[v]} for v in sorted(cut)]


# -- gentle presentations ------------------------------------------------------

def parse_gentle(text: str) -> GentlePresentation:
    obj = _load(text)
    vertices = _need(obj, "vertices", "gentle file")
    arrows = [( _need(a, "id", "arrow entry"),
                _need(a, "from", "arrow entry"),
                _need(a, "to", "arrow entry"))
              for a in _need(obj, "arrows", "gentle file")]
    rels = []
    for pair in obj.get("zero_relations", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
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
        strands = [tuple(s) for s in _need(row, "strands", f"loewy row {label!r}")]
        socle = _need(row, "socle", f"loewy row {label!r}")
        nonempty = sum(1 for s in strands if s)
        uniserial = row.get("uniserial", nonempty <= 1)
        raw.append((label, strands, uniserial, socle))
    return LoewyData.build(raw)


def loewy_to_list(a: Afbg) -> list:
    from .reconstruct import loewy_data_of

    data, _ = loewy_data_of(a)
    return [{"id": r.label,
             "strands": [list(s) for s in r.strands],
             "uniserial": r.uniserial,
             "socle": r.socle}
            for r in data.rows]


# -- presentations ---------------------------------------------------------------

def presentation_to_dict(p: Presentation) -> dict:
    from .presentation import dimension

    return {
        "conventions": dict(PATH_CONVENTIONS),
        "vertices": list(p.quiver_vertices),
        "arrows": [{"id": a.name, "from": a.source, "to": a.target}
                   for a in sorted(p.arrows.values(), key=lambda a: a.name)],
        "commutation_relations": [[list(w1), list(w2)]
                                  for w1, w2 in p.commutation_relations],
        "zero_relations": [list(z) for z in p.zero_relations],
        "dimension": dimension(p.afbg),
    }


def bordered_to_dict(b: Presentation) -> dict:
    """A repetitive window (a presentation whose ``window`` is set)."""
    return {
        "conventions": dict(PATH_CONVENTIONS),
        "window": [b.window.lo, b.window.hi],
        "vertices": list(b.quiver_vertices),
        "arrows": [{"id": a.name, "from": a.source, "to": a.target}
                   for a in sorted(b.arrows.values(), key=lambda a: a.name)],
        "dangling": list(b.dangling),
        "commutation_relations": [[list(w1), list(w2)]
                                  for w1, w2 in b.commutation_relations],
        "zero_relations": [list(z) for z in b.zero_relations],
    }


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
    for a in sorted(p.arrows.values(), key=lambda a: a.name):
        if a.target is None:
            boundary = True
            lines.append(f"  {_q(a.source)} -> boundary [label={_q(a.name)}, style=dashed];")
        else:
            lines.append(f"  {_q(a.source)} -> {_q(a.target)} [label={_q(a.name)}];")
    if boundary:
        lines.append('  boundary [shape=plaintext, label="…"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
