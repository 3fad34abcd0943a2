"""Command-line interface.

Exit codes: 0 success / positive verdict; 1 input problem (malformed
command line, parse error, structural error, unrealizable Loewy data);
2 mathematical precondition failure; 3 negative verdict (invariants
distinguished, not isomorphic); 4 ambiguous reconstruction.

The parser is built once, when this module is imported, so ``main`` can be
called repeatedly in-process at the cost of parsing alone.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import fileio
from .afbg import Afbg, is_admissible, reduced_form, rep_finite_report
from .covering import cover_finite, smallest_cut
from .errors import AmbiguityError, InputError, InvalidCut, MathPreconditionError, MissingDegree
from .gentle import r_fold_trivial_extension, repetitive_window, trivial_extension
from .invariants import compare, fingerprint
from .presentation import build_presentation, dimension, render_text
from .reconstruct import reconstruct_afbg
from .ribbon import canonical_code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _graph_text(graph, degrees=None, extra=None) -> str:
    lines = [f"vertices: {len(graph.vertices)}  edges: {graph.num_edges()}  "
             f"faces: {len(graph.faces())}"]
    for v in sorted(graph.vertices):
        deg = f"  degree {degrees[v]}" if degrees else ""
        lines.append(f"  {v}: ({' '.join(graph.stars[v])}){deg}")
    lines.append("edges: " + ", ".join(graph.edge_ids()))
    lines.extend(f"{k}: {v}" for k, v in (extra or {}).items())
    return "\n".join(lines) + "\n"


def _graph_output(graph, degrees=None, extra=None) -> dict:
    """A graph's renderers; ``extra`` facts follow the graph in text and json."""
    return {"text": lambda: _graph_text(graph, degrees, extra),
            "json": lambda: fileio.graph_json(graph, degrees, extra),
            "dot": lambda: fileio.dot_of_graph(graph, degrees)}


def _load_afbg(path: str) -> Afbg:
    graph, degrees = fileio.parse_ribbon(_read(path))
    if degrees is None:
        raise MissingDegree(f"{path}: this command needs vertex degrees")
    return Afbg.build(graph, degrees)


def _pick_cut(args, graph):
    if getattr(args, "cut", None):
        return fileio.parse_cut(_read(args.cut))
    if getattr(args, "auto_cut", False):
        return smallest_cut(graph)
    raise InvalidCut("pass --cut FILE or --auto-cut")


def _parse_window(arg: str):
    lo, sep, hi = arg.partition(":")
    if not sep:
        raise InputError(f"--window expects lo:hi, got {arg!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"--window expects integers, got {arg!r}") from exc


# -- subcommands -----------------------------------------------------------------
# Each ``cmd_*`` computes its result once and returns (exit code, renderers):
# a zero-argument callable per format; ``main`` calls the requested one or "text".

def _validation(graph, degrees) -> dict:
    res = {"ribbon_ok": True, "connected": graph.connected,
           "num_vertices": len(graph.vertices), "num_edges": graph.num_edges(),
           "num_faces": len(graph.faces())}
    if degrees is None:
        return res
    a, violations = is_admissible(graph, degrees)
    res["admissible"] = a is not None
    res["violations"] = [str(v) for v in violations]
    if a is None:
        return res
    res["multiplicities"] = {v: str(m) for v, m in a.multiplicities().items()}
    res["brauer_graph"] = a.is_brauer_graph()
    res["nakayama_order"] = a.nakayama_order()
    if not graph.connected:  # two disjoint Brauer trees are rep-finite: no verdict here
        return {**res, "finite_type": None, "finite_type_reason": "graph is disconnected"}
    rep = rep_finite_report(a)
    res["finite_type"] = rep.rep_finite
    if rep.rep_finite:
        res["tree_edges"] = rep.tree_edge_count
        res["exceptional_multiplicity"] = rep.exceptional_multiplicity
        res["candidate_order"] = rep.nakayama_order
    else:
        res["finite_type_reason"] = rep.reason
    return res


def _validation_text(res: dict) -> str:
    lines = ["ribbon structure: ok",
             f"vertices: {res['num_vertices']}  edges: {res['num_edges']}  "
             f"faces: {res['num_faces']}",
             f"connected: {'yes' if res['connected'] else 'no'}"]
    if "admissible" not in res:
        lines.append("degrees: absent (structure check only)")
    elif not res["admissible"]:
        lines.append("admissible: no")
        lines.extend(f"  {v}" for v in res["violations"])
    else:
        lines.append("admissible: yes")
        mults = ", ".join(f"{v}={m}" for v, m in sorted(res["multiplicities"].items()))
        lines.append(f"multiplicities: {mults}")
        lines.append(f"brauer graph: {'yes' if res['brauer_graph'] else 'no'}")
        lines.append(f"nakayama order: {res['nakayama_order']}")
        if res["finite_type"]:
            lines.append(f"finite type: yes (tree edges {res['tree_edges']}, "
                         f"exceptional multiplicity {res['exceptional_multiplicity']}, "
                         f"candidate order {res['candidate_order']})")
        else:
            verdict = "no" if res["finite_type"] is False else "not decided"
            lines.append(f"finite type: {verdict} ({res['finite_type_reason']})")
    return "\n".join(lines) + "\n"


def _window_text(win) -> str:
    vertices, arrows = win.quiver_vertices(), win.arrows()
    lines = [f"window sheets {win.window.lo}..{win.window.hi}",
             f"quiver vertices ({len(vertices)}): " + ", ".join(vertices),
             f"arrows ({len(arrows)}):"]
    for name, source, target in arrows:
        lines.append(f"  {name}: {source} -> {'(out of window)' if target is None else target}")
    lines.append(f"commutation relations inside window: {len(win.commutations)}")
    lines.append(f"zero relations inside window: {len(win.window.rotation)}")  # per rotation step
    return "\n".join(lines) + "\n"


def _fingerprint_text(d: dict) -> str:
    lines = [f"vertices: {d['num_vertices']}",
             f"edges: {d['num_edges']}",
             f"multiplicities: {', '.join(d['multiplicities'])}",
             f"bipartite: {'yes' if d['bipartite'] else 'no'}",
             f"nakayama order: {d['nakayama_order']}",
             f"reduced form: {d['reduced']['num_vertices']} vertices, "
             f"{d['reduced']['num_edges']} edges, "
             f"multiplicities {', '.join(d['reduced']['multiplicities'])}, "
             f"bipartite {'yes' if d['reduced']['bipartite'] else 'no'}",
             f"face perimeters: {list(d['face_perimeters'])}",
             f"special orbits: {list(d['special_orbits'])}"]
    return "\n".join(lines) + "\n"


def cmd_validate(args):
    res = _validation(*fileio.parse_ribbon(_read(args.graph)))
    return (2 if res.get("admissible") is False else 0,
            {"text": lambda: _validation_text(res), "json": lambda: fileio.dumps(res)})


def _presentation_output(pres) -> dict:
    return {"text": lambda: render_text(pres) + f"\ndimension: {dimension(pres.afbg)}\n",
            "json": lambda: fileio.presentation_json(pres),
            "dot": lambda: fileio.dot_of_presentation(pres)}


def cmd_present(args):
    return 0, _presentation_output(build_presentation(_load_afbg(args.graph)))


def cmd_reduce(args):
    red = reduced_form(_load_afbg(args.graph))
    return 0, _graph_output(red.graph, red.degrees)


def cmd_cover(args):
    a = _load_afbg(args.graph)
    res = cover_finite(a, _pick_cut(args, a.graph), args.r)
    return 0, _graph_output(res.cover.graph, res.cover.degrees, {"sheets": res.sheets})


def cmd_gentle_trivext(args):
    p = fileio.parse_gentle(_read(args.gentle))
    pres = trivial_extension(p) if args.r == 1 else r_fold_trivial_extension(p, args.r)
    return 0, _presentation_output(pres)


def cmd_repetitive_window(args):
    p = fileio.parse_gentle(_read(args.gentle))
    win = repetitive_window(p, *_parse_window(args.window))
    return 0, {"text": lambda: _window_text(win),
               "json": lambda: fileio.presentation_json(win),
               "dot": lambda: fileio.dot_of_presentation(win)}


def cmd_invariants(args):
    fp = fingerprint(_load_afbg(args.graph))
    return 0, {"text": lambda: _fingerprint_text(fp.as_dict()),
               "json": lambda: fileio.dumps(fp.as_dict())}


def cmd_compare(args):
    result = compare(_load_afbg(args.left), _load_afbg(args.right))
    return (0 if result.consistent else 3,
            {"text": lambda: result.describe() + "\n",
             "json": lambda: fileio.dumps({"consistent": result.consistent,
                                           "distinguished_by": result.distinguished_by,
                                           "left": result.left.as_dict(),
                                           "right": result.right.as_dict()})})


def cmd_reconstruct(args):
    res = reconstruct_afbg(fileio.parse_loewy(_read(args.loewy)))
    labels = {eid: res.edge_labels[eid] for eid in sorted(res.edge_labels)}
    return 0, _graph_output(res.afbg.graph, res.afbg.degrees,
                            {"edge_labels": labels, "wirings_tried": res.wirings_tried})


def cmd_iso(args):
    ga, da = fileio.parse_ribbon(_read(args.left))
    gb, db = fileio.parse_ribbon(_read(args.right))
    if (da is None) != (db is None):
        raise InputError("either both graphs carry degrees or neither")
    same = canonical_code(ga, da) == canonical_code(gb, db)
    return (0 if same else 3,
            {"text": lambda: ("isomorphic" if same else "not isomorphic") + "\n",
             "json": lambda: fileio.dumps({"isomorphic": same})})


def cmd_export(args):
    graph, degrees = fileio.parse_ribbon(_read(args.graph))
    if not args.loewy:
        return 0, _graph_output(graph, degrees)
    if degrees is None:
        raise MissingDegree("--loewy needs vertex degrees")
    a = Afbg.build(graph, degrees)
    return 0, {"text": lambda: fileio.loewy_json(a)}


# -- wiring ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an ``InputError`` (exit 1, one
    line) instead of printing usage and exiting 2; subparsers share the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fbga",
        description="Brauer-graph algebras with fractional multiplicities: "
                    "presentations, coverings, gentle trivial extensions, "
                    "invariants, and Loewy reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        for arg in positionals:
            sp.add_argument(arg)
        return sp

    add("validate", cmd_validate, "check ribbon structure and admissibility", "graph")
    add("present", cmd_present, "quiver, relations and dimension", "graph")
    add("reduce", cmd_reduce, "reduced form (quotient by rotation-power orbits)", "graph")

    sp = add("cover", cmd_cover, "r-sheeted cyclic cover along a cut", "graph")
    sp.add_argument("--r", type=int, required=True, help="number of sheets")
    sp.add_argument("--cut", help="cut file (one half-edge per vertex)")
    sp.add_argument("--auto-cut", action="store_true",
                    help="cut at the smallest half-edge of each vertex")

    sp = add("gentle-trivext", cmd_gentle_trivext,
             "trivial extension of a gentle presentation (r-fold with --r)", "gentle")
    sp.add_argument("--r", type=int, default=1)

    sp = add("repetitive-window", cmd_repetitive_window,
             "window of the repetitive algebra of a gentle presentation", "gentle")
    sp.add_argument("--window", required=True, metavar="lo:hi")

    add("invariants", cmd_invariants, "isomorphism-invariant fingerprint", "graph")
    add("compare", cmd_compare, "compare fingerprints (exit 3 when distinguished)", "left", "right")
    add("reconstruct", cmd_reconstruct, "graph from Loewy data", "loewy")
    add("iso", cmd_iso, "graph isomorphism (degrees included when present)", "left", "right")

    sp = add("export", cmd_export, "re-emit a graph as json/dot, or its Loewy table", "graph")
    sp.add_argument("--loewy", action="store_true",
                    help="emit the Loewy table instead of the graph")

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        code, renderers = args.func(args)
        text = renderers.get(args.format, renderers["text"])()
        try:
            if args.out:  # encoded before the file is opened, so a failure keeps it
                Path(args.out).write_bytes(text.encode(encoding="utf-8"))
            else:
                sys.stdout.write(text)
        except (OSError, UnicodeEncodeError) as exc:
            # only stdout has the locale's encoding, and UTF-8 refuses lone surrogates
            helps = (isinstance(exc, UnicodeEncodeError) and not args.out
                     and not re.search(r"[\ud800-\udfff]", text))
            hint = "; set PYTHONIOENCODING=utf-8" if helps else ""
            raise InputError(f"cannot write {args.out or 'stdout'}: {exc}{hint}") from exc
        return code
    except AmbiguityError as exc:
        print(f"ambiguous: {exc}", file=sys.stderr)
        return 4
    except MathPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
