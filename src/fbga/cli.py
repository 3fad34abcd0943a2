"""Command-line interface.

Exit codes: 0 success / positive verdict; 1 input problem (parse error,
structural error, unrealizable Loewy data); 2 mathematical precondition
failure; 3 negative verdict (invariants distinguished, not isomorphic);
4 ambiguous reconstruction.
"""

from __future__ import annotations

import argparse
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
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _graph_text(graph, degrees=None) -> str:
    lines = [f"vertices: {len(graph.vertices)}  edges: {graph.num_edges()}  "
             f"faces: {len(graph.faces())}"]
    for v in sorted(graph.vertices):
        deg = f"  degree {degrees[v]}" if degrees else ""
        lines.append(f"  {v}: ({' '.join(graph.stars[v])}){deg}")
    lines.append("edges: " + ", ".join(graph.edge_ids()))
    return "\n".join(lines)


def _graph_output(args, graph, degrees=None, extra=None) -> None:
    if args.format == "dot":
        _emit(args, fileio.dot_of_graph(graph, degrees))
    elif args.format == "json":
        obj = fileio.ribbon_to_dict(graph, degrees)
        if extra:
            obj.update(extra)
        _emit(args, fileio.dumps(obj))
    else:
        text = _graph_text(graph, degrees)
        if extra:
            for k, v in extra.items():
                text += f"\n{k}: {v}"
        _emit(args, text + "\n")


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
            lines.append(f"finite type: no ({res['finite_type_reason']})")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    res = _validation(*fileio.parse_ribbon(_read(args.graph)))
    if args.format == "json":
        _emit(args, fileio.dumps(res))
    else:
        _emit(args, _validation_text(res))
    return 2 if res.get("admissible") is False else 0


def _presentation_output(args, pres) -> None:
    if args.format == "dot":
        _emit(args, fileio.dot_of_presentation(pres))
    elif args.format == "json":
        _emit(args, fileio.dumps(fileio.presentation_to_dict(pres)))
    else:
        _emit(args, render_text(pres) + f"\ndimension: {dimension(pres.afbg)}\n")


def cmd_present(args) -> int:
    _presentation_output(args, build_presentation(_load_afbg(args.graph)))
    return 0


def cmd_reduce(args) -> int:
    a = _load_afbg(args.graph)
    red = reduced_form(a)
    _graph_output(args, red.graph, red.degrees)
    return 0


def cmd_cover(args) -> int:
    a = _load_afbg(args.graph)
    cut = _pick_cut(args, a.graph)
    res = cover_finite(a, cut, args.r)
    extra = {"sheets": res.sheets} if args.format != "dot" else None
    _graph_output(args, res.cover.graph, res.cover.degrees, extra)
    return 0


def cmd_gentle_trivext(args) -> int:
    p = fileio.parse_gentle(_read(args.gentle))
    if args.r == 1:
        pres = trivial_extension(p)
    else:
        pres = r_fold_trivial_extension(p, args.r)
    _presentation_output(args, pres)
    return 0


def cmd_repetitive_window(args) -> int:
    p = fileio.parse_gentle(_read(args.gentle))
    lo, hi = _parse_window(args.window)
    win = repetitive_window(p, lo, hi)
    if args.format == "dot":
        _emit(args, fileio.dot_of_presentation(win))
    elif args.format == "json":
        _emit(args, fileio.dumps(fileio.bordered_to_dict(win)))
    else:
        lines = [f"window sheets {lo}..{hi}",
                 f"quiver vertices ({len(win.quiver_vertices)}): "
                 + ", ".join(win.quiver_vertices),
                 f"arrows ({len(win.arrows)}):"]
        for name in sorted(win.arrows):
            a = win.arrows[name]
            tgt = a.target if a.target is not None else "(out of window)"
            lines.append(f"  {name}: {a.source} -> {tgt}")
        lines.append(f"commutation relations inside window: "
                     f"{len(win.commutation_relations)}")
        lines.append(f"zero relations inside window: {len(win.zero_relations)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_invariants(args) -> int:
    a = _load_afbg(args.graph)
    fp = fingerprint(a)
    if args.format == "json":
        _emit(args, fileio.dumps(fp.as_dict()))
    else:
        d = fp.as_dict()
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
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    a = _load_afbg(args.left)
    b = _load_afbg(args.right)
    result = compare(a, b)
    if args.format == "json":
        obj = {"consistent": result.consistent,
               "distinguished_by": result.distinguished_by,
               "left": result.left.as_dict(),
               "right": result.right.as_dict()}
        _emit(args, fileio.dumps(obj))
    else:
        _emit(args, result.describe() + "\n")
    return 0 if result.consistent else 3


def cmd_reconstruct(args) -> int:
    data = fileio.parse_loewy(_read(args.loewy))
    res = reconstruct_afbg(data)
    labels = {eid: res.edge_labels[eid] for eid in sorted(res.edge_labels)}
    extra = {"edge_labels": labels, "wirings_tried": res.wirings_tried}
    _graph_output(args, res.afbg.graph, res.afbg.degrees,
                  extra if args.format != "dot" else None)
    return 0


def cmd_iso(args) -> int:
    ga, da = fileio.parse_ribbon(_read(args.left))
    gb, db = fileio.parse_ribbon(_read(args.right))
    if (da is None) != (db is None):
        raise InputError("either both graphs carry degrees or neither")
    same = canonical_code(ga, da) == canonical_code(gb, db)
    _emit(args, ("isomorphic" if same else "not isomorphic") + "\n")
    return 0 if same else 3


def cmd_export(args) -> int:
    graph, degrees = fileio.parse_ribbon(_read(args.graph))
    if args.loewy:
        if degrees is None:
            raise MissingDegree("--loewy needs vertex degrees")
        a = Afbg.build(graph, degrees)
        _emit(args, fileio.dumps(fileio.loewy_to_list(a)))
    else:
        _graph_output(args, graph, degrees)
    return 0


# -- wiring ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbga",
        description="Brauer-graph algebras with fractional multiplicities: "
                    "presentations, coverings, gentle trivial extensions, "
                    "invariants, and Loewy reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        return sp

    sp = add("validate", cmd_validate, "check ribbon structure and admissibility")
    sp.add_argument("graph")

    sp = add("present", cmd_present, "quiver, relations and dimension")
    sp.add_argument("graph")

    sp = add("reduce", cmd_reduce, "reduced form (quotient by rotation-power orbits)")
    sp.add_argument("graph")

    sp = add("cover", cmd_cover, "r-sheeted cyclic cover along a cut")
    sp.add_argument("graph")
    sp.add_argument("--r", type=int, required=True, help="number of sheets")
    sp.add_argument("--cut", help="cut file (one half-edge per vertex)")
    sp.add_argument("--auto-cut", action="store_true",
                    help="cut at the smallest half-edge of each vertex")

    sp = add("gentle-trivext", cmd_gentle_trivext,
             "trivial extension of a gentle presentation (r-fold with --r)")
    sp.add_argument("gentle")
    sp.add_argument("--r", type=int, default=1)

    sp = add("repetitive-window", cmd_repetitive_window,
             "window of the repetitive algebra of a gentle presentation")
    sp.add_argument("gentle")
    sp.add_argument("--window", required=True, metavar="lo:hi")

    sp = add("invariants", cmd_invariants, "isomorphism-invariant fingerprint")
    sp.add_argument("graph")

    sp = add("compare", cmd_compare, "compare fingerprints (exit 3 when distinguished)")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("reconstruct", cmd_reconstruct, "graph from Loewy data")
    sp.add_argument("loewy")

    sp = add("iso", cmd_iso, "graph isomorphism (degrees included when present)")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("export", cmd_export, "re-emit a graph as json/dot, or its Loewy table")
    sp.add_argument("graph")
    sp.add_argument("--loewy", action="store_true",
                    help="emit the Loewy table instead of the graph")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
