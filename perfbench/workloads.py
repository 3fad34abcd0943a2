"""The three workloads as seeded job lists, with every job's check.

A job is one ``fbga`` subcommand run in-process through ``fbga.cli.main``
with its output captured in memory, or one direct library call for the
functions no subcommand reaches.  ``build`` generates and writes the inputs
and returns one pass of jobs; the runner repeats passes.  Every check
compares a job's output with facts that ``inputs`` derives from the
generated input, never with another fbga call.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from math import gcd
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import inputs as I
from fbga import afbg, cli, covering, presentation, ribbon

WORKLOADS = ("canon", "roundtrip", "algebra")


@dataclass(frozen=True)
class Scale:
    small: int      # most graphs
    mid: int
    large: int      # at least one job per workload at this size
    pairs: int      # small iso pairs per pass (a multiple of 8)
    dipoles: tuple  # parallel-edge counts that reconstruct uniquely
    quiver: int     # vertices of the gentle quivers
    big_degree: int
    basis_star: tuple  # (edges, hub multiplicity) of the memory-heavy basis job


FULL = Scale(50, 200, 800, 24, (8, 9, 10, 11, 12), 20, 200_001, (100, 6))
TINY = Scale(12, 20, 30, 8, (3, 4), 6, 1_001, (20, 2))

# Recorded defect: reconstruct_afbg refuses more than 12 tie pairs as
# "ambiguous" (exit 4) without searching, although the 13-edge dipole has a
# unique reconstruction.  The job stays in ``roundtrip`` and counts as failed.
KNOWN_FAILURE = "exit 4"
CAPPED_DIPOLE = 13


class Mismatch(Exception):
    pass


def need(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Out:
    code: int
    out: str
    err: str


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch
    known_failure: str | None = None


def run_cli(argv: list) -> Out:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Out(code, out.getvalue(), err.getvalue())


def cli_job(name, argv, check, known_failure=None) -> Job:
    argv = [str(x) for x in argv]
    return Job(name, lambda: run_cli(argv), check, known_failure)


def exits(code: int, check=None):
    def run(res: Out):
        need(res.code == code, f"exit {res.code}, expected {code}: {res.err.strip()[:200]}")
        if check is not None:
            check(res.out)
    return run


def json_exit0(check):
    return exits(0, lambda out: check(json.loads(out)))


def write(root: Path, name: str, text: str) -> Path:
    path = root / name
    path.write_text(text)
    return path


def fbga_graph(g: I.Graph):
    return ribbon.RibbonGraph.build(g.rot, g.edges)


def fbga_afbg(g: I.Graph):
    return afbg.Afbg.build(fbga_graph(g), g.deg)


def brauer_mult(i: int) -> int:
    return 1 + i % 2


def cover_base_mult(r: int):
    """Base multiplicities 1 or 1 + r: congruent to 1 mod r, so the
    r-sheeted cover is admissible with multiplicities 1/r or (1 + r)/r."""
    return lambda i: 1 + r * (i % 2)


def variety(rng, count: int, edges: int, covers: bool = True) -> list:
    """(tag, graph) for ``count`` graphs with ``edges`` edges, alternating
    star and mesh, and in pairs Brauer graphs and 2-sheeted covers of
    Brauer graphs (fractional multiplicities)."""
    out = []
    for i in range(count):
        shape, covered = ("star", "mesh")[i % 2], covers and bool(i // 2 % 2)
        g, _ = iso_pair(rng, shape, edges, covered, True)
        out.append((f"{shape}{'c' if covered else ''}{edges}", g))
    return out


# -- canon ---------------------------------------------------------------------

def check_mapping(left: I.Graph, right: I.Graph):
    la, lp, lr = left.maps()
    ra, rp, rr = right.maps()

    def run(phi):
        need(phi is not None, "is_isomorphic found no isomorphism of a relabeled copy")
        need(sorted(phi) == sorted(lp) and sorted(phi.values()) == sorted(rp),
             "mapping is not a half-edge bijection")
        for h, k in phi.items():
            need(phi[lp[h]] == rp[k] and phi[lr[h]] == rr[k]
                 and left.deg[la[h]] == right.deg[ra[k]],
                 f"mapping does not commute at {h}")
    return run


def check_compare_json(left: I.Graph, right: I.Graph):
    def fp_check(fp, g):
        need(fp["num_edges"] == len(g.edges), "edge count")
        need(fp["face_perimeters"] == I.face_lengths(g), "face perimeters")
        need(fp["multiplicities"] == [str(m) for m in sorted(I.multiplicities(g).values())],
             "multiplicities")

    def run(obj):
        # The sides differ at most in one rotation, so every compared field
        # (counts, multiplicities, bipartiteness, Nakayama order, reduced
        # form) agrees and the certificate must say "consistent".
        need(obj["consistent"] is True, "compare distinguished the pair")
        fp_check(obj["left"], left)
        fp_check(obj["right"], right)
    return run


def iso_pair(rng, shape: str, edges: int, covered: bool, positive: bool):
    """A graph and a relabeled copy; for a negative pair the copy first gets
    one rotation changed so that the face lengths differ (for covers the
    change is made at the base, so the copy stays admissible)."""
    make = I.star if shape == "star" else I.mesh
    if covered:
        base = make(rng, edges // 2, cover_base_mult(2))
        left = I.cover(base, 2)
        other = left if positive else I.cover(
            I.swap_rotation(rng, base, lambda b: I.cover(b, 2)), 2)
    else:
        left = make(rng, edges, brauer_mult)
        other = left if positive else I.swap_rotation(rng, left)
    return left, I.relabel(rng, other)


def canon(rng: Random, root: Path, scale: Scale) -> list:
    specs = [(("star", "mesh")[i % 2], scale.small, bool(i // 2 % 2), i // 4 % 2 == 0)
             for i in range(scale.pairs)]
    specs += [(("star", "mesh")[i % 2], scale.mid, bool(i // 2 % 2), i % 3 == 0)
              for i in range(9)]
    specs.append(("star", scale.large, False, True))
    jobs = []
    for k, (shape, edges, covered, positive) in enumerate(specs):
        tag = f"{shape}{'c' if covered else ''}{edges}{'+' if positive else '-'}"
        g, right = iso_pair(rng, shape, edges, covered, positive)
        lp = write(root, f"p{k}l.rg", g.text())
        rp = write(root, f"p{k}r.rg", right.text())
        verdict = "isomorphic\n" if positive else "not isomorphic\n"
        jobs.append(cli_job(f"iso/{tag}", ["iso", lp, rp],
                            exits(0 if positive else 3,
                                  lambda out, v=verdict: need(out == v, f"verdict {out!r}"))))
        if k % 2:
            jobs.append(cli_job(f"compare/{tag}", ["compare", lp, rp, "--format", "json"],
                                json_exit0(check_compare_json(g, right))))
        else:
            jobs.append(cli_job(f"compare/{tag}", ["compare", lp, rp],
                                exits(0, lambda out: need(out.startswith("consistent"),
                                                          f"compare said {out!r}"))))
        g1, g2 = fbga_graph(g), fbga_graph(right)
        jobs.append(Job(f"is_isomorphic/{tag}",
                        lambda g1=g1, g2=g2, d1=g.deg, d2=right.deg:
                            ribbon.is_isomorphic(g1, g2, d1, d2),
                        check_mapping(g, right) if positive else
                        lambda phi: need(phi is None, "non-isomorphic pair matched")))
    return jobs


# -- roundtrip -------------------------------------------------------------------

def check_table(rows: dict):
    def run(obj):
        need(I.rows_of_loewy_json(obj) == rows, "table differs from the strand walker's")
    return run


def check_reconstruction(rows: dict):
    def run(obj):
        g = I.graph_of_json(obj)
        need(I.connected(g), "reconstructed graph is disconnected")
        need(I.loewy_rows(g, obj["edge_labels"]) == rows,
             "reconstructed graph does not reproduce the table")
    return run


def roundtrip(rng: Random, root: Path, scale: Scale) -> list:
    # 16 reconstructions at 200 edges sit just below the largest jobs, so
    # that the tail percentile falls inside a dense group of like jobs
    sources = (variety(rng, 16, scale.small) + variety(rng, 16, scale.mid)
               + variety(rng, 2, scale.large, covers=False))
    for k in scale.dipoles + (CAPPED_DIPOLE,):
        sources.append((f"dipole{k}", I.relabel(rng, I.dipole(k))))

    jobs = []
    for k, (tag, g) in enumerate(sources):
        rows = I.loewy_rows(g)
        gp = write(root, f"t{k}.rg", g.text())
        tp = write(root, f"t{k}.loewy", I.loewy_text(rows))
        jobs.append(cli_job(f"export/{tag}", ["export", gp, "--loewy", "--format", "json"],
                            json_exit0(check_table(rows))))
        jobs.append(cli_job(f"reconstruct/{tag}", ["reconstruct", tp, "--format", "json"],
                            json_exit0(check_reconstruction(rows)),
                            KNOWN_FAILURE if tag == f"dipole{CAPPED_DIPOLE}" else None))
    return jobs


# -- algebra ---------------------------------------------------------------------

GRAPH_COMMANDS = ("present", "present-json", "export", "validate", "validate-json", "reduce",
                  "invariants")
HEADS = re.compile(r"^(quiver vertices|arrows|commutation relations|zero relations)"
                   r"(?: inside window)?:? \(?(\d+)\)?", re.M)


def check_present_text(edges: int, dim: int):
    def run(out):
        heads = {k: int(n) for k, n in HEADS.findall(out)}
        need(heads == {"quiver vertices": edges, "arrows": 2 * edges,
                       "commutation relations": edges, "zero relations": 2 * edges},
             f"counts {heads}")
        need(out.endswith(f"\ndimension: {dim}\n"), "dimension")
    return run


def check_present_json(edges: int, dim: int):
    def run(obj):
        need([len(obj[k]) for k in ("vertices", "arrows", "commutation_relations",
                                    "zero_relations")] == [edges, 2 * edges, edges, 2 * edges],
             "counts")
        need(obj["dimension"] == dim, "dimension")
        # the two full walks of an edge have the degrees of its two ends
        need(sum(len(w) for rel in obj["commutation_relations"] for w in rel) == dim,
             "walk lengths")
    return run


def check_window(edges: int, paths: int):
    """A window of three sheets has 3n edges and 6n arrows; the last arrow
    of each graph vertex on the top sheet dangles, and every other arrow
    has a zero relation inside the window."""
    def run(out):
        heads = {k: int(n) for k, n in HEADS.findall(out)}
        need(heads["quiver vertices"] == edges and heads["arrows"] == 2 * edges
             and heads["zero relations"] == 2 * edges - paths, f"counts {heads}")
        need(out.count("(out of window)") == paths, "dangling arrows")
    return run


def check_validate_text(g: I.Graph):
    mults = I.multiplicities(g)
    expected = [f"vertices: {len(g.rot)}  edges: {len(g.edges)}  faces: {len(I.face_lengths(g))}",
                "admissible: yes",
                "multiplicities: " + ", ".join(f"{v}={m}" for v, m in sorted(mults.items())),
                f"brauer graph: {'yes' if all(m.denominator == 1 for m in mults.values()) else 'no'}"]

    def run(out):
        lines = out.splitlines()
        need(all(line in lines for line in expected), "validate report")
    return run


def check_validate_json(g: I.Graph):
    mults = I.multiplicities(g)

    def run(obj):
        need((obj["num_vertices"], obj["num_edges"], obj["num_faces"], obj["admissible"])
             == (len(g.rot), len(g.edges), len(I.face_lengths(g)), True), "validate counts")
        need(obj["multiplicities"] == {v: str(m) for v, m in mults.items()}, "multiplicities")
        need(obj["brauer_graph"] == all(m.denominator == 1 for m in mults.values()), "brauer")
    return run


def check_reduce(g: I.Graph):
    # The reduced form keeps vertices and degrees; its valency at v is
    # gcd(degree, valency).
    vals = {v: gcd(len(hs), g.deg[v]) for v, hs in g.rot.items()}

    def run(obj):
        red = I.graph_of_json(obj)
        need(red.deg == g.deg, "degrees")
        need({v: len(hs) for v, hs in red.rot.items()} == vals, "valencies")
    return run


def check_invariants_text(g: I.Graph):
    expected = [f"vertices: {len(g.rot)}", f"edges: {len(g.edges)}",
                "multiplicities: " + ", ".join(str(m) for m in
                                               sorted(I.multiplicities(g).values())),
                f"face perimeters: {I.face_lengths(g)}"]

    def run(out):
        lines = out.splitlines()
        need(all(line in lines for line in expected), "invariants report")
    return run


def check_cover(base: I.Graph, r: int):
    """``--auto-cut`` cuts after the smallest half-edge id at each vertex;
    the output must be the benchmark's own cover along that cut (sheet j of
    half-edge h is named h@j)."""
    def cut_at_min(hs):
        k = hs.index(min(hs)) + 1
        return hs[k:] + hs[:k]

    def normal(g: I.Graph):
        return ({v: tuple(cut_at_min(hs)) for v, hs in g.rot.items()},
                sorted(sorted(e) for e in g.edges), g.deg)

    expected = normal(I.cover(I.Graph({v: cut_at_min(hs) for v, hs in base.rot.items()},
                                      base.edges, base.deg), r))

    def run(obj):
        need(obj["sheets"] == r, "sheets")
        need(normal(I.graph_of_json(obj)) == expected, "not the r-sheeted cover along the cut")
    return run


def check_quotient(c: I.Graph, r: int, k: int):
    """ν shifts an r-sheeted cover by one sheet, so ν^k has orbits of size
    r/k and the quotient has k/r of the valency at every vertex."""
    vals = {v: k * len(hs) // r for v, hs in c.rot.items()}

    def run(a):
        need(a.degrees == c.deg, "degrees")
        need({v: len(a.graph.stars[v]) for v in a.graph.vertices} == vals, "valencies")
    return run


def graph_jobs(root: Path, name: str, g: I.Graph, kinds=GRAPH_COMMANDS) -> list:
    """The subcommands ``kinds`` on one graph file."""
    path = write(root, f"{name}.rg", g.text())
    edges, dim = len(g.edges), I.dimension(g)
    make = {
        "present": lambda: (["present", path], exits(0, check_present_text(edges, dim))),
        "present-json": lambda: (["present", path, "--format", "json"],
                                 json_exit0(check_present_json(edges, dim))),
        "export": lambda: (["export", path, "--loewy", "--format", "json"],
                           json_exit0(check_table(I.loewy_rows(g)))),
        "validate": lambda: (["validate", path], exits(0, check_validate_text(g))),
        "validate-json": lambda: (["validate", path, "--format", "json"],
                                  json_exit0(check_validate_json(g))),
        "reduce": lambda: (["reduce", path, "--format", "json"], json_exit0(check_reduce(g))),
        "invariants": lambda: (["invariants", path], exits(0, check_invariants_text(g))),
    }
    return [cli_job(f"{kind}/{name}", *make[kind]()) for kind in kinds]


def algebra(rng: Random, root: Path, scale: Scale) -> list:
    jobs = []
    for k, (tag, g) in enumerate(variety(rng, 8, scale.small) + variety(rng, 2, scale.mid)):
        jobs += graph_jobs(root, f"{tag}-{k}", g)
    (tag, g), = variety(rng, 1, scale.large)
    jobs += graph_jobs(root, tag, g, ("present", "export", "validate"))
    # A dozen equal jobs just below the five largest, so that the tail
    # percentile falls inside a group of like jobs.
    for k in range(12):
        jobs += graph_jobs(root, f"star{scale.mid}-t{k}", I.star(rng, scale.mid), ("export",))

    # covers: fbga's own cover of a Brauer graph, and a present of the
    # benchmark's cover; base multiplicity 1 is congruent mod every r
    for r in range(2, 9):
        base = (I.star if r % 2 else I.mesh)(rng, scale.small)
        bp = write(root, f"base{r}.rg", base.text())
        jobs.append(cli_job(f"cover/r{r}", ["cover", bp, "--r", r, "--auto-cut", "--format", "json"],
                            json_exit0(check_cover(base, r))))
        c = I.cover(I.relabel(rng, base), r)
        cp = write(root, f"cover{r}.rg", c.text())
        jobs.append(cli_job(f"present/cover{r}", ["present", cp],
                            exits(0, check_present_text(len(c.edges), I.dimension(c)))))
    c = I.cover(I.star(rng, scale.mid), 4)
    cp = write(root, "cover_mid.rg", c.text())
    jobs.append(cli_job("present/cover_mid", ["present", cp],
                        exits(0, check_present_text(len(c.edges), I.dimension(c)))))

    # gentle algebras: r-fold trivial extensions and repetitive windows
    for i in range(8):
        q = I.gentle(rng, scale.quiver, cyclic=bool(i % 2))
        qp = write(root, f"q{i}.gentle", q.text())
        vals = q.path_valencies()
        n, sq = len(q.vertices), sum(v * v for v in vals)
        for r in range(1, 5):
            argv = ["gentle-trivext", qp, "--r", r]
            if r % 2:
                jobs.append(cli_job(f"trivext/r{r}", argv,
                                    exits(0, check_present_text(r * n, r * sq))))
            else:
                jobs.append(cli_job(f"trivext-json/r{r}", argv + ["--format", "json"],
                                    json_exit0(check_present_json(r * n, r * sq))))
        jobs.append(cli_job(f"window/q{i}", ["repetitive-window", qp, "--window", "0:2"],
                            exits(0, check_window(3 * n, len(vals)))))

    # library calls that no subcommand reaches
    for i, (edges, r) in enumerate(((scale.small // 2, 2), (scale.small // 4, 4))):
        c = I.cover(I.mesh(rng, edges, cover_base_mult(r)), r)
        a = fbga_afbg(c)
        dim = I.dimension(c)
        jobs.append(Job(f"basis/cover{i}", lambda a=a: presentation.basis(a),
                        lambda b, dim=dim: need(len(b) == dim, "basis size")))
        k = (1, 2)[i]
        jobs.append(Job(f"quotient/cover{i}",
                        lambda a=a, k=k: covering.quotient_by_nakayama_power(a, k),
                        check_quotient(c, r, k)))
    for base_edges in (5, 8):  # covers with at most 40 arrows
        c = I.cover(I.mesh(rng, base_edges, cover_base_mult(2)), 2)
        pres = presentation.build_presentation(fbga_afbg(c))
        jobs.append(Job(f"oracle/cover{base_edges}", lambda p=pres: presentation.oracle_dimension(p),
                        lambda d, dim=I.dimension(c): need(d == dim, f"oracle said {d}")))
    edges, hub_mult = scale.basis_star
    g = I.star(rng, edges, lambda i: hub_mult if i < 4 else 1)
    a = fbga_afbg(g)
    jobs.append(Job("basis/star", lambda: presentation.basis(a),
                    lambda b, dim=I.dimension(g): need(len(b) == dim, "basis size")))

    # two vertices of very large degree: long walks, large outputs
    g = I.relabel(rng, I.double_edge(scale.big_degree))
    jobs += graph_jobs(root, "big", g, ("present", "export"))
    return jobs


def build(workload: str, seed: int, root: Path, scale: Scale = FULL) -> list:
    """Generate and write the inputs of one workload; return one pass of jobs.

    The pass is shuffled so that every job size is spread over the whole
    run, and each latency quantile samples the machine over all of it."""
    make = {"canon": canon, "roundtrip": roundtrip, "algebra": algebra}[workload]
    rng = Random(f"{workload}/{seed}")
    root.mkdir(parents=True, exist_ok=True)
    jobs = make(rng, root, scale)
    rng.shuffle(jobs)
    return jobs
