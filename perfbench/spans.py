"""Spans and counters recorded around the public functions of each fbga module.

Nothing in fbga is changed on disk: ``install`` replaces each public function
with a wrapper in every namespace that binds it (``cli``, ``gentle`` and
``reconstruct`` bind imported names when they load, and some functions
import others at call time, which reads the module attribute), and on the
class for ``RibbonGraph.build`` and ``Afbg.build``.  ``restore`` puts the
originals back.

A span has an id, its parent's id, a name, a start and an end; spans are
kept in memory and written out by the caller.  A span's self time is its
duration minus the time its child spans cover.  Counters are taken at the
same boundaries.  ``PeakProbe`` records per-layer memory peaks in a separate
pass, because tracemalloc slows allocation-heavy layers unevenly and would
distort the self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

MODULES = ("ribbon", "afbg", "presentation", "covering", "gentle", "invariants",
           "reconstruct", "fileio", "cli")

# Public functions that the package does not re-export from fbga/__init__.
EXTRA = {"cli": ("main",), "presentation": ("render_text",),
         "fileio": ("parse_ribbon", "parse_cut", "parse_gentle", "parse_loewy",
                    "ribbon_to_dict", "afbg_to_dict", "presentation_to_dict",
                    "bordered_to_dict", "loewy_to_list", "dot_of_graph",
                    "dot_of_presentation", "dumps")}
CLASS_BUILDS = (("ribbon", "RibbonGraph"), ("afbg", "Afbg"))

EMITTERS = ("fileio.dumps", "fileio.dot_of_graph", "fileio.dot_of_presentation")
INSIDE_RECONSTRUCT = "reconstruct.reconstruct_afbg"


def targets() -> list:
    """(span name, function) for every wrapped public function."""
    import fbga

    out = []
    for short in MODULES:
        mod = importlib.import_module(f"fbga.{short}")
        names = [n for n, f in vars(fbga).items()
                 if inspect.isfunction(f) and f.__module__ == mod.__name__]
        for name in sorted(set(names) | set(EXTRA.get(short, ()))):
            out.append((f"{short}.{name}", getattr(mod, name)))
    return out


class Tracer:
    def __init__(self):
        self.spans = []   # (id, parent id, name, start, end)
        self.stack = []   # open frames: [id, start, child time]
        self.next_id = 0
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.active = Counter()  # name -> number of open spans

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(name, None, exc)
                raise
            self.exit(name, result, None)
            return result
        return traced

    def enter(self, name: str) -> None:
        self.active[name] += 1
        self.stack.append([self.next_id, perf_counter(), 0.0])
        self.next_id += 1

    def exit(self, name: str, result, exc) -> None:
        end = perf_counter()
        span_id, start, child = self.stack.pop()
        self.active[name] -= 1
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        self._count(name, result, exc)

    def _count(self, name, result, exc) -> None:
        if exc is not None:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
        elif name == "afbg.build" and self.active[INSIDE_RECONSTRUCT]:
            self.counts["reconstruct.admissible"] += 1
        elif name == INSIDE_RECONSTRUCT:
            self.counts["reconstruct.wirings"] += result.wirings_tried
        elif name in EMITTERS:
            self.counts["fileio.out_bytes"] += len(result)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class PeakProbe:
    """Largest tracemalloc peak of any one call, per name: the most memory
    the call had allocated and not yet freed at any moment.  Allocations are
    traced only while a probed call runs, so the rest of the pass keeps its
    speed."""

    def __init__(self):
        self.peak = Counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak[name] = max(self.peak[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return probed


def install(tracer, only=None):
    """Wrap every target (or those named in ``only``) in every fbga
    namespace with ``tracer.wrap``; returns the undo function."""
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "fbga" or n.startswith("fbga.")]
    for name, fn in targets():
        if only is not None and name not in only:
            continue
        wrapped = tracer.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, fn))
    for short, cls_name in CLASS_BUILDS:
        if only is not None and f"{short}.build" not in only:
            continue
        cls = getattr(importlib.import_module(f"fbga.{short}"), cls_name)
        original = cls.__dict__["build"]
        cls.build = classmethod(tracer.wrap(f"{short}.build", original.__func__))
        undo.append((cls, "build", original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# -- per-layer metrics ------------------------------------------------------------

SELF_TIMED = ("ribbon.canonical_code", "ribbon.is_isomorphic", "ribbon.build", "afbg.build",
              "afbg.reduced_form", "afbg.rep_finite_report",
              "presentation.build_presentation", "presentation.render_text",
              "presentation.loewy_table", "presentation.basis",
              "presentation.oracle_dimension", "covering.cover_finite",
              "covering.quotient_by_nakayama_power", "gentle.ribbon_graph_of_gentle",
              "gentle.repetitive_window", "invariants.fingerprint",
              "reconstruct.reconstruct_afbg", "reconstruct.loewy_data_of", "cli.main")
COUNTED = ("ribbon.canonical_code", "ribbon.build", "afbg.build",
           "presentation.build_presentation", "presentation.loewy_table",
           "reconstruct.reconstruct_afbg")
PEAKS = ("presentation.build_presentation", "presentation.loewy_table", "presentation.basis")
FILEIO_EMIT = ("fileio.dumps", "fileio.loewy_to_list", "fileio.dot_of_graph",
               "fileio.dot_of_presentation", "fileio.ribbon_to_dict", "fileio.afbg_to_dict",
               "fileio.presentation_to_dict", "fileio.bordered_to_dict")


def layer_metrics(tracer: Tracer, memory: PeakProbe, passes: int) -> dict:
    """Per-layer metrics, per pass (peaks: largest over all calls)."""
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
    out["afbg.build.rejected"] = (tracer.counts["afbg.build.raised.NotAdmissible"] / passes, "count")
    wirings = tracer.counts["reconstruct.wirings"]
    out["reconstruct.wirings"] = (wirings / passes, "count")
    out["reconstruct.admissible_ratio"] = (
        tracer.counts["reconstruct.admissible"] / wirings if wirings else 0.0, "ratio")
    out["fileio.parse.self_s"] = (sum(t for n, t in tracer.self_s.items()
                                      if n.startswith("fileio.parse_")) / passes, "s")
    out["fileio.emit.self_s"] = (sum(tracer.self_s[n] for n in FILEIO_EMIT) / passes, "s")
    out["fileio.out_bytes"] = (tracer.counts["fileio.out_bytes"] / passes, "bytes")
    for name in PEAKS:
        out[f"{name}.peak_mb"] = (memory.peak[name] / 2 ** 20, "MB")
    for short in MODULES:
        mine = [n for n in tracer.calls if n.startswith(short + ".")]
        out[f"{short}.self_s"] = (sum(tracer.self_s[n] for n in mine) / passes, "s")
        out[f"{short}.calls"] = (sum(tracer.calls[n] for n in mine) / passes, "count")
    return out
