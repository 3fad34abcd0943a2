"""Quiver presentations of admissible fractional Brauer graph algebras.

Quiver vertices are the edges of the graph; every half-edge ``h``
contributes one arrow from its own edge to the edge of ``rotation(h)``.
Paths multiply right to left: in a product ``b*a`` the arrow ``a`` acts
first.  A walk is a start half-edge and a length; its arrows are listed
in *application order* (first-applied arrow first), and the
pretty-printer reverses them.

A walk of length ``d`` from ``h`` is a slice of the stored star of
``h``'s vertex (``stars``: a rotation cycle of a closed graph, or a
window's column, a chain): the star turned to start at ``h``, repeated
``q`` times, then its first ``r`` entries, where ``q, r = divmod(d,
val)`` at a vertex of valency ``val``.  A presentation keeps each
relation walk as ``(start, length)``, and only its relation walks: its
quiver vertices, arrows and zero relations are read off the pairing and
rotation of its ``graph`` on each call.  One cutter, ``cut_walks``, joins
the pieces of a star once (arrow names, or the JSON literals of arrow
names or Loewy labels, in either direction) and cuts every walk's text
from it as one slice.  The builders refuse an algebra whose dimension
``Σ val·d`` is above ``WALK_BUDGET`` before building any walk.

Relations:

* one commutation per edge ``{h, g}``: the full walk of length
  ``degree(vertex(h))`` starting with the arrow of ``h`` equals the full
  walk starting with the arrow of ``g``;
* one zero relation per half-edge ``h``: the arrow of
  ``pairing(rotation(h))`` composed after the arrow of ``h`` vanishes.

One builder serves closed graphs and the windows of repetitive algebras,
whose rotation is partial (see ``gentle.repetitive_window``).

``oracle_dimension`` recomputes the dimension from the relation data
alone (exhaustive path enumeration with rewriting) and is used to
cross-check the closed-form count ``sum(valency * degree)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .afbg import Afbg
from .errors import SizeLimitExceeded
from .ribbon import EDGE_SEP

if TYPE_CHECKING:
    from .covering import BorderedRibbonGraph

ARROW_PREFIX = "a_"  # the arrow of half-edge h is named ARROW_PREFIX + h


@dataclass(frozen=True)
class Presentation:
    afbg: Afbg
    commutations: tuple  # (((x, length), (y, length)), ...): the two walks of an edge
    window: BorderedRibbonGraph | None = None  # set for repetitive windows

    @property
    def graph(self):
        """The closed graph, or the window."""
        return self.afbg.graph if self.window is None else self.window

    def quiver_vertices(self) -> list:
        """The edge ids, by smaller half-edge (a window's sorted)."""
        pairing = self.graph.pairing
        ids = [x + EDGE_SEP + pairing[x] for x in sorted(pairing) if x < pairing[x]]
        return ids if self.window is None else sorted(ids)

    def arrows(self) -> list:
        """``(name, source, target)`` per arrow, in name order: the arrow of
        ``h`` goes from the edge of ``h`` to the edge of ``rotation(h)``, or
        to None when that step leaves the window."""
        g, edge = self.graph, {}
        for x, y in g.pairing.items():
            if x < y:
                edge[x] = edge[y] = x + EDGE_SEP + y  # edge_id_of_pair, as x < y
        # edge.get(None) is None: a dangling arrow has no target
        return [(ARROW_PREFIX + h, edge[h], edge.get(g.rotation.get(h))) for h in sorted(edge)]

    def zero_relations(self) -> list:
        """``(later, earlier)`` arrow names, sorted: the arrow of
        ``pairing(rotation(h))`` after the arrow of ``h``, per rotation step."""
        g = self.graph
        name = {h: ARROW_PREFIX + h for h in g.pairing}  # each name shared by two relations
        return sorted((name[g.pairing[n]], name[h]) for h, n in g.rotation.items())


def cut_walks(pieces: list, sep: str, walks: list) -> list:
    """``sep.join`` of pieces ``i .. i+n-1``, read cyclically, for each walk
    ``(i, n)`` with ``0 <= i < len(pieces)``.  The pieces are joined once,
    that period is repeated until the furthest walk fits, and each walk is
    one slice of the text, at offsets from the period's prefix sums."""
    val = len(pieces)
    furthest = max((i + n for i, n in walks), default=0)
    text = (sep.join(pieces) + sep) * -(-furthest // val)
    offset = list(accumulate((len(s) + len(sep) for s in pieces), initial=0))
    out = []
    for i, n in walks:
        q, r = divmod(i + n, val)  # the walk ends before piece r of period q
        out.append(text[offset[i]:q * offset[-1] + offset[r] - len(sep)] if n else "")
    return out


def walk_texts(pres: Presentation, piece, sep: str, reverse: bool = False) -> dict:
    """Half-edge -> the text of the commutation walk that starts there: the
    ``piece(h)`` of its arrows joined by ``sep``, in application order, or
    last arrow first when ``reverse`` (a right-to-left product).  Each
    star is joined once, in the direction asked for; a window's walks fit
    inside its columns, so none wraps round a chain."""
    length = dict(chain.from_iterable(pres.commutations))
    out = {}
    for star in pres.graph.stars.values():
        starts = [(i, h) for i, h in enumerate(star) if h in length]
        pieces = list(map(piece, star))
        if reverse:  # the walk from i of length n ends on piece i + n - 1
            pieces.reverse()
            walks = [(-(i + length[h]) % len(star), length[h]) for i, h in starts]
        else:
            walks = [(i, length[h]) for i, h in starts]
        out.update(zip((h for _, h in starts), cut_walks(pieces, sep, walks)))
    return out


WALK_BUDGET = 1 << 24
# A built half-edge of a cover or window took 0.6-2.8 KB of peak RSS and a
# presented walk step about 40 B (CLI subprocesses at 2^18 half-edges,
# ru_maxrss), so each built half-edge counts as this many walk steps.
HALF_EDGE_STEPS = 64


def _check_budget(steps: int, what: str, half_edges: int = 0) -> None:
    """Refuse, before anything is built, work above ``WALK_BUDGET``:
    ``steps`` walk steps (an algebra's dimension, one walk's length or a
    window's total walk length) plus ``half_edges`` built half-edges at
    ``HALF_EDGE_STEPS`` each.  ``what`` names the cost in the message; from
    2^64 on the message gives its leading power of two instead, since
    ``str`` refuses an int with more digits than ``sys.get_int_max_str_digits()``."""
    cost = steps + HALF_EDGE_STEPS * half_edges
    if cost > WALK_BUDGET:
        shown = cost if cost < 1 << 64 else f"at least 2^{cost.bit_length() - 1}"
        raise SizeLimitExceeded(f"{what} {shown} is above the walk budget of {WALK_BUDGET}")


def build_presentation(a: Afbg, window: BorderedRibbonGraph | None = None) -> Presentation:
    """The presentation over ``a.graph``, or over a window of a cover of
    it, with the degrees of ``a``.  A window's rotation is partial: an
    arrow without a rotation successor dangles, and a commutation is kept
    only when both of its walks lie inside the window."""
    _check_budget(dimension(a), "algebra of dimension")
    g = a.graph if window is None else window
    # arrows left from each half-edge to the end of its window column
    room = None if window is None else {
        h: len(column) - i for column in window.stars.values() for i, h in enumerate(column)}
    # a walk from x starts with the arrow of x, so sorting the pairs by x, as
    # here, sorts the commutations as their name tuples would sort
    commutations = []
    for x, y in sorted((x, y) for x, y in g.pairing.items() if x < y):
        wx, wy = (x, a.degrees[g.attach[x]]), (y, a.degrees[g.attach[y]])
        if room is None or (wx[1] <= room[x] and wy[1] <= room[y]):
            commutations.append((wx, wy))
    return Presentation(a, tuple(commutations), window)


def dimension(a: Afbg) -> int:
    """sum over vertices of valency(v) * degree(v)."""
    return sum(a.graph.valency(v) * a.degrees[v] for v in a.graph.vertices)


# -- basis ---------------------------------------------------------------------

class BasisElement(NamedTuple):
    kind: str        # "idempotent" | "walk" | "socle"
    edge: str        # quiver vertex the element starts at
    start: str       # half-edge of the walk ("" for idempotents)
    length: int      # arrows in the walk, the first of them the arrow of start


def basis(a: Afbg) -> list:
    """Monomial basis: one idempotent per edge, the proper walks
    0 < m < degree from every half-edge, and one socle element per edge
    (the two full walks of an edge are identified; the representative
    starts at the smaller half-edge id).  Listed by edge id, then kind
    (idempotent, socle, walk), then start and length."""
    _check_budget(dimension(a), "algebra of dimension")
    g = a.graph
    out = []
    for e, x, y in sorted((x + EDGE_SEP + y, x, y) for x, y in g.pairing.items() if x < y):
        dx, dy = (a.degrees[g.attach[h]] for h in (x, y))
        out.append(BasisElement("idempotent", e, "", 0))
        out.append(BasisElement("socle", e, x, dx))
        for h, d in ((x, dx), (y, dy)):  # each walk built in C, with no Python __new__ call
            out += map(tuple.__new__, repeat(BasisElement),
                       zip(repeat("walk"), repeat(e), repeat(h), range(1, d)))
    return out


# -- independent dimension oracle ----------------------------------------------

ORACLE_HALF_EDGE_LIMIT = 40


def oracle_dimension(pres: Presentation) -> int:
    """Dimension by brute-force path enumeration over the relations alone.

    Paths are enumerated arrow by arrow; a path dies when any of its
    rewriting forms contains a zero pair, and paths related by substituting
    one side of a commutation for the other are counted once.  Nothing
    about degrees, walks or the Nakayama permutation is consulted, so this
    is an independent check on ``dimension``.
    """
    half_edges = len(pres.graph.pairing)  # one arrow each
    if half_edges > ORACLE_HALF_EDGE_LIMIT:
        raise SizeLimitExceeded(
            f"oracle refuses presentations with more than "
            f"{ORACLE_HALF_EDGE_LIMIT} arrows (got {half_edges})")

    zero_pairs = set(pres.zero_relations())  # (later, earlier)
    # the arrow names of each relation walk (degrees are positive, so none is
    # empty); exact, as no arrow name holds EDGE_SEP
    walks = {h: tuple(text.split(EDGE_SEP))
             for h, text in walk_texts(pres, ARROW_PREFIX.__add__, EDGE_SEP).items()}
    relations = [(walks[x], walks[y]) for (x, _), (y, _) in pres.commutations]
    comm = []
    for wx, wy in relations:
        if wx != wy:
            comm.append((wx, wy))
            comm.append((wy, wx))
    # Alive paths are rotation runs, and a run strictly longer than the full
    # walk at its start rewrites to a form with a zero pair; the longest walk
    # can sit on either side of a commutation.
    max_side = max((max(len(wx), len(wy)) for wx, wy in relations), default=1)
    cap = max_side + 2

    def contains_zero(path):
        return any((path[i + 1], path[i]) in zero_pairs
                   for i in range(len(path) - 1))

    def live_class(path):
        """The class of ``path`` under the commutations, or None once the
        search meets a path with a zero pair.  Each path is tested as the
        search finds it, so the work does not depend on set order."""
        if contains_zero(path):
            return None
        seen = {path}
        queue = [path]
        while queue:
            p = queue.pop()
            for lhs, rhs in comm:
                k = len(lhs)
                for i in range(len(p) - k + 1):
                    if p[i:i + k] == lhs:
                        q = p[:i] + rhs + p[i + k:]
                        if q not in seen:
                            if contains_zero(q):
                                return None
                            seen.add(q)
                            queue.append(q)
        return frozenset(seen)

    arrows = pres.arrows()  # in name order
    target = {name: t for name, _, t in arrows}
    by_source = {}
    for name, source, _ in arrows:
        by_source.setdefault(source, []).append(name)

    classes = set()
    frontier = []
    for name, _, _ in arrows:
        cls = live_class((name,))
        if cls is not None and cls not in classes:
            classes.add(cls)
            frontier.append((name,))

    while frontier:
        nxt = []
        for path in frontier:
            if len(path) > cap:
                raise SizeLimitExceeded(
                    "path enumeration exceeded the rewriting bound; "
                    "the relations do not present a finite walk algebra")
            for name in by_source.get(target[path[-1]], ()):
                q = path + (name,)
                cls = live_class(q)
                if cls is not None and cls not in classes:
                    classes.add(cls)
                    nxt.append(q)
        frontier = nxt

    return half_edges // 2 + len(classes)


# -- rendering -----------------------------------------------------------------

def render_text(pres: Presentation) -> str:
    # counts are read off the graph, and each section's rows are dropped once written
    g = pres.graph
    lines = [f"quiver vertices ({len(g.pairing) // 2}): " + ", ".join(pres.quiver_vertices()),
             f"arrows ({len(g.pairing)}):"]
    lines += [f"  {name}: {source} -> {target}" for name, source, target in pres.arrows()]
    walks = walk_texts(pres, ARROW_PREFIX.__add__, "*", reverse=True)  # each one a product_str
    lines.append(f"commutation relations ({len(pres.commutations)}):")
    for (x, _), (y, _) in pres.commutations:
        lines.append(f"  {walks[x]} = {walks[y]}")
    lines.append(f"zero relations ({len(g.rotation)}):")
    lines += [f"  {later}*{earlier} = 0" for later, earlier in pres.zero_relations()]
    return "\n".join(lines)
