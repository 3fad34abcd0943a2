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
relation walk as ``(start, length)``.  One cutter, ``cut_walks``, joins
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
from itertools import accumulate
from typing import TYPE_CHECKING

from .afbg import Afbg
from .errors import SizeLimitExceeded
from .ribbon import EDGE_SEP, edge_id_of_pair

if TYPE_CHECKING:
    from .covering import BorderedRibbonGraph

ARROW_PREFIX = "a_"


def arrow_name(half_edge: str) -> str:
    return ARROW_PREFIX + half_edge


@dataclass(frozen=True)
class Arrow:
    source: str  # edge id
    target: str | None  # edge id; None when the rotation step leaves a window


@dataclass(frozen=True)
class Presentation:
    afbg: Afbg
    quiver_vertices: tuple
    arrows: dict  # name -> Arrow
    commutations: tuple  # (((x, length), (y, length)), ...): the two walks of an edge
    zero_relations: tuple  # ((later, earlier), ...)
    window: BorderedRibbonGraph | None = None  # set for repetitive windows

    @property
    def dangling(self) -> tuple:
        return tuple(n for n, a in self.arrows.items() if a.target is None)


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
    length = dict(w for pair in pres.commutations for w in pair)
    g = pres.afbg.graph if pres.window is None else pres.window
    out = {}
    for star in g.stars.values():
        starts = [(i, h) for i, h in enumerate(star) if h in length]
        pieces = [piece(h) for h in star]
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


def build_presentation(a: Afbg) -> Presentation:
    return _present(a)


def _present(a: Afbg, window: BorderedRibbonGraph | None = None) -> Presentation:
    """The presentation over ``a.graph``, or over a window of a cover of
    it, with the degrees of ``a``.  A window's rotation is partial: an
    arrow without a rotation successor dangles, and a relation is kept
    only when all of its arrows lie inside the window."""
    _check_budget(dimension(a), "algebra of dimension")
    g = a.graph if window is None else window
    rotation, pairing, attach = g.rotation, g.pairing, g.attach
    pairs = sorted((x, y) for x, y in pairing.items() if x < y)
    edge = {}
    for x, y in pairs:
        edge[x] = edge[y] = edge_id_of_pair(x, y)
    name = {h: arrow_name(h) for h in attach}

    arrows = {}  # in name order: the half-edges are walked sorted, each named ARROW_PREFIX + itself
    zeros = []
    for h in sorted(attach):
        nxt = rotation.get(h)
        arrows[name[h]] = Arrow(edge[h], None if nxt is None else edge[nxt])
        if nxt is not None:
            zeros.append((name[pairing[nxt]], name[h]))

    # arrows left from each half-edge to the end of its window column
    room = None if window is None else {
        h: len(column) - i for column in window.stars.values() for i, h in enumerate(column)}
    # a walk from x starts with the arrow of x, so sorting the pairs by x, as
    # here, sorts the commutations as their name tuples would sort
    commutations = []
    for x, y in pairs:
        wx, wy = (x, a.degrees[attach[x]]), (y, a.degrees[attach[y]])
        if room is None or (wx[1] <= room[x] and wy[1] <= room[y]):
            commutations.append((wx, wy))

    quiver_vertices = [edge[x] for x, _ in pairs]
    if window is not None:
        quiver_vertices.sort()  # windows list their edge ids sorted
    return Presentation(
        afbg=a,
        quiver_vertices=tuple(quiver_vertices),
        arrows=arrows,
        commutations=tuple(commutations),
        zero_relations=tuple(sorted(zeros)),
        window=window,
    )


def dimension(a: Afbg) -> int:
    """sum over vertices of valency(v) * degree(v)."""
    return sum(a.graph.valency(v) * a.degrees[v] for v in a.graph.vertices)


# -- basis ---------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
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
    for e, x, y in sorted((edge_id_of_pair(x, y), x, y) for x, y in g.pairing.items() if x < y):
        dx, dy = (a.degrees[g.attach[h]] for h in (x, y))
        out.append(BasisElement("idempotent", e, "", 0))
        out.append(BasisElement("socle", e, x, dx))
        out += (BasisElement("walk", e, x, m) for m in range(1, dx))
        out += (BasisElement("walk", e, y, m) for m in range(1, dy))
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
    if len(pres.arrows) > ORACLE_HALF_EDGE_LIMIT:
        raise SizeLimitExceeded(
            f"oracle refuses presentations with more than "
            f"{ORACLE_HALF_EDGE_LIMIT} arrows (got {len(pres.arrows)})")

    zero_pairs = set(pres.zero_relations)  # (later, earlier)
    # the arrow names of each relation walk (degrees are positive, so none is
    # empty); exact, as no arrow name holds EDGE_SEP
    walks = {h: tuple(text.split(EDGE_SEP))
             for h, text in walk_texts(pres, arrow_name, EDGE_SEP).items()}
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

    def equivalence_class(path):
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
                            seen.add(q)
                            queue.append(q)
        return frozenset(seen)

    def contains_zero(path):
        return any((path[i + 1], path[i]) in zero_pairs
                   for i in range(len(path) - 1))

    target = {name: a.target for name, a in pres.arrows.items()}
    source = {name: a.source for name, a in pres.arrows.items()}
    by_source = {}
    for name in sorted(pres.arrows):
        by_source.setdefault(source[name], []).append(name)

    classes = set()
    frontier = []
    for name in sorted(pres.arrows):
        cls = equivalence_class((name,))
        if any(contains_zero(p) for p in cls):
            continue
        if cls not in classes:
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
                cls = equivalence_class(q)
                if any(contains_zero(p) for p in cls):
                    continue
                if cls not in classes:
                    classes.add(cls)
                    nxt.append(q)
        frontier = nxt

    return len(pres.quiver_vertices) + len(classes)


# -- rendering -----------------------------------------------------------------

def render_text(pres: Presentation) -> str:
    lines = []
    lines.append(f"quiver vertices ({len(pres.quiver_vertices)}): "
                 + ", ".join(pres.quiver_vertices))
    lines.append(f"arrows ({len(pres.arrows)}):")
    for name, a in pres.arrows.items():
        lines.append(f"  {name}: {a.source} -> {a.target}")
    walks = walk_texts(pres, arrow_name, "*", reverse=True)  # each one a product_str
    lines.append(f"commutation relations ({len(pres.commutations)}):")
    for (x, _), (y, _) in pres.commutations:
        lines.append(f"  {walks[x]} = {walks[y]}")
    lines.append(f"zero relations ({len(pres.zero_relations)}):")
    for later, earlier in pres.zero_relations:
        lines.append(f"  {later}*{earlier} = 0")
    return "\n".join(lines)
