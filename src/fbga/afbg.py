"""Degree functions on ribbon graphs and admissibility.

A degree function assigns a positive integer to every vertex.  The induced
Nakayama permutation advances every half-edge ``degree(v)`` steps in the
rotation at its vertex ``v``.  The pair (graph, degrees) is *admissible*
when

* (a) the Nakayama permutation commutes with the edge pairing, and
* (b) no half-edge has its partner inside its own Nakayama orbit.

Admissible pairs are wrapped in :class:`Afbg`; every operation that needs
the conditions takes one of these, so the checks run exactly once.
:func:`reduced_form` reads the quotient by the Nakayama orbits off the
stars, and :func:`nu_orbit_data` reads its numbers off them in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DisconnectedInput, MissingDegree, NotAdmissible
from .ribbon import RibbonGraph, orbits


def nakayama_permutation(graph: RibbonGraph, degrees: dict) -> dict:
    """h -> rotation^degree(attach(h)) (h), computed per star."""
    _check_degrees(graph, degrees)
    nu = {}
    for v in graph.vertices:
        star = graph.stars[v]
        n = len(star)
        shift = degrees[v] % n
        for i, h in enumerate(star):
            nu[h] = star[(i + shift) % n]
    return nu


@dataclass(frozen=True)
class Violation:
    half_edge: str
    condition: str  # "pairing_compat" (a) or "orbit_meets_pairing" (b)
    detail: str

    def __str__(self):
        return f"{self.condition} at {self.half_edge}: {self.detail}"


def _violations(graph: RibbonGraph, degrees: dict, nu: dict) -> list:
    """All violations of conditions (a) and (b) by the Nakayama permutation
    ``nu``; empty list iff admissible.  The orbits are walked only when
    (b) fails, to list its violations orbit by orbit."""
    pair = graph.pairing
    out = [Violation(h, "pairing_compat",
                     f"pairing(nakayama({h}))={pair[nu[h]]} but "
                     f"nakayama(pairing({h}))={nu[pair[h]]}")
           for h in sorted(h for h, p in pair.items() if pair[nu[h]] != nu[p])]
    if _orbit_meets_pairing(graph, degrees):
        for cyc in orbits(nu):
            members = set(cyc)
            out.extend(Violation(h, "orbit_meets_pairing",
                                 f"partner {pair[h]} lies in the nakayama orbit of {h}")
                       for h in cyc if pair[h] in members)
    return out


def _orbit_meets_pairing(graph: RibbonGraph, degrees: dict) -> bool:
    """Whether (b) fails, per star: nu turns the star of v by d(v), so h and
    its partner share an orbit iff both sit at v in positions congruent mod
    gcd(d(v), val(v))."""
    pair, attach = graph.pairing, graph.attach
    for v, star in graph.stars.items():
        k = gcd(degrees[v], len(star))
        if k < len(star) and any(attach[pair[h]] == v for h in star):
            pos = {h: i for i, h in enumerate(star)}
            if any(pair[h] in pos and (i - pos[pair[h]]) % k == 0 for i, h in enumerate(star)):
                return True
    return False


def _check_degrees(graph, degrees):
    for v in graph.vertices:
        d = degrees.get(v)
        if d is None:
            raise MissingDegree(f"vertex {v!r} has no degree")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise MissingDegree(f"degree of {v!r} must be a positive integer, got {d!r}")


@dataclass(frozen=True)
class Afbg:
    """A ribbon graph with a validated admissible degree function."""

    graph: RibbonGraph
    degrees: dict
    nakayama: dict

    @classmethod
    def build(cls, graph: RibbonGraph, degrees: dict) -> "Afbg":
        nu = nakayama_permutation(graph, degrees)
        violations = _violations(graph, degrees, nu)
        if violations:
            raise NotAdmissible(violations)
        return cls(graph, {v: degrees[v] for v in graph.vertices}, nu)

    # -- multiplicities --------------------------------------------------

    def multiplicity(self, v) -> Fraction:
        return Fraction(self.degrees[v], self.graph.valency(v))

    def multiplicities(self) -> dict:
        return {v: self.multiplicity(v) for v in self.graph.vertices}

    def is_brauer_graph(self) -> bool:
        """True iff every multiplicity is an integer (then nakayama = id)."""
        return all(m.denominator == 1 for m in self.multiplicities().values())

    def nakayama_order(self) -> int:
        return nu_orbit_data(self)[2]


def nu_orbit_data(a: Afbg) -> tuple:
    """(edges, multiplicities, order): the reduced form's edge count and
    multiplicity at each vertex, and the order of the Nakayama permutation,
    in closed form.  The permutation turns the star of ``v`` by d(v) steps,
    so it has k = gcd(d(v), val(v)) orbits of length val(v)/k there; in the
    quotient ``v`` has valency k and multiplicity d(v)/k.  By (a) the pairing
    maps orbits onto orbits and by (b) none onto itself, so the quotient has
    sum(k)/2 edges.
    """
    total, order, mults = 0, 1, {}
    for v, star in a.graph.stars.items():
        k = gcd(a.degrees[v], len(star))
        total += k
        order = lcm(order, len(star) // k)
        mults[v] = a.degrees[v] // k
    return total // 2, mults, order


def is_admissible(graph: RibbonGraph, degrees: dict):
    """(Afbg, []) when admissible, else (None, violations)."""
    try:
        return Afbg.build(graph, degrees), []
    except NotAdmissible as exc:
        return None, exc.violations


def reduced_form(a: Afbg) -> Afbg:
    """Collapse each Nakayama orbit to its smallest half-edge, keeping the
    vertices and degrees: always a Brauer graph (see :func:`nu_orbit_data`),
    idempotent, and the identity on Brauer graphs (singleton orbits)."""
    return _quotient(a, 1)


def _quotient(a: Afbg, k: int) -> Afbg:
    """The quotient of ``a`` by the orbits of the k-th Nakayama power, each
    named by its smallest member, with the degrees of ``a``.  The power
    turns the star of v by k·d(v) steps, so its orbits there are the star
    positions mod g = gcd(k·d(v), val(v)), and the quotient star lists them
    in rotation order.  The pairing maps these orbits onto orbits (a), none
    onto itself (b), so the quotient is admissible."""
    rotations, rep = {}, {}
    for v in a.graph.vertices:
        star = a.graph.stars[v]
        g = gcd(k * a.degrees[v], len(star))
        rotations[v] = reps = [min(star[i::g]) for i in range(g)]
        rep.update((h, reps[i % g]) for i, h in enumerate(star))
    edges = sorted({tuple(sorted((rep[x], rep[y]))) for x, y in a.graph.pairing.items()})
    return Afbg.build(RibbonGraph.build(rotations, [list(e) for e in edges]), dict(a.degrees))


@dataclass(frozen=True)
class RepFiniteReport:
    rep_finite: bool
    tree_edge_count: int | None      # n: edges of the reduced tree
    exceptional_multiplicity: int | None  # m: the one multiplicity > 1, else 1
    nakayama_order: int              # candidate covering parameter r
    reason: str


def rep_finite_report(a: Afbg) -> RepFiniteReport:
    """Finite representation type test via the reduced form.

    The algebra is representation-finite iff the reduced Brauer graph is a
    tree with at most one vertex of multiplicity > 1 (a Brauer tree).  The
    reduced form is connected and has the vertices of ``a``, so it is a tree
    iff it has one edge fewer.
    """
    if not a.graph.connected:
        raise DisconnectedInput("rep_finite_report requires a connected graph")
    edges, mults, order = nu_orbit_data(a)
    big = sorted((v for v, m in mults.items() if m > 1), key=str)
    if edges != len(a.graph.vertices) - 1:
        return RepFiniteReport(False, None, None, order,
                               "reduced form is not a tree")
    if len(big) > 1:
        return RepFiniteReport(False, None, None, order,
                               f"reduced tree has {len(big)} vertices of multiplicity > 1")
    return RepFiniteReport(True, edges, mults[big[0]] if big else 1, order,
                           "reduced form is a Brauer tree")
