"""Isomorphism-invariant fingerprints and fingerprint comparison.

The compared fields are cheap necessary conditions: two isomorphic
algebras (graphs with degrees) must agree on all of them, so the first
disagreement names a certified distinction.  Agreement on every field is
only "consistent" — it never certifies an isomorphism.

The reduced form's fields come in closed form from
:func:`fbga.afbg.nu_orbit_data`.  Its bipartiteness is the graph's own: the
Nakayama permutation fixes ``attach`` and commutes with the pairing, so
each quotient edge joins the two vertices of the edges it collapses.

Extras (face perimeters, special orbit sizes) ride along for reporting
but are deliberately left out of the comparison: they are sensitive to
the embedding data in ways callers may not want to distinguish by.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .afbg import Afbg, nu_orbit_data
from .ribbon import cycles

COMPARED_FIELDS = (
    "num_vertices",
    "num_edges",
    "multiplicities",
    "bipartite",
    "nakayama_order",
    "reduced",
)


@dataclass(frozen=True)
class Fingerprint:
    num_vertices: int
    num_edges: int
    multiplicities: tuple  # sorted multiset of Fraction
    bipartite: bool
    nakayama_order: int
    reduced: tuple  # (num_vertices, num_edges, multiplicities, bipartite) of the reduced form
    face_perimeters: tuple
    special_orbits: tuple

    def as_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "multiplicities": [str(m) for m in self.multiplicities],
            "bipartite": self.bipartite,
            "nakayama_order": self.nakayama_order,
            "reduced": {
                "num_vertices": self.reduced[0],
                "num_edges": self.reduced[1],
                "multiplicities": [str(m) for m in self.reduced[2]],
                "bipartite": self.reduced[3],
            },
            "face_perimeters": list(self.face_perimeters),
            "special_orbits": list(self.special_orbits),
        }


def special_orbit_sizes(a: Afbg) -> tuple:
    """Orbit-size multiset of the permutation h -> nu^{-1}(face(face(h))),
    the walk two angles along the face then one multiplicity step back."""
    rotation, pairing = a.graph.rotation, a.graph.pairing
    nu_inv = {v: k for k, v in a.nakayama.items()}
    q = {h: nu_inv[rotation[pairing[rotation[p]]]] for h, p in pairing.items()}
    return tuple(sorted(len(c) for c in cycles(q)))


def fingerprint(a: Afbg) -> Fingerprint:
    g = a.graph
    edges, reduced_mults, order = nu_orbit_data(a)
    bipartite = g.is_bipartite()
    # one Fraction per distinct (degree, valency), not per vertex
    kinds = Counter((a.degrees[v], len(star)) for v, star in g.stars.items())
    mults = sorted((Fraction(d, n), count) for (d, n), count in kinds.items())
    return Fingerprint(
        num_vertices=len(g.vertices),
        num_edges=g.num_edges(),
        multiplicities=tuple(m for m, count in mults for _ in range(count)),
        bipartite=bipartite,
        nakayama_order=order,
        reduced=(len(g.vertices), edges, tuple(sorted(reduced_mults.values())), bipartite),
        face_perimeters=tuple(g.face_perimeters()),
        special_orbits=special_orbit_sizes(a),
    )


@dataclass(frozen=True)
class Comparison:
    consistent: bool
    distinguished_by: str | None  # first compared field that differs
    left: Fingerprint
    right: Fingerprint

    def describe(self) -> str:
        if self.consistent:
            return "consistent: all compared invariants agree"
        lv = getattr(self.left, self.distinguished_by)
        rv = getattr(self.right, self.distinguished_by)
        return (f"distinguished by {self.distinguished_by}: "
                f"{_render(lv)} vs {_render(rv)}")


def _render(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def compare(a: Afbg, b: Afbg) -> Comparison:
    fa, fb = fingerprint(a), fingerprint(b)
    for field in COMPARED_FIELDS:
        if getattr(fa, field) != getattr(fb, field):
            return Comparison(False, field, fa, fb)
    return Comparison(True, None, fa, fb)
