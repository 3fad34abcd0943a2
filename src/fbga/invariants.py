"""Isomorphism-invariant fingerprints and fingerprint comparison.

:func:`fingerprint` and :func:`compare` return the dicts that ``fbga
invariants`` and ``fbga compare`` print as json (multiplicities as strings
sorted by value), and :func:`describe` a comparison's line of text.

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
from fractions import Fraction

from .afbg import Afbg, nu_orbit_data
from .ribbon import cycles

COMPARED_FIELDS = ("num_vertices", "num_edges", "multiplicities", "bipartite",
                   "nakayama_order", "reduced")


def special_orbit_sizes(a: Afbg) -> list:
    """Orbit-size multiset of the permutation h -> nu^{-1}(face(face(h))),
    the walk two angles along the face then one multiplicity step back."""
    rotation, pairing = a.graph.rotation, a.graph.pairing
    nu_inv = {v: k for k, v in a.nakayama.items()}
    q = {h: nu_inv[rotation[pairing[rotation[p]]]] for h, p in pairing.items()}
    return sorted(len(c) for c in cycles(q))


def fingerprint(a: Afbg) -> dict:
    g = a.graph
    edges, reduced_mults, order = nu_orbit_data(a)
    bipartite = g.is_bipartite()
    # one Fraction per distinct (degree, valency), not per vertex
    kinds = Counter((a.degrees[v], len(star)) for v, star in g.stars.items())
    mults = sorted((Fraction(d, n), count) for (d, n), count in kinds.items())
    return {
        "num_vertices": len(g.vertices),
        "num_edges": g.num_edges(),
        "multiplicities": [str(m) for m, count in mults for _ in range(count)],
        "bipartite": bipartite,
        "nakayama_order": order,
        "reduced": {"num_vertices": len(g.vertices), "num_edges": edges,
                    "multiplicities": [str(m) for m in sorted(reduced_mults.values())],
                    "bipartite": bipartite},
        "face_perimeters": g.face_perimeters(),
        "special_orbits": special_orbit_sizes(a),
    }


def compare(a: Afbg, b: Afbg) -> dict:
    """The first compared field on which the fingerprints of ``a`` and ``b``
    differ, if any, with both fingerprints."""
    fa, fb = fingerprint(a), fingerprint(b)
    field = next((f for f in COMPARED_FIELDS if fa[f] != fb[f]), None)
    return {"consistent": field is None, "distinguished_by": field, "left": fa, "right": fb}


def describe(c: dict) -> str:
    field = c["distinguished_by"]
    if field is None:
        return "consistent: all compared invariants agree"
    return f"distinguished by {field}: {_render(c['left'][field])} vs {_render(c['right'][field])}"


def _render(value) -> str:
    """A list or a dict as the tuple of its values, a string (a fraction)
    bare, anything else by ``repr``."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return value if isinstance(value, str) else repr(value)
