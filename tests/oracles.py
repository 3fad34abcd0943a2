"""Presentation helpers that only the tests use."""

from fbga.errors import InvariantError
from fbga.presentation import arrow_name, walk
from fbga.ribbon import is_isomorphic


def special_cycles(a) -> dict:
    """Full rotation cycle of arrows through each arrow (length = valency)."""
    g = a.graph
    return {arrow_name(h): walk(a, h, g.valency(g.attach[h]))
            for h in g.half_edges}


def presentation_isomorphism(p1, p2):
    """Arrow bijection induced by a degree-aware graph isomorphism, or None.

    When the underlying graphs are isomorphic the induced map carries
    walks to walks, hence relations to relations; this is checked."""
    phi = is_isomorphic(p1.afbg.graph, p2.afbg.graph,
                        p1.afbg.degrees, p2.afbg.degrees)
    if phi is None:
        return None
    amap = {arrow_name(h): arrow_name(phi[h]) for h in phi}

    def map_walk(w):
        return tuple(amap[x] for x in w)

    c1 = {tuple(sorted((map_walk(a), map_walk(b))))
          for a, b in p1.commutation_relations}
    c2 = {tuple(sorted((a, b))) for a, b in p2.commutation_relations}
    z1 = {(amap[l], amap[e]) for l, e in p1.zero_relations}
    z2 = set(p2.zero_relations)
    if c1 != c2 or z1 != z2:
        raise InvariantError("the graph isomorphism does not carry relations to relations")
    return amap
