"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured detail; a failing
assertion makes the corresponding criterion FAIL in the pytest report.
The random corpus of criterion 4 is shared by criteria 9, 10 and 11.
"""

import random
import time
from itertools import permutations, product

import pytest

from fbga.afbg import Afbg, is_admissible, reduced_form, rep_finite_report
from fbga.covering import cover_finite
from fbga.errors import Ambiguous, Exceptional
from fbga.gentle import r_fold_trivial_extension
from fbga.invariants import compare, fingerprint
from fbga.presentation import (
    build_presentation,
    dimension,
    oracle_dimension,
)
from fbga.reconstruct import reconstruct_afbg
from fbga.ribbon import is_isomorphic, orbits
from generators import (
    aprime,
    connected_graphs_up_to,
    cover_compatible_degrees,
    kronecker,
    lambda_afbg,
    random_afbg,
    random_brauer_tree,
    random_cut,
    random_fractional_afbg,
    random_ribbon_graph,
    shuffled_copy,
)
from oracles import (
    commutation_walks,
    loewy_data_of,
    nakayama_on_presentation,
    presentation_isomorphism,
    verify_covering,
)

CORPUS_SIZE = 200


def report(n, detail):
    print(f"criterion {n:2d}: PASS — {detail}")


@pytest.fixture(scope="module")
def corpus():
    """(base, cut, r, cover_result) for 200 random Brauer graphs with
    cover-compatible multiplicities, |H| <= 40, r in 1..5."""
    rng = random.Random(42)
    entries = []
    for _ in range(CORPUS_SIZE):
        g = random_ribbon_graph(rng, rng.randint(1, 20))
        r = rng.randint(1, 5)
        base = Afbg.build(g, cover_compatible_degrees(rng, g, r))
        cut = random_cut(rng, g)
        entries.append((base, cut, r, cover_finite(base, cut, r)))
    return entries


def test_criterion_01_presentation_of_double_edge():
    t0 = time.monotonic()
    pres = build_presentation(lambda_afbg())
    assert len(pres.quiver_vertices()) == 2
    assert len(pres.arrows()) == 4
    assert len(pres.commutations) + len(pres.zero_relations()) == 6

    # written right to left, x1x2 - y1y2 etc.; tuples are application order
    expected_comm = {frozenset({("x2", "x1"), ("y2", "y1")}),
                     frozenset({("x1", "x2"), ("y1", "y2")})}
    expected_zero = {("y2", "x1"), ("x1", "y2"), ("y1", "x2"), ("x2", "y1")}

    e1, e2 = sorted(pres.quiver_vertices())
    fwd = [n for n, s, t in pres.arrows() if (s, t) == (e1, e2)]
    bwd = [n for n, s, t in pres.arrows() if (s, t) == (e2, e1)]
    assert len(fwd) == 2 and len(bwd) == 2

    matched = False
    for x1 in fwd:
        (y1,) = [n for n in fwd if n != x1]
        for x2 in bwd:
            (y2,) = [n for n in bwd if n != x2]
            ren = {x1: "x1", x2: "x2", y1: "y1", y2: "y2"}
            comm = {frozenset({tuple(ren[a] for a in wx),
                               tuple(ren[a] for a in wy)})
                    for wx, wy in commutation_walks(pres)}
            zero = {tuple(ren[a] for a in z) for z in pres.zero_relations()}
            if comm == expected_comm and zero == expected_zero:
                matched = True
    assert matched, "no arrow renaming yields the six expected relations"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"2 vertices, 4 arrows, 6 relations match ({elapsed:.3f}s)")


def test_criterion_02_trivial_extensions_give_double_edge():
    t0 = time.monotonic()
    lam = build_presentation(lambda_afbg())
    for p in (kronecker(), aprime()):
        te = r_fold_trivial_extension(p, 1)
        assert presentation_isomorphism(te, lam) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"both 1-fold extensions isomorphic to the double edge "
              f"({elapsed:.3f}s)")


def _matches_under_bijection(arrows, expected):
    """arrows: multiset of (source, target) on 4 labels; expected: multiset
    on 0..3.  True when some relabeling makes them equal."""
    verts = sorted({v for pair in arrows for v in pair})
    assert len(verts) == 4
    want = sorted(expected)
    for perm in permutations(range(4)):
        ren = dict(zip(verts, perm))
        if sorted((ren[s], ren[t]) for s, t in arrows) == want:
            return True
    return False


def test_criterion_03_two_sheet_quivers():
    t0 = time.monotonic()
    pk = r_fold_trivial_extension(kronecker(), 2)
    pa = r_fold_trivial_extension(aprime(), 2)
    for p in (pk, pa):
        assert len(p.quiver_vertices()) == 4
        assert len(p.arrows()) == 8

    arrows_k = [(s, t) for _, s, t in pk.arrows()]
    doubled_cycle = [(i, (i + 1) % 4) for i in range(4)] * 2
    assert _matches_under_bijection(arrows_k, doubled_cycle)

    arrows_a = [(s, t) for _, s, t in pa.arrows()]
    both_ways = [(i, (i + 1) % 4) for i in range(4)] + \
                [((i + 1) % 4, i) for i in range(4)]
    assert _matches_under_bijection(arrows_a, both_ways)

    ga, gb = pk.afbg, pa.afbg
    assert is_isomorphic(ga.graph, gb.graph, ga.degrees, gb.degrees) is None
    assert presentation_isomorphism(pk, pa) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(3, f"doubled 4-cycle vs 4-cycle both ways, non-isomorphic "
              f"({elapsed:.3f}s)")


def test_criterion_04_covering_round_trip(corpus):
    t0 = time.monotonic()
    for base, cut, r, res in corpus:
        ok, why = verify_covering(res.cover, base)
        assert ok, why
        a, violations = is_admissible(res.cover.graph, res.cover.degrees)
        assert a is not None, violations
        assert len(res.cover.graph.attach) == r * len(base.graph.attach)
        assert dimension(res.cover) == r * dimension(base)
        red = reduced_form(res.cover)
        assert is_isomorphic(red.graph, base.graph,
                             red.degrees, base.degrees) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(4, f"{len(corpus)} covers verified, reduced forms match bases "
              f"({elapsed:.1f}s)")


def test_criterion_05_dimension_oracle():
    t0 = time.monotonic()
    checked = 0
    for g in connected_graphs_up_to(4):
        vs = sorted(g.vertices)
        for degs in product(range(1, 5), repeat=len(vs)):
            a, _ = is_admissible(g, dict(zip(vs, degs)))
            if a is None:
                continue
            checked += 1
            assert dimension(a) == oracle_dimension(build_presentation(a))

    rng = random.Random(7)
    for _ in range(100):
        g = random_ribbon_graph(rng, rng.randint(1, 3))
        r = rng.randint(1, 4)
        base = Afbg.build(g, cover_compatible_degrees(rng, g, r, max_k=1))
        cov = cover_finite(base, random_cut(rng, g), r).cover
        assert dimension(cov) == oracle_dimension(build_presentation(cov))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(5, f"{checked} exhaustive algebras + 100 covers, zero mismatches "
              f"({elapsed:.1f}s)")


def test_criterion_06_fingerprint_invariance():
    rng = random.Random(99)
    for i in range(100):
        if i % 3 == 0:
            a = random_fractional_afbg(rng, rng.randint(1, 4))
            assert not a.is_brauer_graph()
        else:
            a = random_afbg(rng, rng.randint(1, 8))
        fp = fingerprint(a)
        for _ in range(10):
            g2, d2 = shuffled_copy(rng, a.graph, a.degrees)
            assert fingerprint(Afbg.build(g2, d2)) == fp
    report(6, "100 algebras (34 fractional covers) x 10 relabelings, "
              "fingerprints identical")


def test_criterion_07_certificate_is_not_complete():
    pk = r_fold_trivial_extension(kronecker(), 2)
    pa = r_fold_trivial_extension(aprime(), 2)
    a, b = pk.afbg, pa.afbg
    assert compare(a, b).consistent
    assert is_isomorphic(a.graph, b.graph, a.degrees, b.degrees) is None
    report(7, "2-sheet pair: certificates agree, graphs differ")


def test_criterion_08_rep_finiteness():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 10)
        a, m = random_brauer_tree(rng, n)
        rep = rep_finite_report(a)
        assert rep.rep_finite
        assert rep.tree_edge_count == n
        assert rep.exceptional_multiplicity == m
    assert not rep_finite_report(lambda_afbg()).rep_finite
    report(8, "60 random trees finite with correct (n, m); "
              "double edge infinite")


def test_criterion_09_bipartiteness_lifts(corpus):
    odd = 0
    for base, _cut, _r, res in corpus:
        if not base.graph.is_bipartite():
            odd += 1
            assert not res.cover.graph.is_bipartite()
    assert odd > 0, "corpus never produced a non-bipartite base"
    report(9, f"{odd} non-bipartite bases, every cover non-bipartite")


def test_criterion_10_reconstruction_round_trip(corpus):
    unique = ambiguous = exceptional = 0
    for base, _cut, _r, _res in corpus:
        data, _name = loewy_data_of(base)
        try:
            rec = reconstruct_afbg(data)
        except Ambiguous as exc:
            tied = {row.label for row in data.rows
                    if row.strands[0] == row.strands[1]}
            assert exc.tie_classes, "ambiguity reported without tie classes"
            assert set(exc.tie_classes) <= tied
            ambiguous += 1
            continue
        except Exceptional:
            assert base.graph.num_edges() == 1
            exceptional += 1
            continue
        assert is_isomorphic(rec.afbg.graph, base.graph,
                             rec.afbg.degrees, base.degrees) is not None
        unique += 1
    assert unique + ambiguous + exceptional == len(corpus)
    report(10, f"{unique} reconstructed exactly, {ambiguous} ambiguous "
               f"(ties verified), {exceptional} exceptional")


def test_criterion_11_nakayama_orbits_on_covers(corpus):
    for _base, _cut, r, res in corpus:
        aut = nakayama_on_presentation(res.cover)
        quiver_vertices = set(build_presentation(res.cover).quiver_vertices())
        assert set(aut.vertex_map) == quiver_vertices
        sizes = {len(c) for c in orbits(aut.vertex_map)}
        assert sizes == {r}
    report(11, f"quiver-vertex orbits all of size r on {len(corpus)} covers")
