import json
import random
import time
from itertools import product
from pathlib import Path

import pytest

from fbga import reconstruct
from fbga.afbg import Afbg
from fbga.errors import (
    Ambiguous,
    Exceptional,
    FbgaError,
    InconsistentInput,
    InputError,
    NotAdmissible,
)
from fbga.fileio import parse_loewy, parse_ribbon
from fbga.reconstruct import LoewyData, loewy_labels, reconstruct_afbg
from fbga.ribbon import RibbonGraph, canonical_code, edge_id_of_pair, is_isomorphic, orbits
from generators import lambda_afbg, loop_afbg, random_afbg, random_fractional_afbg
from oracles import loewy_data_of, strand_labels, table_matches


def roundtrip_check(a: Afbg) -> bool:
    """Whether the algebra's own Loewy data reconstructs a graph
    isomorphic (degrees included) to the one it came from, whose own
    table, under the returned labels, is that data."""
    data, _ = loewy_data_of(a)
    res = reconstruct_afbg(data)
    return (is_isomorphic(res.afbg.graph, a.graph, res.afbg.degrees, a.degrees) is not None
            and table_matches(res.afbg, data, res.edge_labels))


def test_loewy_labels_number_the_edge_ids_in_sorted_order():
    """Labels s0, s1, ... follow the sorted edge ids, each id the sorted ends
    of an edge of the file joined by "~".  In data/lambda.rg the pair
    ("h", "ih") sorts before ("hp", "ihp"), but "hp~ihp" before "h~ih", so
    numbering the edges in pair order would fail."""
    text = (Path(__file__).resolve().parent.parent / "data" / "lambda.rg").read_text()
    ids = sorted("~".join(sorted(edge)) for edge in json.loads(text)["edges"])
    assert ids == ["hp~ihp", "h~ih"]
    assert loewy_labels(parse_ribbon(text)[0]) == {e: f"s{i}" for i, e in enumerate(ids)}


def star_afbg(k):
    g = RibbonGraph.build(
        {"c": [f"c{i}" for i in range(k)], **{f"x{i}": [f"x{i}"] for i in range(k)}},
        [[f"c{i}", f"x{i}"] for i in range(k)])
    return Afbg.build(g, {"c": k, **{f"x{i}": 1 for i in range(k)}})


def single_edge_afbg(du, dw):
    g = RibbonGraph.build({"u": ["h"], "w": ["k"]}, [["h", "k"]])
    return Afbg.build(g, {"u": du, "w": dw})


# ---------------------------------------------------------------- validation

def test_build_rejects_duplicate_labels():
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), ()), "a"),
                         ("a", ((), ()), "a")])


def test_build_rejects_three_strands():
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), (), ()), "a")])


def test_build_rejects_unknown_labels():
    with pytest.raises(InputError):
        LoewyData.build([("a", (("zz",), ()), "a")])
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), ()), "zz")])


def test_build_rejects_non_permutation_socles():
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", ((), ()), "a"),
                         ("b", ((), ()), "a")])


def test_build_pads_missing_strand():
    data = LoewyData.build([("a", (("a",),), "a")])
    assert data.rows[0].strands == ("a", "")


# ------------------------------------------------------------ reconstruction

def test_reconstruct_double_edge_unique():
    a = lambda_afbg()
    data, name = loewy_data_of(a)
    rec = reconstruct_afbg(data)
    assert rec.wirings_tried == 2
    assert is_isomorphic(rec.afbg.graph, a.graph,
                         rec.afbg.degrees, a.degrees) is not None
    assert sorted(rec.edge_labels.values()) == sorted(name.values())


def test_reconstruct_degenerate_loop_is_ambiguous():
    data, _ = loewy_data_of(loop_afbg(4))
    with pytest.raises(Ambiguous) as exc:
        reconstruct_afbg(data)
    assert exc.value.tie_classes == ["s0"]


def test_reconstruct_exceptional_pair_rejected():
    for a in (loop_afbg(2), single_edge_afbg(2, 2)):
        data, _ = loewy_data_of(a)
        with pytest.raises(Exceptional):
            reconstruct_afbg(data)


def test_cyclic_sequences_reject_impossible_walk():
    # the walk from side 0 of a needs b to carry a strand (b,), and it has none
    data = LoewyData.build([
        ("a", (("b",), ()), "b"),
        ("b", ((), ()), "a"),
    ])
    with pytest.raises(InconsistentInput, match="successor requirements do not match"):
        reconstruct_afbg(data)


def test_single_loop_not_exceptional_when_degree_differs():
    """A loop of degree 4 shares nothing with the exceptional pair; it
    fails by ambiguity, not by the exceptional guard."""
    data, _ = loewy_data_of(loop_afbg(6))
    with pytest.raises(Ambiguous):
        reconstruct_afbg(data)


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_random_brauer(seed):
    rng = random.Random(seed)
    a = random_afbg(rng, num_edges=rng.randint(2, 5))
    try:
        assert roundtrip_check(a)
    except Ambiguous as exc:
        # ambiguity is only permitted when interchangeable sides exist
        data, _ = loewy_data_of(a)
        tied = {r.label for r in data.rows if r.strands[0] == r.strands[1]}
        assert exc.tie_classes
        assert set(exc.tie_classes) <= tied
    except Exceptional:
        assert a.graph.num_edges() == 1


def test_roundtrip_check_true_on_star():
    assert roundtrip_check(star_afbg(3))


# ------------------------------------------- brute-force oracle for pruning

def reconstruct_all_wirings(data: LoewyData):
    """Every one of the 2^t side swaps, as reconstruction did before it
    built one wiring per side-renaming class, each candidate built here,
    kept when its table is the input and deduplicated by canonical code.
    Small inputs only."""
    rows = data.rows
    if len(rows) == 1:
        l = rows[0].label
        if rows[0].strands == (l, l) and rows[0].socle == l:
            raise Exceptional(
                "table fits both 4-dimensional local algebras (a loop of "
                "degree 2 and an edge of degrees 2,2); they cannot be told apart")

    supply = {}
    demand = {}
    strand_len = {}
    for idx, row in enumerate(rows):
        for tag, strand in zip("ab", map(strand_labels, row.strands)):
            side = f"e{idx}{tag}"
            supply.setdefault((row.label, strand), []).append(side)
            window = strand + (row.socle,)
            demand.setdefault((window[0], window[1:]), []).append(side)
            strand_len[side] = len(strand)
    if {k: len(v) for k, v in supply.items()} != {k: len(v) for k, v in demand.items()}:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    ties = sorted(k for k, v in supply.items() if len(v) == 2)
    tie_labels = sorted({label for label, _ in ties})
    edges = [[f"e{idx}a", f"e{idx}b"] for idx in range(len(rows))]
    edge_labels = {edge_id_of_pair(f"e{idx}a", f"e{idx}b"): row.label
                   for idx, row in enumerate(rows)}

    survivors = {}
    for bits in product((0, 1), repeat=len(ties)):
        successor = {}
        for key, dlist in demand.items():
            slist = supply[key]
            if len(slist) == 1:
                successor[dlist[0]] = slist[0]
            else:
                b = bits[ties.index(key)]
                d1, d2 = sorted(dlist)
                successor[d1] = slist[b]
                successor[d2] = slist[1 - b]

        rotations = {f"v{i}": cycle for i, cycle in enumerate(orbits(successor))}
        graph = RibbonGraph.build(rotations, edges)
        degrees = {v: strand_len[cycle[0]] + 1 for v, cycle in rotations.items()}
        if not graph.connected:
            continue
        try:
            a = Afbg.build(graph, degrees)
        except NotAdmissible:
            continue
        if not table_matches(a, data, edge_labels):
            continue
        survivors.setdefault(canonical_code(graph, degrees), a)

    if not survivors:
        raise InconsistentInput(
            "no connected admissible graph realizes this table")
    if len(survivors) > 1:
        raise Ambiguous(
            f"{len(survivors)} non-isomorphic graphs realize this table",
            tie_classes=tie_labels)
    (a,) = survivors.values()
    return a, edge_labels


def outcome(reconstruct, data):
    """Everything a caller can observe of one reconstruction."""
    try:
        res = reconstruct(data)
    except FbgaError as exc:
        return type(exc), str(exc), getattr(exc, "tie_classes", None)
    a, labels = res if isinstance(res, tuple) else (res.afbg, res.edge_labels)
    return a.graph.rotation, a.graph.edge_pairs(), a.degrees, labels


def admissible_or_none(rotations, edges, degrees):
    try:
        return Afbg.build(RibbonGraph.build(rotations, edges), degrees)
    except NotAdmissible:
        return None


def dipole(k, du, dw, turn=1):
    """k parallel edges; the second end turns the same way (turn 1) or
    the opposite way (turn -1)."""
    return admissible_or_none(
        {"u": [f"h{i}" for i in range(k)],
         "w": [f"g{turn * i % k}" for i in range(k)]},
        [[f"h{i}", f"g{i}"] for i in range(k)], {"u": du, "w": dw})


def bouquet(k, d):
    return admissible_or_none(
        {"v": [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]},
        [[f"a{i}", f"b{i}"] for i in range(k)], {"v": d})


def self_feeding(n, length):
    """n rows, each tied and feeding itself: n cycles of ties."""
    return LoewyData.build([(f"l{i}", ((f"l{i}",) * length,) * 2, f"l{i}")
                            for i in range(n)])


def disjoint_union(*tables):
    """One table holding every row of each table, labels prefixed by its
    position: the Loewy data of the disjoint union of the algebras."""
    raw = []
    for i, data in enumerate(tables):
        p = f"t{i}"
        raw += [(p + r.label, tuple(tuple(p + x for x in strand_labels(s)) for s in r.strands),
                 p + r.socle) for r in data.rows]
    return LoewyData.build(raw)


def num_ties(data):
    return sum(1 for r in data.rows if r.strands[0] == r.strands[1])


@pytest.mark.parametrize("n", [13, 10000])
def test_split_ties_are_proved_inconsistent(n, monkeypatch):
    """n self-feeding tied rows are n cycles of ties, each its own
    component in every wiring: refused before any graph is built."""
    def no_build(*args):
        raise AssertionError("a candidate graph was built")

    monkeypatch.setattr("fbga.reconstruct._build_candidate", no_build)
    data = self_feeding(n, 3)
    start = time.perf_counter()
    with pytest.raises(InconsistentInput, match="no connected admissible graph"):
        reconstruct_afbg(data)
    assert time.perf_counter() - start < 1.0


def mixed_tables():
    """Disjoint unions: tied and untied rows together, which the table of
    no connected algebra has, tied tables whose ties form two cycles, and
    untied tables, whose one candidate is disconnected."""
    tied = [loewy_data_of(a)[0] for a in
            (lambda_afbg(), dipole(3, 3, 3), dipole(3, 2, 2), dipole(4, 2, 2), loop_afbg(4))]
    untied = [loewy_data_of(star_afbg(k))[0] for k in (2, 3)]
    for seed in range(40):
        rng = random.Random(seed)
        data = loewy_data_of(random_afbg(rng, num_edges=rng.randint(2, 4)))[0]
        if num_ties(data) == 0:
            untied.append(data)
        if len(untied) == 4:
            break
    tables = {disjoint_union(t, u) for t in tied for u in untied[:2]}
    tables |= {disjoint_union(u, t) for t in tied[:2] for u in untied[2:]}
    tables |= {disjoint_union(self_feeding(1, length), u)
               for length in (1, 2) for u in untied[:3]}
    tables |= {disjoint_union(tied[0], tied[1]), disjoint_union(tied[0], tied[0])}
    tables |= {disjoint_union(u, v) for u in untied[:2] for v in untied[1:4]}
    return tables


def oracle_tables():
    algebras = []
    for k in range(1, 9):
        for du, dw, turn in product(range(1, 2 * k + 1), range(1, 2 * k + 1), (1, -1)):
            algebras.append(dipole(k, du, dw, turn))
    for k in range(1, 7):
        algebras += [bouquet(k, d) for d in range(1, 2 * k + 1)]
    algebras += [bouquet(1, d) for d in range(2, 9)]
    for seed in range(30):
        rng = random.Random(seed)
        algebras.append(random_afbg(rng, num_edges=rng.randint(2, 6)))
    tables = {loewy_data_of(a)[0] for a in algebras if a is not None}
    tables |= {self_feeding(n, length) for n in range(1, 5) for length in range(1, 4)}
    tables |= mixed_tables()
    return sorted(tables, key=repr)


def test_one_wiring_per_class_agrees_with_all_wirings():
    kinds = set()
    tables = oracle_tables()
    for data in tables:
        assert num_ties(data) <= 8
        expected = outcome(reconstruct_all_wirings, data)
        assert outcome(reconstruct_afbg, data) == expected, data
        if isinstance(expected[0], type):
            kinds.add(expected[0])
        else:
            kinds.add("unique")
            assert reconstruct_afbg(data).wirings_tried in (1, 2)
    assert len(tables) > 150
    assert sum(1 for d in tables if 0 < num_ties(d) < len(d.rows)) >= 9
    assert kinds == {"unique", Ambiguous, Exceptional, InconsistentInput}


def eleven_row_tables():
    """Tables of 11 or more rows, so that side e10a sorts before e2a: a star
    with 12 leaves, the 11-edge dipole, whose 11 ties give the oracle 2,048
    wirings, the star beside the double edge (2 ties among 14 rows), and
    random Brauer graphs of 11 and 12 edges."""
    star = loewy_data_of(star_afbg(12))[0]
    tables = [star, loewy_data_of(dipole(11, 11, 11))[0],
              disjoint_union(loewy_data_of(lambda_afbg())[0], star)]
    rng = random.Random(16)
    tables += [loewy_data_of(random_afbg(rng, rng.randint(11, 12)))[0] for _ in range(4)]
    return tables


def test_eleven_row_tables_agree_with_all_wirings():
    tables = eleven_row_tables()
    assert [num_ties(d) for d in tables[:3]] == [0, 11, 2]
    for data in tables:
        assert len(data.rows) >= 11
        assert outcome(reconstruct_afbg, data) == outcome(reconstruct_all_wirings, data)


def test_the_first_wiring_of_a_tied_table_is_a_connected_admissible_dipole(monkeypatch):
    """With ties, the first wiring follows each a side by an a side and each
    b side by a b side: two vertices joined by every edge, on which ν turns
    both stars alike.  So it always survives, and a tied table builds either
    no candidate or both.  The twin exchanges two sides that lie on the two
    vertices, so it has one vertex whether or not it is admissible, and no
    isomorphism test is needed to tell the two apart."""
    build = reconstruct._build_candidate
    built = []

    def spy(successor, strand_len, edges):
        built.append((successor, build(successor, strand_len, edges)))
        return built[-1][1]

    monkeypatch.setattr(reconstruct, "_build_candidate", spy)
    twins = {True: 0, False: 0}  # admissible twin -> tables
    for data in oracle_tables() + eleven_row_tables():
        built.clear()
        try:
            reconstruct_afbg(data)
        except FbgaError:
            pass
        if len(built) < 2:
            assert not (built and num_ties(data)), data
            continue
        (first, a), (twin, b) = built
        assert all(d[-1] == s[-1] for d, s in first.items())
        assert len(orbits(first)) == len(a.graph.vertices) == 2 and a.graph.connected
        assert len(orbits(twin)) == 1
        twins[b is not None] += 1
    assert min(twins.values()) > 10 and sum(twins.values()) > 30, twins


@pytest.mark.parametrize("k", [13, 20, 30, 40])
def test_large_dipole_reconstructs_uniquely_from_two_wirings(k):
    a = dipole(k, k, k)
    data, _ = loewy_data_of(a)
    rec = reconstruct_afbg(data)
    assert rec.wirings_tried == 2
    assert is_isomorphic(rec.afbg.graph, a.graph,
                         rec.afbg.degrees, a.degrees) is not None


# ------------------------------------------------ mutated tables and text keys

def mutated(rng, data: LoewyData) -> list:
    """The rows of ``data`` as (label, strands, socle) triples after one or
    two random changes: a socle changed, a strand label changed, dropped
    or appended, the two strands of a row swapped, or strands or socles
    swapped between two rows.  Every label written is a label."""
    rows = [[r.label, [list(strand_labels(s)) for s in r.strands], r.socle] for r in data.rows]
    labels = [r[0] for r in rows]
    for _ in range(rng.randint(1, 2)):
        (i, a), (j, b) = ((rng.randrange(len(rows)), rng.randrange(2)) for _ in "ij")
        strand = rows[i][1][a]
        kind = rng.randrange(7)
        if kind == 0:
            rows[i][2] = rng.choice(labels)
        elif kind == 1 and strand:
            strand[rng.randrange(len(strand))] = rng.choice(labels)
        elif kind == 2 and strand:
            del strand[rng.randrange(len(strand))]
        elif kind == 3:
            strand.append(rng.choice(labels))
        elif kind == 4:
            rows[i][1].reverse()
        elif kind == 5:
            rows[i][1][a], rows[j][1][b] = rows[j][1][b], strand
        elif kind == 6:
            rows[i][2], rows[j][2] = rows[j][2], rows[i][2]
    return [(label, tuple(map(tuple, strands)), socle) for label, strands, socle in rows]


def test_mutated_tables_agree_with_all_wirings():
    """Seeded mutations of the tables of random Brauer graphs and covers
    with at most 6 edges: reconstruction, which never rebuilds a
    candidate's table, and the all-wirings oracle, which checks it, give
    the same outcome on every mutated table that is a table."""
    rng = random.Random(15)
    kinds = {}
    start = time.perf_counter()
    for n in range(600):
        a = (random_afbg(rng, rng.randint(1, 6)) if n % 2
             else random_fractional_afbg(rng, rng.randint(1, 2)))
        try:
            data = LoewyData.build(mutated(rng, loewy_data_of(a)[0]))
        except FbgaError:
            continue
        expected = outcome(reconstruct_all_wirings, data)
        assert outcome(reconstruct_afbg, data) == expected, data
        kind = expected[0] if isinstance(expected[0], type) else "unique"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert time.perf_counter() - start < 1.0
    assert set(kinds) == {"unique", Ambiguous, Exceptional, InconsistentInput}, kinds
    assert sum(kinds.values()) > 500, kinds


def test_a_label_holding_the_separator_is_never_a_key():
    """The text of the strand ["x~y"] is that of ["x", "y"]; the label
    check refuses it before reconstruction builds any key."""
    data, _ = loewy_data_of(star_afbg(3))
    raw = [(r.label, tuple(map(strand_labels, r.strands)), r.socle) for r in data.rows]
    i, (label, (strand, other), socle) = next(
        (i, r) for i, r in enumerate(raw) if len(r[1][0]) == 2)
    x, y = strand
    raw[i] = (label, ((f"{x}~{y}",), other), socle)
    with pytest.raises(InputError, match=f"strand of {label!r} mentions unknown label "
                                         f"'{x}~{y}'"):
        LoewyData.build(raw)
    text = json.dumps([{"id": l, "strands": s, "socle": so} for l, s, so in raw])
    with pytest.raises(InputError, match="mentions unknown label"):
        parse_loewy(text)
