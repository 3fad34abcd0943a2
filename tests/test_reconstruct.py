import random
import time
from itertools import product

import pytest

from fbga.afbg import Afbg
from fbga.errors import (
    Ambiguous,
    Exceptional,
    FbgaError,
    InconsistentInput,
    InputError,
    NotAdmissible,
)
from fbga.randgen import random_afbg
from fbga.reconstruct import (
    LoewyData,
    _build_candidate,
    _Instance,
    _table_matches,
    loewy_data_of,
    reconstruct_afbg,
)
from fbga.ribbon import RibbonGraph, canonical_code, edge_id_of_pair, is_isomorphic


def roundtrip_check(a: Afbg) -> bool:
    """Whether the algebra's own Loewy data reconstructs a graph
    isomorphic (degrees included) to the one it came from."""
    data, _ = loewy_data_of(a)
    res = reconstruct_afbg(data)
    return is_isomorphic(res.afbg.graph, a.graph,
                         res.afbg.degrees, a.degrees) is not None


def lambda_afbg():
    g = RibbonGraph.build(
        {"u": ["h", "hp"], "w": ["ih", "ihp"]},
        [["h", "ih"], ["hp", "ihp"]])
    return Afbg.build(g, {"u": 2, "w": 2})


def loop_afbg(d):
    g = RibbonGraph.build({"v": ["a", "b"]}, [["a", "b"]])
    return Afbg.build(g, {"v": d})


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
        LoewyData.build([("a", ((), ()), True, "a"),
                         ("a", ((), ()), True, "a")])


def test_build_rejects_three_strands():
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), (), ()), True, "a")])


def test_build_rejects_unknown_labels():
    with pytest.raises(InputError):
        LoewyData.build([("a", (("zz",), ()), True, "a")])
    with pytest.raises(InputError):
        LoewyData.build([("a", ((), ()), True, "zz")])


def test_build_rejects_uniserial_contradiction():
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", (("a",), ("a",)), True, "a")])
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", (("a",), ()), False, "a")])


def test_build_rejects_non_permutation_socles():
    with pytest.raises(InconsistentInput):
        LoewyData.build([("a", ((), ()), True, "a"),
                         ("b", ((), ()), True, "a")])


def test_build_pads_missing_strand():
    data = LoewyData.build([("a", (("a",),), True, "a")])
    assert data.rows[0].strands == (("a",), ())
    assert data.rows[0].uniserial is True


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
        ("a", (("b",), ()), True, "b"),
        ("b", ((), ()), True, "a"),
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
    built one wiring per side-renaming class.  Small inputs only."""
    rows = data.rows
    if len(rows) == 1:
        l = rows[0].label
        if rows[0].strands == ((l,), (l,)) and rows[0].socle == l:
            raise Exceptional(
                "table fits both 4-dimensional local algebras (a loop of "
                "degree 2 and an edge of degrees 2,2); they cannot be told apart")

    instances = []
    for idx, row in enumerate(rows):
        for side, tag in ((0, "a"), (1, "b")):
            instances.append(_Instance(f"e{idx}{tag}", row.label,
                                       row.strands[side], row.socle))

    supply = {}
    demand = {}
    for inst in instances:
        supply.setdefault((inst.label, inst.strand), []).append(inst.name)
        window = inst.strand + (inst.socle,)
        demand.setdefault((window[0], window[1:]), []).append(inst.name)
    if {k: len(v) for k, v in supply.items()} != {k: len(v) for k, v in demand.items()}:
        raise InconsistentInput(
            "successor requirements do not match the available sides")

    ties = sorted(k for k, v in supply.items() if len(v) == 2)
    tie_labels = sorted({label for label, _ in ties})
    strand_len = {inst.name: len(inst.strand) for inst in instances}
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

        candidate = _build_candidate(successor, strand_len, edges)
        if candidate is None:
            continue
        graph, degrees = candidate
        if not graph.connected:
            continue
        try:
            a = Afbg.build(graph, degrees)
        except NotAdmissible:
            continue
        if not _table_matches(a, data, edge_labels):
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
    return LoewyData.build([(f"l{i}", ((f"l{i}",) * length,) * 2, False, f"l{i}")
                            for i in range(n)])


def disjoint_union(*tables):
    """One table holding every row of each table, labels prefixed by its
    position: the Loewy data of the disjoint union of the algebras."""
    raw = []
    for i, data in enumerate(tables):
        p = f"t{i}"
        raw += [(p + r.label, tuple(tuple(p + x for x in s) for s in r.strands),
                 r.uniserial, p + r.socle) for r in data.rows]
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
    no connected algebra has, and tied tables whose ties form two cycles."""
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


@pytest.mark.parametrize("k", [13, 20, 30, 40])
def test_large_dipole_reconstructs_uniquely_from_two_wirings(k):
    a = dipole(k, k, k)
    data, _ = loewy_data_of(a)
    rec = reconstruct_afbg(data)
    assert rec.wirings_tried == 2
    assert is_isomorphic(rec.afbg.graph, a.graph,
                         rec.afbg.degrees, a.degrees) is not None
