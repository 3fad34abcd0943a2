"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import shutil

import pytest

import run

run.load_fbga()

import spans  # noqa: E402
import workloads  # noqa: E402

WORK = run.HERE / ".work" / "tests"


def generated(tag: str, seed: int) -> dict:
    root = WORK / tag
    shutil.rmtree(root, ignore_errors=True)
    for w in workloads.WORKLOADS:
        workloads.build(w, seed, root / w)
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_inputs():
    first = generated("a", 7)
    assert first and first == generated("b", 7)
    assert first != generated("c", 8)


def tiny_pass(workload: str, tracer=None):
    jobs = workloads.build(workload, 3, WORK / f"tiny-{workload}", workloads.TINY)
    restore = spans.install(tracer) if tracer else None
    try:
        return jobs, run.measure(jobs, passes=1)
    finally:
        if restore:
            restore()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    jobs, m = tiny_pass(workload)
    assert m.attempted == len(jobs) and m.correct
    known = [name for name, _, _ in m.failures]
    assert known == (["reconstruct/dipole13"] if workload == "roundtrip" else [])


def test_a_wrong_output_fails_its_check():
    jobs = workloads.build("canon", 3, WORK / "tiny-canon", workloads.TINY)
    job = next(j for j in jobs if j.name.startswith("iso/") and j.name.endswith("+"))
    job.call = lambda: workloads.Out(3, "not isomorphic\n", "")
    m = run.measure([job], passes=1)
    assert not m.correct and m.latencies == [float("inf")]


def traced(workload: str) -> dict:
    tracer = spans.Tracer()
    tiny_pass(workload, tracer)
    return {k: v for k, (v, _) in spans.layer_metrics(tracer, spans.PeakProbe(), 1).items()}


def test_bypassed_layers_do_no_work():
    algebra, canon = traced("algebra"), traced("canon")
    for name in ("ribbon.canonical_code.calls", "reconstruct.reconstruct_afbg.calls",
                 "reconstruct.wirings"):
        assert algebra[name] == 0, name
    for name in ("presentation.build_presentation.calls", "reconstruct.reconstruct_afbg.calls",
                 "reconstruct.wirings", "reconstruct.loewy_data_of.self_s"):
        assert canon[name] == 0, name
    assert algebra["presentation.build_presentation.calls"] > 0
    assert canon["ribbon.canonical_code.calls"] > 0


def test_roundtrip_counts_wirings_and_rejections():
    m = traced("roundtrip")
    assert m["reconstruct.wirings"] > m["reconstruct.reconstruct_afbg.calls"] > 0
    assert 0 < m["reconstruct.admissible_ratio"] <= 1


def test_install_is_undone():
    import fbga.cli
    import fbga.ribbon

    original = fbga.ribbon.canonical_code
    restore = spans.install(spans.Tracer())
    assert fbga.cli.canonical_code is not original
    restore()
    assert fbga.cli.canonical_code is original and fbga.ribbon.RibbonGraph.build.__name__ == "build"


def test_peak_probe_attributes_peaks():
    probe = spans.PeakProbe()
    jobs = workloads.build("algebra", 3, WORK / "tiny-algebra", workloads.TINY)
    restore = spans.install(probe, only=spans.PEAKS)
    try:
        run.measure(jobs, passes=1)
    finally:
        restore()
    assert probe.peak["presentation.basis"] > 0
    assert probe.peak["presentation.build_presentation"] > 0
    assert "ribbon.canonical_code" not in probe.peak


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, m = tiny_pass("canon")
    e2e = run.e2e_metrics(m, [1.0], run.tail_percentile(m.attempted))
    layers = spans.layer_metrics(spans.Tracer(), spans.PeakProbe(), 1)
    layers["trace.overhead_ratio"] = (1.0, "ratio")
    assert {r["name"]: r["unit"] for r in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {r["name"]: r["unit"] for r in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
