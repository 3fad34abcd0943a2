"""fbga benchmark.

    python3 perfbench/run.py --workload canon|roundtrip|algebra --seed N \
        --seconds S --trace 0|1

Run from a checkout that holds ``src/fbga``.  The inputs are generated from
the seed into ``perfbench/.work/<workload>``, replacing the previous run's.
One client runs the workload's job list in a closed loop (one job in
flight), in whole passes for about ``--seconds``, and checks every job's
output outside the timed region.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # setup_s is the median of this many set-ups


def load_fbga() -> None:
    """Make ``src/fbga`` of this checkout importable, or exit with code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fbga
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fbga from {src}: {exc}")
    if Path(fbga.__file__).resolve().parent != src / "fbga":
        sys.exit(f"perfbench: fbga was imported from {fbga.__file__}, not from {src}")


@dataclass
class Measurement:
    passes: int = 0
    latencies: list = field(default_factory=list)  # seconds; inf for a failed job
    timed: float = 0.0                             # sum of job times
    passed: int = 0
    failures: list = field(default_factory=list)   # (job, reason, known)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return all(known for _, _, known in self.failures)


def run_job(job, m: Measurement) -> None:
    from workloads import Mismatch

    start = perf_counter()
    try:
        result, reason = job.call(), None
    except Exception as exc:  # a job that raises has failed; the run goes on
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    took = perf_counter() - start
    m.timed += took
    if reason is None:
        try:
            job.check(result)
        except Mismatch as exc:
            reason = str(exc)
        except Exception as exc:  # output the check cannot read is wrong output
            reason = f"malformed output: {type(exc).__name__}: {exc}"
    del result
    if reason is None:
        m.passed += 1
        m.latencies.append(took)
    else:
        known = bool(job.known_failure) and reason.startswith(job.known_failure)
        m.failures.append((job.name, reason, known))
        m.latencies.append(math.inf)


def measure(jobs: list, seconds: float | None = None, passes: int | None = None) -> Measurement:
    """Whole passes over ``jobs``: exactly ``passes`` passes, or as many as
    bring the elapsed time nearest to ``seconds`` (at least one)."""
    m = Measurement()
    gc.collect()
    start = perf_counter()
    while True:
        for job in jobs:
            run_job(job, m)
        m.passes += 1
        elapsed = perf_counter() - start
        if m.passes == passes or (passes is None and elapsed + elapsed / m.passes / 2 >= seconds):
            return m


def merge(total: Measurement, part: Measurement) -> None:
    total.passes += part.passes
    total.latencies += part.latencies
    total.timed += part.timed
    total.passed += part.passed
    total.failures += part.failures


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten of one pass's jobs beyond it."""
    return math.floor(100 * (1 - 10 / jobs_per_pass))


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup(workload: str, seed: int):
    import workloads

    return workloads.build(workload, seed, HERE / ".work" / workload)


def end_to_end(workload: str, seed: int, seconds: float):
    times, jobs = [], None
    for _ in range(SETUPS):
        jobs = None
        gc.collect()
        start = perf_counter()
        jobs = setup(workload, seed)
        times.append(perf_counter() - start)
    m = measure(jobs, seconds)
    q = tail_percentile(len(jobs))
    notes = [f"failed_ratio {len(m.failures) / m.attempted:.6f} 1",
             f"job_tail_ms is p{q} of {m.attempted} jobs ({len(jobs)} per pass, "
             f"{m.passes} passes)"]
    return m, e2e_metrics(m, times, q), notes


def e2e_metrics(m: Measurement, setup_times: list, q: int) -> dict:
    return {
        "jobs_per_s": (m.passed / m.timed, "1/s"),
        "job_p50_ms": (1000 * statistics.median(m.latencies), "ms"),
        "job_tail_ms": (1000 * nearest_rank(m.latencies, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(workload: str, seed: int, seconds: float):
    import spans

    jobs = setup(workload, seed)
    tracer = spans.Tracer()
    plain, traced = Measurement(), Measurement()
    start = perf_counter()
    while True:  # untraced and traced passes alternate, so both see the same machine
        merge(plain, measure(jobs, passes=1))
        restore = spans.install(tracer)
        try:
            merge(traced, measure(jobs, passes=1))
        finally:
            restore()
        elapsed = perf_counter() - start
        if elapsed + elapsed / traced.passes / 2 >= seconds:
            break
    memory = spans.PeakProbe()
    restore = spans.install(memory, only=spans.PEAKS)
    try:
        measure(jobs, passes=1)
    finally:
        restore()
    tracer.write(HERE / ".work" / f"spans-{workload}.jsonl")
    metrics = spans.layer_metrics(tracer, memory, traced.passes)
    metrics["trace.overhead_ratio"] = (traced.timed / plain.timed, "ratio")
    return traced, metrics, [f"per pass, {traced.passes} traced passes of {len(jobs)} jobs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("canon", "roundtrip", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_fbga()
    sys.path.insert(0, str(HERE))

    run = per_layer if args.trace else end_to_end
    m, metrics, notes = run(args.workload, args.seed, args.seconds)
    for job, reason, known in m.failures[:20]:
        print(f"{'known failure' if known else 'FAILED'}: {job}: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    print(json.dumps({"correct": m.correct, "attempted": m.attempted,
                      "failed": len(m.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
