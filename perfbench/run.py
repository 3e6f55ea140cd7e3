"""Benchmark of the repro toolkit: four workloads, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore-sharded --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run, whose spans
are written to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

#: Files of the program the benchmark needs in the checkout.
REQUIRED = ("src/repro/__init__.py", "tests/analysis/reference_explore.py",
            "BENCHMARK.json")
#: Set-up samples per run, spread over it; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Jobs a run needs for a p90 with ten samples beyond it.  The p90 is
#: printed on standard error: every run prints the same end-to-end
#: metrics, and two workloads complete too few jobs for a p90.
P90_MIN_JOBS = 100
#: A run stops starting rounds after this long, whatever ``min_jobs`` says.
HARD_LIMIT_S = 140.0


def run_loop(workload, seconds: float, min_jobs: int, between=None):
    """Attempt whole rounds for about ``seconds`` of job time.

    Another round starts while it is expected to end less than half a
    round past ``seconds``, or while fewer than ``min_jobs`` jobs have
    been attempted.  ``between(loop_seconds)`` runs after each round,
    outside the timed loop.  Returns ``(outcomes, rounds, loop seconds,
    loop CPU seconds)``; CPU covers this process and all it started.
    """
    from perfbench.measure import host_ticks, tree_cpu_seconds

    outcomes = []
    rounds = 0
    elapsed = cpu = 0.0
    ticks = [0, 0]
    while True:
        cpu_start = tree_cpu_seconds()
        ticks_start = host_ticks()
        start = time.perf_counter()
        outcomes.extend(workload.run_round())
        elapsed += time.perf_counter() - start
        cpu += tree_cpu_seconds() - cpu_start
        ticks = [a + b - c for a, b, c in
                 zip(ticks, host_ticks(), ticks_start)]
        rounds += 1
        expected_end = elapsed * (rounds + 0.5) / rounds
        if elapsed >= HARD_LIMIT_S or (
            expected_end >= seconds and len(outcomes) >= min_jobs
        ):
            print(f"perfbench: the host stole "
                  f"{ticks[0] / max(ticks[1], 1):.1%} of this machine's "
                  f"CPU time during the timed loop", file=sys.stderr)
            return outcomes, rounds, elapsed, cpu
        if between is not None:
            between(elapsed)


def run_rounds(workload, rounds: int):
    """Attempt exactly ``rounds`` rounds; returns the outcomes."""
    outcomes = []
    for _ in range(rounds):
        outcomes.extend(workload.run_round())
    return outcomes


def _report_failures(outcomes) -> None:
    for outcome in outcomes:
        if outcome.error is not None:
            print(f"perfbench: job {outcome.label} failed: {outcome.error}",
                  file=sys.stderr)


def _summary(outcomes, metrics):
    return {
        "correct": not any(outcome.wrong for outcome in outcomes),
        "attempted": len(outcomes),
        "failed": sum(outcome.error is not None for outcome in outcomes),
        "metrics": metrics,
    }


def _with_units(kind: str, values):
    """``values`` as BENCHMARK.json's ``kind`` metrics, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    if set(declared) != set(values):
        raise RuntimeError(
            f"measured {sorted(values)} but BENCHMARK.json declares "
            f"{sorted(declared)}"
        )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def timed_run(name: str, seed: int, seconds: float, tmp: str):
    """End-to-end metrics of one workload, tracing off."""
    from perfbench.measure import p90, setup_seconds, tree_peak_rss_mb
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    setup = []

    def sample_setup(loop_seconds: float) -> None:
        # Spread the samples over the run: the machine's speed drifts
        # over seconds, and samples taken back to back all see one state.
        due = 1 + int(loop_seconds * (SETUP_SAMPLES - 1) / seconds)
        count = min(due, SETUP_SAMPLES) - len(setup)
        if count > 0:
            setup.extend(setup_seconds(ROOT, name, seed, count))

    workload = WORKLOADS[name](ROOT, seed, tmp, Tracer(False))
    try:
        workload.setup()
        workload.load_references()
        sample_setup(0.0)
        outcomes, _rounds, wall, cpu = run_loop(
            workload, seconds, workload.min_jobs, sample_setup)
        peak = tree_peak_rss_mb()
    finally:
        workload.close()
    setup.extend(setup_seconds(ROOT, name, seed,
                               SETUP_SAMPLES - len(setup)))
    _report_failures(outcomes)
    walls = [o.seconds for o in outcomes if o.error is None]
    if not walls:
        raise RuntimeError(f"no {name} job succeeded")
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(walls),
        "jobs_per_s": len(walls) / wall,
        "cpu_s_per_job": cpu / len(outcomes),
        "peak_rss_mb": peak,
    }
    tail = ""
    if workload.min_jobs >= P90_MIN_JOBS:
        if len(walls) < P90_MIN_JOBS:
            raise RuntimeError(f"only {len(walls)} jobs completed; a p90 "
                               f"needs {P90_MIN_JOBS}")
        tail = f", job_p90_s {p90(walls):.4f}"
    print(f"perfbench: {name} {len(walls)} jobs in {wall:.2f} s, "
          f"job_p50_s {metrics['job_p50_s']:.4f}{tail}", file=sys.stderr)
    return _summary(outcomes, _with_units("end_to_end", metrics))


def traced_run(name: str, seed: int, seconds: float, tmp: str):
    """Per-layer metrics, plus self time per layer and tracing overhead.

    The workload first runs untraced for half the time, then traced for
    the same number of rounds; the ratio of their median job times is
    the tracing overhead.  The layer pass (:mod:`perfbench.layers`)
    then yields every per-layer metric.
    """
    from perfbench.layers import instrument_campaign, layer_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer(False)
    workload = WORKLOADS[name](ROOT, seed, tmp, tracer)
    try:
        workload.setup()
        workload.load_references()
        untraced, rounds, _wall, _cpu = run_loop(workload, seconds / 2, 1)
        tracer.enabled = True
        with instrument_campaign(tracer):
            traced = run_rounds(workload, rounds)
    finally:
        workload.close()
    outcomes = untraced + traced
    _report_failures(outcomes)
    overhead = (statistics.median([o.seconds for o in traced])
                / statistics.median([o.seconds for o in untraced]))

    layer_tracer = Tracer(True)
    metrics = layer_metrics(ROOT, seed, tmp, layer_tracer)
    metrics["trace.overhead_ratio"] = overhead

    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"trace-{name}-{seed}.jsonl"))
    layer_tracer.write(os.path.join(out, f"layers-{name}-{seed}.jsonl"))
    print(f"perfbench: {name} traced {len(traced)} jobs, overhead "
          f"{overhead:.3f}x of untraced median; self seconds by layer:",
          file=sys.stderr)
    for layer, spent in sorted(tracer.self_seconds().items(),
                               key=lambda item: -item[1]):
        print(f"  {layer:<10} {spent:9.3f}", file=sys.stderr)
    return _summary(outcomes, _with_units("per_layer", metrics))


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
