"""The traced run's layer pass: one number per layer metric.

One traced job of each kind in every workload, then in-process probes of the
layers that the rounds reach only through a worker pool or a server.
Every number is timed or counted from benchmark code, around calls into
the layers' public functions; where ``run_campaign`` makes the call
itself (``prepare_campaign``, ``merge_campaign``), the function is
wrapped for the duration of the pass.
"""

from __future__ import annotations

import contextlib
import statistics
from typing import Dict, List

from perfbench import instances as inst
from perfbench.checks import check_kset, require
from perfbench.workloads import (
    FUZZ_LENGTH,
    FUZZ_RUNS,
    WORKERS,
    WORKLOADS,
    ExploreSharded,
    FalsifyCampaigns,
)

#: Repetitions of the pool start-up probe.
FIXED_COST_REPEATS = 5
#: Seeds per sweep point in the simulation probe.
SIMULATION_SEEDS = 8


@contextlib.contextmanager
def instrument_campaign(tracer):
    """Record ``prepare_campaign``/``merge_campaign`` calls as spans.

    The engine calls both through its module globals, so wrapping them
    there times every campaign the benchmark starts in this process.
    """
    from repro.campaign import engine

    saved = {}

    def wrap(function, span_name):
        def timed(*args, **kwargs):
            with tracer.span(span_name):
                return function(*args, **kwargs)
        return timed

    for name, span_name in (("prepare_campaign", "campaign.prepare"),
                            ("merge_campaign", "campaign.merge")):
        saved[name] = getattr(engine, name)
        setattr(engine, name, wrap(saved[name], span_name))
    try:
        yield
    finally:
        for name, function in saved.items():
            setattr(engine, name, function)


def _mean(values: List[float]) -> float:
    require(bool(values), "layer pass recorded no sample")
    return statistics.fmean(values)


def _median(values: List[float]) -> float:
    require(bool(values), "layer pass recorded no sample")
    return statistics.median(values)


def run_rounds(root: str, seed: int, tmp: str, tracer) -> Dict[str, list]:
    """One traced job of each kind of every workload; all must succeed."""
    outcomes = {}
    for name, cls in WORKLOADS.items():
        workload = cls(root, seed, tmp, tracer)
        try:
            workload.setup()
            workload.load_references()
            with instrument_campaign(tracer):
                outcomes[name] = workload.distinct_round()
        finally:
            workload.close()
        for outcome in outcomes[name]:
            require(outcome.error is None,
                    f"{name} {outcome.label}: {outcome.error}")
    return outcomes


def explore_metrics(root: str, tracer, rounds) -> Dict[str, float]:
    """Serial explorer speed, shard work, and the useful share of it."""
    from repro.analysis import explore_prefix_range, explore_protocol
    from repro.analysis import schedule_prefixes
    from repro.analysis.explore import effective_prefix_depth
    from perfbench.reference import reference_reports

    refs = reference_reports(root, [(i, 0) for i in inst.EXPLORE_SAFE])
    distinct = sum(refs[(i.name, 0)]["configurations"]
                   for i in inst.EXPLORE_SAFE)
    visited = sum(outcome.detail.report.configurations
                  for outcome in rounds[ExploreSharded.name])
    serial = 0.0
    shares = []
    for instance in inst.EXPLORE_SAFE:
        protocol, task = instance.protocol(), instance.task()
        inputs = list(instance.inputs)
        with tracer.span("analysis.explore_protocol") as span:
            report = explore_protocol(
                protocol, inputs, task, max_configs=instance.max_configs,
                max_steps=instance.max_steps,
            )
        serial += span.seconds
        require(report.configurations
                == refs[(instance.name, 0)]["configurations"],
                f"{instance.name}: serial count {report.configurations} "
                f"differs from the reference explorer's")
        prefixes = schedule_prefixes(
            protocol, inputs,
            effective_prefix_depth(instance.prefix_depth,
                                   instance.max_steps),
        )
        units = []
        for index in range(len(prefixes)):
            with tracer.span("analysis.explore_prefix_range") as span:
                explore_prefix_range(
                    protocol, inputs, task, prefixes, index, index + 1,
                    max_configs=instance.max_configs,
                    max_steps=instance.max_steps,
                )
            units.append(span.seconds)
        shares.append(max(units) / sum(units))
    return {
        "analysis.explore.serial_s": serial,
        "analysis.explore.distinct_per_s": distinct / serial,
        "analysis.explore.visited": visited,
        "analysis.explore.useful_ratio": distinct / visited,
        "analysis.explore.unit_max_share": max(shares),
    }


def fuzz_metrics(seed: int, tracer) -> Dict[str, float]:
    """In-process fuzzing and shrinking on the falsify fuzz inputs."""
    import random

    from repro.analysis import fuzz_protocol, shrink_schedule
    from repro.protocols import (
        KSetAgreementTask,
        RacingConsensus,
        TruncatedProtocol,
    )

    protocol = TruncatedProtocol(RacingConsensus(3), 1)
    inputs = inst.distinct_inputs(random.Random(seed), 3)
    task = KSetAgreementTask(1)
    with tracer.span("analysis.fuzz_protocol") as span:
        report = fuzz_protocol(protocol, inputs, task, runs=FUZZ_RUNS,
                               schedule_length=FUZZ_LENGTH,
                               seed=0, shrink=False)
    fuzz_s = span.seconds
    shrinks = []
    for record in report.violations:
        with tracer.span("analysis.shrink_schedule") as span:
            shrink_schedule(protocol, inputs, task, list(record.schedule))
        shrinks.append(span.seconds)
    return {"analysis.fuzz_s": fuzz_s, "analysis.shrink_s": _median(shrinks)}


def simulation_metrics(seed: int, tracer) -> Dict[str, float]:
    """Per seed: the simulation, the Lemma 28 checker and their counts."""
    import random

    from repro.core import check_correspondence, run_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import RandomScheduler

    rng = random.Random(seed)
    simulation, invariant = [], []
    steps = revisions = blocks = 0
    for k, x, m in inst.SWEEP_POINTS:
        protocol = RotatingWrites(inst.simulated_n(k, x, m), m,
                                  rounds=inst.SWEEP_ROUNDS)
        inputs = inst.distinct_inputs(rng, k + 1)
        for run_seed in inst.SWEEP_SEED_BLOCK[:SIMULATION_SEEDS]:
            with tracer.span("core.run_simulation") as span:
                outcome = run_simulation(protocol, k=k, x=x, inputs=inputs,
                                         scheduler=RandomScheduler(run_seed))
            simulation.append(span.seconds)
            with tracer.span("core.check_correspondence") as span:
                correspondence = check_correspondence(outcome)
            invariant.append(span.seconds)
            require(correspondence.ok, f"seed {run_seed}: Lemma 28 failed")
            check_kset(inputs, outcome.decisions, k + 1)
            steps += outcome.result.steps
            revisions += outcome.revision_count()
            blocks += outcome.block_update_count()
    runs = len(simulation)
    return {
        "core.simulation_s": _mean(simulation),
        "core.invariant_s": _mean(invariant),
        "runtime.steps_per_s": steps / sum(simulation),
        "core.revisions": revisions / runs,
        "augmented.block_updates": blocks / runs,
    }


def fixed_cost_s(tracer) -> float:
    """Pool start-up and dispatch: a trivial two-chunk campaign, 2 - 1."""
    from repro.campaign import SweepProtocolJob, run_campaign
    from repro.protocols import KSetAgreementTask, RacingConsensus

    job = SweepProtocolJob(protocol=RacingConsensus(2), inputs=(0, 1),
                           seeds=(0, 1), task=KSetAgreementTask(1))
    differences = []
    for _ in range(FIXED_COST_REPEATS):
        walls = {}
        for workers in (WORKERS, 1):
            with tracer.span("campaign.run_campaign") as span:
                result = run_campaign(job, workers=workers, chunk_size=1)
            require(result.complete and result.report.clean,
                    "trivial campaign failed")
            walls[workers] = span.seconds
        differences.append(walls[WORKERS] - walls[1])
    return _median(differences)


def certify_metrics(tracer, rounds) -> Dict[str, float]:
    """Re-mint each falsify witness; verification spans came from checks."""
    from repro.certify.emit import (
        exploration_certificates,
        fuzz_certificates,
        sweep_run_certificate,
    )

    minted = 0
    mint_seconds = 0.0
    for outcome in rounds[FalsifyCampaigns.name]:
        detail = outcome.detail
        report = detail["report"]
        protocol, inputs, task = (detail["protocol"], detail["inputs"],
                                  detail["task"])
        with tracer.span("certify.mint") as span:
            if detail["kind"] == "explore":
                certificates = exploration_certificates(
                    protocol, inputs, task, report)
            elif detail["kind"] == "fuzz":
                certificates = fuzz_certificates(protocol, inputs, task,
                                                 report)
            else:
                payload = report.certificates[0].payload
                certificates = [sweep_run_certificate(
                    protocol, inputs, task, payload["seed"],
                    dict(payload["decisions"]), run="simulation",
                    max_steps=payload["max_steps"], k=1, x=1,
                )]
        mint_seconds += span.seconds
        require(certificates == report.certificates,
                f"{detail['kind']}: re-minted certificates differ")
        minted += len(certificates)
    return {
        "certify.mint_s": mint_seconds / minted,
        "certify.verify_s": _median(tracer.durations("certify.verify")),
        "certify.certificates": _mean(tracer.counts["certify.certificates"]),
    }


def _falsify_spans(tracer, name: str) -> List[float]:
    return [span.seconds for span in tracer.spans
            if span.name == name
            and (span.job or "").startswith(FalsifyCampaigns.name)]


def layer_metrics(root: str, seed: int, tmp: str, tracer) -> Dict[str, float]:
    """Every per-layer metric, from one traced pass."""
    rounds = run_rounds(root, seed, tmp, tracer)
    metrics = explore_metrics(root, tracer, rounds)
    metrics.update(fuzz_metrics(seed, tracer))
    metrics.update(simulation_metrics(seed, tracer))
    metrics["campaign.fixed_cost_s"] = fixed_cost_s(tracer)
    metrics["campaign.prepare_s"] = _median(
        _falsify_spans(tracer, "campaign.prepare"))
    metrics["campaign.merge_s"] = _median(
        _falsify_spans(tracer, "campaign.merge"))
    metrics["campaign.utilization"] = _mean(
        tracer.counts["campaign.utilization"])
    metrics["campaign.journal_bytes"] = _mean(
        tracer.counts["campaign.journal_bytes"])
    metrics.update(certify_metrics(tracer, rounds))
    metrics["serve.submit_s"] = _median(tracer.durations("serve.submit"))
    metrics["serve.queue_s"] = _median(tracer.counts["serve.queue_s"])
    metrics["serve.run_s"] = _median(tracer.counts["serve.run_s"])
    metrics["serve.report_s"] = _median(tracer.durations("serve.report"))
    metrics["serve.report_bytes"] = _mean(
        tracer.counts["serve.report_bytes"])
    return metrics
