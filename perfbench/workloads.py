"""The four workloads: inputs made from the seed, rounds of jobs, checks.

Every job is a closed loop: it is sent when the previous one has
finished and been checked, and it counts as failed if it raises, ends
in a state other than done, has failed chunks or fails a check
(:mod:`perfbench.checks`).  Each run attempts whole rounds, so every
run attempts the same mix of jobs.  Worker counts are pinned to
``WORKERS``; no call leaves them to the program's automatic policy.
"""

from __future__ import annotations

import base64
import functools
import http.client
import itertools
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import instances as inst
from perfbench.checks import (
    CheckFailed,
    check_against_reference,
    check_below_bound,
    check_certificates,
    check_counterexample,
    check_kset,
    check_sweep,
    kset_problems,
    require,
)
from perfbench.measure import descendants, wait_gone
from perfbench.reference import reference_reports

#: Pool workers for every campaign and for the job server.
WORKERS = 2

#: falsify-campaigns job sizes.
FUZZ_RUNS = 200
FUZZ_LENGTH = 40
E4_SEEDS = 30
E4_MAX_STEPS = 400_000


@dataclass
class Outcome:
    """One attempted job and its wall time.

    ``error`` says why it failed (``None``: it did not), ``wrong`` that
    its output failed a check, ``detail`` what the job returned.
    """

    label: str
    seconds: float
    error: Optional[str]
    wrong: bool = False
    detail: Any = None


class Workload:
    """Inputs for one workload and the jobs that exercise the program.

    ``setup`` does what a user does before the first job can be sent
    (imports, instance construction, for the service a server start);
    ``run_round`` attempts one round of jobs; ``close`` stops whatever
    ``setup`` started.
    """

    name = ""
    #: Jobs a run must complete before a p90 is reported.
    min_jobs = 1

    def __init__(self, root: str, seed: int, tmp: str, tracer):
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.job_numbers = itertools.count(1)
        self.rounds = 0
        self.refs: Dict[Tuple[str, int], Dict] = {}

    def setup(self) -> None:
        """Import the program and build the inputs."""

    def references(self) -> List[Tuple[inst.ExploreInstance, int]]:
        """Reference explorer results the checks need."""
        return []

    def load_references(self) -> None:
        """Fetch (or compute once) the reference explorer results."""
        self.refs = reference_reports(self.root, self.references())

    def jobs(self) -> List[Tuple[str, Callable[[], Any]]]:
        """One round: ``(label, job)`` pairs, rotated by the seed."""
        raise NotImplementedError

    def run_round(self) -> List[Outcome]:
        """Attempt one round of jobs, one after another."""
        outcomes = [self.attempt(label, job) for label, job in self.jobs()]
        self.rounds += 1
        return outcomes

    def distinct_round(self) -> List[Outcome]:
        """One job of each kind in a round, for the traced layer pass."""
        return [self.attempt(label, job)
                for label, job in dict(self.jobs()).items()]

    def attempt(self, label: str, job: Callable[[], Any]) -> Outcome:
        """Run one job to a checked result; a failure is recorded."""
        job_id = f"{self.name}:{next(self.job_numbers)}:{label}"
        start = time.perf_counter()
        try:
            with self.tracer.job(job_id):
                detail = job()
        except CheckFailed as error:
            return Outcome(label, time.perf_counter() - start,
                           f"check failed: {error}", wrong=True)
        except Exception as error:  # a failed job is counted, not fatal
            return Outcome(label, time.perf_counter() - start,
                           f"{type(error).__name__}: {error}")
        return Outcome(label, time.perf_counter() - start, None,
                       detail=detail)

    def rotate(self, items: Sequence) -> List:
        """The round's jobs, starting at a seed-chosen position."""
        phase = self.seed % len(items)
        return list(items[phase:]) + list(items[:phase])

    def close(self) -> None:
        """Stop what ``setup`` started."""


def _complete(result) -> None:
    require(result.complete, "failed chunks: " + "; ".join(result.missing))


class ExploreSharded(Workload):
    """Sharded bounded-exhaustive exploration of safe instances."""

    name = "explore-sharded"

    def setup(self) -> None:
        from repro.campaign import explore_campaign

        self.explore_campaign = explore_campaign
        built = {
            instance.name: (instance, instance.protocol(), instance.task())
            for instance in inst.EXPLORE_SAFE
        }
        self.instances = [built[name] for name in inst.EXPLORE_ROUND]

    def references(self):
        return [(i, i.prefix_depth) for i in inst.EXPLORE_SAFE]

    def jobs(self):
        return self.rotate([
            (entry[0].name, functools.partial(self._explore, *entry))
            for entry in self.instances
        ])

    def _explore(self, instance, protocol, task):
        with self.tracer.span("campaign.explore_campaign"):
            result = self.explore_campaign(
                protocol, list(instance.inputs), task,
                max_configs=instance.max_configs,
                max_steps=instance.max_steps,
                prefix_depth=instance.prefix_depth, workers=WORKERS,
            )
        with self.tracer.span("check.reference"):
            _complete(result)
            check_against_reference(
                result.report, self.refs[(instance.name,
                                          instance.prefix_depth)]
            )
        self.tracer.count("campaign.utilization",
                          result.telemetry.utilization)
        return result


class SweepSimulation(Workload):
    """Seed sweeps of the revisionist simulation with Lemma 28 checked."""

    name = "sweep-simulation"

    def setup(self) -> None:
        from repro.campaign import sweep_simulation_campaign
        from repro.core import run_simulation
        from repro.protocols import KSetAgreementTask, RotatingWrites
        from repro.runtime import RandomScheduler

        self.sweep = sweep_simulation_campaign
        self.run_simulation = run_simulation
        self.scheduler = RandomScheduler
        self.seeds = inst.SWEEP_SEED_BLOCK
        # (k+1)-set agreement among the k+1 simulators is validity.
        self.points = [
            (k, x, m,
             RotatingWrites(inst.simulated_n(k, x, m), m,
                            rounds=inst.SWEEP_ROUNDS),
             inst.distinct_inputs(self.rng, k + 1),
             KSetAgreementTask(k + 1))
            for k, x, m in inst.SWEEP_POINTS
        ]
        os.makedirs(self.tmp, exist_ok=True)

    def jobs(self):
        return self.rotate([
            (f"k{p[0]}x{p[1]}m{p[2]}", functools.partial(self._sweep, *p))
            for p in self.points
        ])

    def _sweep(self, k, x, m, protocol, inputs, task):
        journal = os.path.join(self.tmp, f"sweep-{self.rounds}-{k}{x}{m}.ckpt")
        with self.tracer.span("campaign.sweep_simulation_campaign"):
            result = self.sweep(
                protocol, k=k, x=x, inputs=inputs, seeds=self.seeds,
                task=task, verify_correspondence=True, workers=WORKERS,
                checkpoint=journal,
            )
        self.tracer.count("campaign.journal_bytes",
                          os.path.getsize(journal))
        os.remove(journal)
        with self.tracer.span("check.sweep"):
            _complete(result)
            check_sweep(result.report, len(self.seeds), k + 1, inputs)
            for seed in (self.seeds[0], self.seeds[-1]):
                outcome = self.run_simulation(
                    protocol, k=k, x=x, inputs=inputs,
                    scheduler=self.scheduler(seed), aug_annotations=False,
                )
                require(len(outcome.decisions) == k + 1,
                        f"seed {seed}: {len(outcome.decisions)} of "
                        f"{k + 1} simulators decided")
                check_kset(inputs, outcome.decisions, k + 1)


def check_falsify_sweep(report, protocol, inputs, seeds: Sequence[int],
                        max_steps: int, run_simulation, scheduler,
                        tracer) -> None:
    """Every seed of a Theorem 3 falsifier sweep must violate consensus.

    The first seed is re-run and its decisions judged by the
    benchmark's own checker.
    """
    seeds = list(seeds)
    check_below_bound(protocol.n, 1, protocol.m)
    require(report.runs == len(seeds),
            f"{report.runs} runs, expected {len(seeds)}")
    require(report.safety_violations == len(seeds),
            f"{report.safety_violations} of {len(seeds)} seeds violate")
    require(report.first_violating_seed == seeds[0],
            f"first violating seed {report.first_violating_seed}, "
            f"expected {seeds[0]}")
    outcome = run_simulation(
        protocol, k=1, x=1, inputs=list(inputs),
        scheduler=scheduler(seeds[0]), max_steps=max_steps,
        aug_annotations=False,
    )
    require(bool(kset_problems(inputs, outcome.decisions, 1)),
            f"seed {seeds[0]} re-run decided {outcome.decisions}, a "
            f"valid consensus")
    check_certificates(report.certificates, True, tracer)


def check_fuzz(report, protocol, inputs, certified: bool, tracer) -> None:
    """Every kept violating schedule, and its shrink, must replay bad."""
    check_below_bound(protocol.n, 1, protocol.m)
    require(bool(report.violations), "fuzzing found no violation")
    for record in report.violations:
        check_counterexample(protocol, inputs, 1, record.schedule)
    require(report.minimized is not None, "violation was not shrunk")
    check_counterexample(protocol, inputs, 1, report.minimized.minimized)
    check_certificates(report.certificates, certified, tracer)


def check_explore_violation(report, instance, protocol, reference,
                            tracer) -> None:
    """A falsify exploration: below the bound, violating, certified."""
    check_below_bound(instance.n, instance.k, protocol.m)
    check_against_reference(report, reference)
    require(not report.safe, "exploration reported no violation")
    check_counterexample(protocol, instance.inputs, instance.k,
                         report.counterexample)
    check_certificates(report.certificates, True, tracer)


class FalsifyCampaigns(Workload):
    """Many short certificate-gated Theorem 3 falsifier campaigns."""

    name = "falsify-campaigns"
    min_jobs = 100

    def setup(self) -> None:
        from repro.campaign import (
            explore_campaign,
            fuzz_campaign,
            sweep_simulation_campaign,
        )
        from repro.core import run_simulation
        from repro.protocols import (
            KSetAgreementTask,
            RacingConsensus,
            TruncatedProtocol,
        )
        from repro.runtime import RandomScheduler

        self.explore_campaign = explore_campaign
        self.fuzz_campaign = fuzz_campaign
        self.sweep = sweep_simulation_campaign
        self.run_simulation = run_simulation
        self.scheduler = RandomScheduler
        self.consensus = KSetAgreementTask(1)
        self.explores = [
            (instance, instance.protocol(), instance.task())
            for instance in inst.FALSIFY_EXPLORE
        ]
        self.fuzz_protocol = TruncatedProtocol(RacingConsensus(3), 1)
        self.fuzz_inputs = inst.distinct_inputs(self.rng, 3)
        self.e4_protocol = TruncatedProtocol(RacingConsensus(2), 1)
        self.e4_inputs = inst.distinct_inputs(self.rng, 2)

    def references(self):
        return [(i, i.prefix_depth) for i in inst.FALSIFY_EXPLORE]

    def jobs(self):
        # Seeds follow the round, not the workload seed: the workload
        # seed relabels the inputs, so every run does the same work.
        # Two fuzz jobs make seven a round, so the median job is a fuzz
        # job rather than halfway between two kinds.
        seeds = range(self.rounds * E4_SEEDS, (self.rounds + 1) * E4_SEEDS)
        return self.rotate(
            [(entry[0].name, functools.partial(self._explore, *entry))
             for entry in self.explores]
            + [("fuzz", functools.partial(self._fuzz, 2 * self.rounds)),
               ("e4", functools.partial(self._e4, seeds)),
               ("fuzz", functools.partial(self._fuzz, 2 * self.rounds + 1))]
        )

    def _explore(self, instance, protocol, task):
        with self.tracer.span("campaign.explore_campaign"):
            result = self.explore_campaign(
                protocol, list(instance.inputs), task,
                max_configs=instance.max_configs,
                max_steps=instance.max_steps,
                prefix_depth=instance.prefix_depth, workers=WORKERS,
                verify_certificates=True,
            )
        with self.tracer.span("check.explore"):
            _complete(result)
            check_explore_violation(
                result.report, instance, protocol,
                self.refs[(instance.name, instance.prefix_depth)],
                self.tracer,
            )
        return self._record("explore", protocol, instance.inputs, task,
                            result)

    def _fuzz(self, seed):
        with self.tracer.span("campaign.fuzz_campaign"):
            result = self.fuzz_campaign(
                self.fuzz_protocol, self.fuzz_inputs, self.consensus,
                runs=FUZZ_RUNS, schedule_length=FUZZ_LENGTH, seed=seed,
                shrink=True, workers=WORKERS, verify_certificates=True,
            )
        with self.tracer.span("check.fuzz"):
            _complete(result)
            check_fuzz(result.report, self.fuzz_protocol, self.fuzz_inputs,
                       True, self.tracer)
        return self._record("fuzz", self.fuzz_protocol, self.fuzz_inputs,
                            self.consensus, result)

    def _e4(self, seeds):
        with self.tracer.span("campaign.sweep_simulation_campaign"):
            result = self.sweep(
                self.e4_protocol, k=1, x=1, inputs=self.e4_inputs,
                seeds=seeds, task=self.consensus, max_steps=E4_MAX_STEPS,
                workers=WORKERS, verify_certificates=True,
            )
        with self.tracer.span("check.sweep"):
            _complete(result)
            check_falsify_sweep(
                result.report, self.e4_protocol, self.e4_inputs, seeds,
                E4_MAX_STEPS, self.run_simulation, self.scheduler, self.tracer,
            )
        return self._record("sweep", self.e4_protocol, self.e4_inputs,
                            self.consensus, result)

    def _record(self, kind, protocol, inputs, task, result):
        """Count the job's telemetry; keep what the layer pass re-mints."""
        self.tracer.count("campaign.utilization",
                          result.telemetry.utilization)
        self.tracer.count("certify.certificates",
                          len(result.report.certificates))
        return dict(kind=kind, protocol=protocol, inputs=list(inputs),
                    task=task, report=result.report)


#: serve-jobs job sizes.  Each sized job takes about as long as the
#: fixed explore-truncated scenario (~0.2 s), so the median job sits
#: inside one cluster of job times rather than between two kinds.
SERVE_FALSIFY_SEEDS = 300
SERVE_PROTOCOL_SEEDS = 400
SERVE_FUZZ_RUNS = 1000


def _two_chunks(units: int) -> int:
    """A chunk size that cuts ``units`` into one chunk per worker."""
    return -(-units // WORKERS)


#: The service's JobSpec mix: (label, spec).  Specs without a ``seed``
#: are fixed by the service; the fuzz seed is filled in per job.  Every
#: job is cut into one chunk per worker: with the default of four per
#: worker the server's per-chunk work (journal rewrite, events, merge)
#: kept its single process busier than both pool workers together.
#: The explore scenarios have 9 (truncated) and 4 (racing) prefix units.
SERVE_MIX = (
    ("falsify", {"experiment": "falsify", "seeds": SERVE_FALSIFY_SEEDS,
                 "chunk_size": _two_chunks(SERVE_FALSIFY_SEEDS),
                 "verify_certificates": True}),
    ("explore-truncated", {"experiment": "explore",
                           "scenario": "truncated",
                           "chunk_size": _two_chunks(9),
                           "verify_certificates": True}),
    ("protocol-racing", {"experiment": "protocol", "protocol": "racing",
                         "seeds": SERVE_PROTOCOL_SEEDS,
                         "chunk_size": _two_chunks(SERVE_PROTOCOL_SEEDS)}),
    ("fuzz", {"experiment": "fuzz", "runs": SERVE_FUZZ_RUNS,
              "schedule_length": FUZZ_LENGTH,
              "chunk_size": _two_chunks(SERVE_FUZZ_RUNS)}),
    ("explore-racing", {"experiment": "explore", "scenario": "racing",
                        "chunk_size": _two_chunks(4)}),
)
TENANTS = ("tenant-a", "tenant-b")
#: The service's falsify sweep uses the engine's default step budget.
SERVE_FALSIFY_MAX_STEPS = 500_000
TERMINAL_EVENTS = ("job-done", "job-failed", "job-cancelled")


class ServeJobs(Workload):
    """Two closed-loop tenants of a ``repro serve`` subprocess."""

    name = "serve-jobs"
    min_jobs = 100

    def setup(self) -> None:
        from repro.core import run_simulation
        from repro.protocols import (
            KSetAgreementTask,
            RacingConsensus,
            TruncatedProtocol,
            run_protocol,
        )
        from repro.runtime import RandomScheduler
        from repro.serve.client import ServeClient

        self.client_class = ServeClient
        self.run_simulation = run_simulation
        self.run_protocol = run_protocol
        self.scheduler = RandomScheduler
        # The protocols the service builds for these specs
        # (repro.serve.jobspec.build_job), for the replay checks.
        self.falsify_protocol = TruncatedProtocol(RacingConsensus(2), 1)
        self.racing = RacingConsensus(3)
        self.fuzz_protocol = TruncatedProtocol(RacingConsensus(3), 1)
        self.consensus = KSetAgreementTask(1)
        self.explores = {
            scenario: (instance, instance.protocol())
            for scenario, instance in inst.SERVE_EXPLORE.items()
        }
        self.server = None
        self._start_server()

    def references(self):
        return [(i, i.prefix_depth) for i in inst.SERVE_EXPLORE.values()]

    def _start_server(self) -> None:
        # A fresh state directory per server, so no earlier server's
        # server.json is read for this one's address.
        state = tempfile.mkdtemp(prefix="serve-", dir=self.tmp)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.log = open(os.path.join(state, "serve.log"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state", state,
             "--port", "0", "--workers", str(WORKERS),
             "--executor", "process"],
            cwd=self.root, env=env, stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        address = os.path.join(state, "server.json")
        deadline = time.monotonic() + 60
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.server.returncode}")
            try:
                with open(address, "r", encoding="utf-8") as handle:
                    self.port = json.load(handle)["port"]
                break
            except (OSError, ValueError, KeyError):
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not start")
                time.sleep(0.002)
        health = self.client_class("127.0.0.1", self.port).health()
        require(health.get("ok") and health.get("workers") == WORKERS,
                f"unexpected /healthz {health}")

    def close(self) -> None:
        if getattr(self, "server", None) is None:
            return
        workers = descendants(self.server.pid)
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=20)
        for pid in wait_gone(workers, 10):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # ended after the last look
        wait_gone(workers, 10)
        self.server = None
        self.log.close()

    def jobs(self):
        raise NotImplementedError("serve-jobs runs tenants in threads")

    def distinct_round(self) -> List[Outcome]:
        """Both tenants send the mix once."""
        return self.run_round()

    def run_round(self) -> List[Outcome]:
        """Both tenants run the mix once, each from its own thread."""
        fuzz_seed = self.seed * 10_000 + self.rounds
        results: Dict[str, List[Outcome]] = {}
        threads = [
            threading.Thread(
                target=self._tenant, daemon=True,
                args=(tenant, position * 2, fuzz_seed + position, results),
            )
            for position, tenant in enumerate(TENANTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        self.rounds += 1
        return [outcome for tenant in TENANTS for outcome in results[tenant]]

    def _tenant(self, tenant, offset, fuzz_seed, results) -> None:
        client = self.client_class("127.0.0.1", self.port, api_key=tenant,
                                   timeout=120)
        mix = SERVE_MIX[offset:] + SERVE_MIX[:offset]
        results[tenant] = [
            self.attempt(label, functools.partial(
                self._job, client, tenant, label, spec, fuzz_seed))
            for label, spec in mix
        ]

    def _get(self, path: str, tenant: str) -> bytes:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120)
        try:
            connection.request("GET", path, headers={"X-Api-Key": tenant})
            response = connection.getresponse()
            body = response.read()
            require(response.status == 200,
                    f"GET {path}: HTTP {response.status}")
            return body
        finally:
            connection.close()

    def _job(self, client, tenant, label, spec, fuzz_seed):
        spec = dict(spec)
        if spec["experiment"] == "fuzz":
            spec["seed"] = fuzz_seed
        submitted = time.time()
        with self.tracer.span("serve.submit"):
            job_id = client.submit(spec)["id"]
        times = {}
        with self.tracer.span("serve.events"):
            for event in client.events(job_id, follow=True):
                times[event["event"]] = event["time"]
                if event["event"] in TERMINAL_EVENTS:
                    break
        require("job-done" in times,
                f"job {job_id} ended without job-done: {sorted(times)}")
        with self.tracer.span("serve.report"):
            body = self._get(f"/jobs/{job_id}/report", tenant)
        payload = json.loads(body)
        report = pickle.loads(
            base64.b64decode(payload["report_pickle_base64"])
        )
        self.tracer.count("serve.queue_s",
                          times["job-started"] - submitted)
        self.tracer.count("serve.run_s",
                          times["job-done"] - times["job-started"])
        self.tracer.count("serve.report_bytes", len(body))
        with self.tracer.span("check.serve"):
            self._check(label, spec, report)

    def _check(self, label, spec, report) -> None:
        if label == "falsify":
            check_falsify_sweep(
                report, self.falsify_protocol, [0, 1], range(spec["seeds"]),
                SERVE_FALSIFY_MAX_STEPS, self.run_simulation, self.scheduler,
                self.tracer,
            )
        elif label == "protocol-racing":
            inputs = [0, 1, 1]
            check_sweep(report, spec["seeds"], 3, inputs)
            for seed in (0, spec["seeds"] - 1):
                _system, result = self.run_protocol(
                    self.racing, inputs, self.scheduler(seed),
                    max_steps=100_000,
                )
                require(len(result.outputs) == 3,
                        f"seed {seed}: not every process decided")
                check_kset(inputs, result.outputs, 1)
        elif label == "fuzz":
            check_fuzz(report, self.fuzz_protocol, [0, 1, 2], False,
                       self.tracer)
        else:
            scenario = spec["scenario"]
            instance, protocol = self.explores[scenario]
            reference = self.refs[(instance.name, instance.prefix_depth)]
            if scenario == "truncated":
                check_explore_violation(report, instance, protocol,
                                        reference, self.tracer)
            else:
                check_against_reference(report, reference)
                check_certificates(report.certificates, False, self.tracer)


WORKLOADS = {
    workload.name: workload
    for workload in (ExploreSharded, SweepSimulation, FalsifyCampaigns,
                     ServeJobs)
}
