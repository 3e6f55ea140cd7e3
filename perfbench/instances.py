"""The protocol instances the workloads send to the program.

Explore instances keep fixed inputs, so the reference explorer's result
for each is computed once per checkout (:mod:`perfbench.reference`).
The workload seed relabels the inputs of the other instances and picks
the rotation phase of each round; the protocols compare inputs only by
order, so every seed gives the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from perfbench.checks import theorem3_bound


@dataclass(frozen=True)
class ExploreInstance:
    """One bounded-exhaustive exploration, as ``explore_campaign`` takes it.

    ``family`` names the protocol constructor; ``m`` is the register
    count of a truncated protocol or the component count of the
    anonymous sweep.
    """

    name: str
    family: str
    n: int
    k: int
    inputs: Tuple[int, ...]
    max_steps: int
    m: Optional[int] = None
    max_configs: int = 10_000_000
    prefix_depth: int = 2

    def protocol(self):
        """Build the protocol object (imports the program lazily)."""
        from repro.protocols import (
            AnonymousSweepConsensus,
            GroupedKSet,
            RacingConsensus,
            TruncatedProtocol,
        )

        if self.family == "anonymous":
            return AnonymousSweepConsensus(self.n, m=self.m)
        if self.family == "racing":
            return RacingConsensus(self.n)
        if self.family == "racing-truncated":
            return TruncatedProtocol(RacingConsensus(self.n), self.m)
        if self.family == "grouped-truncated":
            return TruncatedProtocol(GroupedKSet(self.n, self.k), self.m)
        raise ValueError(f"unknown family {self.family!r}")

    def task(self):
        """k-set agreement (consensus for k=1)."""
        from repro.protocols import KSetAgreementTask

        return KSetAgreementTask(self.k)


#: explore-sharded: the unreduced E16 instance and racing consensus.
EXPLORE_SAFE = (
    ExploreInstance("e16-anonymous-5", "anonymous", 5, 1, (0, 1, 1, 1, 1),
                    max_steps=12, m=2),
    ExploreInstance("racing-3", "racing", 3, 1, (0, 1, 2), max_steps=25),
)
#: One explore-sharded round.  E16 twice puts the median job inside the
#: E16 mode instead of halfway between the two instances' times.
EXPLORE_ROUND = ("e16-anonymous-5", "racing-3", "e16-anonymous-5")


def _grouped(n: int, k: int) -> ExploreInstance:
    """Truncated grouped k-set agreement one register below the bound."""
    return ExploreInstance(
        f"grouped-{n}-{k}", "grouped-truncated", n, k, tuple(range(n)),
        max_steps=30, m=theorem3_bound(n, k) - 1, max_configs=200_000,
    )


#: falsify-campaigns: Theorem 3 grid points where the explorer finds
#: the violation.  (7, 3) with m=2 reads safe at max_steps=30 (the
#: failure Theorem 3 allows there is one of liveness), so it is left out.
FALSIFY_GRID = ((3, 1), (4, 1), (5, 2), (6, 2))
FALSIFY_EXPLORE = tuple(_grouped(n, k) for n, k in FALSIFY_GRID)

#: The two explore scenarios of the service's JobSpec mix, as the
#: service builds them (``repro.serve.jobspec.build_job``).
SERVE_EXPLORE = {
    "truncated": ExploreInstance(
        "serve-truncated", "racing-truncated", 3, 1, (0, 1, 2),
        max_steps=30, m=1, max_configs=200_000,
    ),
    "racing": ExploreInstance(
        "serve-racing", "racing", 2, 1, (0, 1), max_steps=30,
        max_configs=200_000,
    ),
}

#: sweep-simulation: (k, x, m) points, each run with n at the bound.
SWEEP_POINTS = ((1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2))
#: Scheduler seeds of every sweep job; the workload seed relabels inputs.
SWEEP_SEED_BLOCK = range(1000, 1200)
SWEEP_ROUNDS = 6


def simulated_n(k: int, x: int, m: int) -> int:
    """Processes an m-register protocol may have for the simulation."""
    return (k + 1 - x) * m + x


def distinct_inputs(rng: random.Random, count: int) -> Sequence[int]:
    """``count`` increasing input values drawn from ``rng``.

    The protocols compare inputs only by order, so any increasing
    relabelling gives the same executions with other values.
    """
    return sorted(rng.sample(range(1, 1_000_000), count))


#: Every explore instance by name, for the reference cache.
ALL_EXPLORE = {
    instance.name: instance
    for instance in EXPLORE_SAFE + FALSIFY_EXPLORE
    + tuple(SERVE_EXPLORE.values())
}
