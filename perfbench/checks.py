"""Output checks made apart from the program under test.

Every job's result is checked here before the next job is sent.  The
checks use none of the program's own judges (``repro.core.bounds``,
``KSetAgreementTask``, the explorer's replay): the k-set checker, the
Theorem 3 bound and the schedule replay below are written out again,
the explorer's counts come from the frozen reference explorer
(``tests/analysis/reference_explore.py``), and certificates go through
the program's independent verifier in deep mode.  A check that fails
raises :class:`CheckFailed`; the job then counts as failed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

SCAN, UPDATE, DECIDE = "scan", "update", "decide"


class CheckFailed(Exception):
    """A job's output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def theorem3_bound(n: int, k: int, x: int = 1) -> int:
    """Registers x-obstruction-free k-set agreement among n needs.

    Ellen, Gelashvili and Zhu (PODC 2018), Theorem 3:
    floor((n - x) / (k + 1 - x)) + 1.
    """
    if not 1 <= x <= k < n:
        raise ValueError(f"need 1 <= x <= k < n, got n={n} k={k} x={x}")
    return (n - x) // (k + 1 - x) + 1


def check_below_bound(n: int, k: int, m: int, x: int = 1) -> None:
    """A falsify instance must really use fewer registers than the bound."""
    bound = theorem3_bound(n, k, x)
    require(
        m < bound,
        f"instance n={n} k={k} x={x} has m={m} registers, not below "
        f"the Theorem 3 bound {bound}",
    )


def kset_problems(
    inputs: Sequence[Any], decisions: Mapping[int, Any], k: int
) -> List[str]:
    """Why ``decisions`` break k-set agreement on ``inputs`` (empty: ok).

    At most ``k`` distinct values may be decided, each one an input.
    """
    legal = set(inputs)
    problems = [
        f"process {pid} decided {value!r}, which is no input"
        for pid, value in sorted(decisions.items())
        if value not in legal
    ]
    distinct = set(decisions.values())
    if len(distinct) > k:
        problems.append(
            f"{len(distinct)} distinct values decided, more than k={k}"
        )
    return problems


def check_kset(
    inputs: Sequence[Any], decisions: Mapping[int, Any], k: int
) -> None:
    """Decisions of a run the program reports as correct must be."""
    problems = kset_problems(inputs, decisions, k)
    require(not problems, "; ".join(problems))


def replay(protocol, inputs: Sequence[Any], schedule: Sequence[int]
           ) -> Dict[int, Any]:
    """Drive ``protocol`` through ``schedule`` by ``poised``/``advance``.

    A step of a decided process is a no-op, as in the program's own
    replay.  Returns ``{process: decided value}``.
    """
    states = [protocol.initial_state(i, v) for i, v in enumerate(inputs)]
    memory: List[Any] = [None] * protocol.m
    for index in schedule:
        require(
            isinstance(index, int) and 0 <= index < len(states),
            f"schedule names process {index!r} of {len(states)}",
        )
        kind, payload = protocol.poised(states[index])
        if kind == DECIDE:
            continue
        if kind == SCAN:
            states[index] = protocol.advance(states[index], tuple(memory))
        elif kind == UPDATE:
            component, value = payload
            memory[component] = value
            states[index] = protocol.advance(states[index], None)
        else:
            raise CheckFailed(f"replay does not model {kind!r} steps")
    decisions = {}
    for index, state in enumerate(states):
        kind, payload = protocol.poised(state)
        if kind == DECIDE and payload is not None:
            decisions[index] = payload
    return decisions


def check_counterexample(
    protocol, inputs: Sequence[Any], k: int, schedule: Sequence[int]
) -> None:
    """A reported violation must replay to decisions the checker rejects."""
    require(schedule is not None, "violation reported without a schedule")
    decisions = replay(protocol, inputs, schedule)
    require(
        bool(kset_problems(inputs, decisions, k)),
        f"schedule {list(schedule)} replays to decisions {decisions} "
        f"that are a valid {k}-set agreement",
    )


def check_certificates(certificates: Sequence[Any], expected: bool,
                       tracer=None) -> None:
    """Deep-verify every certificate; ``expected`` says some must exist.

    With a ``tracer``, each verification is recorded as a span.
    """
    from repro.certify.verify import verify

    require(
        bool(certificates) == expected,
        f"expected {'some' if expected else 'no'} certificates, got "
        f"{len(certificates)}",
    )
    for certificate in certificates:
        if tracer is None:
            verdict = verify(certificate, deep=True)
        else:
            with tracer.span("certify.verify"):
                verdict = verify(certificate, deep=True)
        require(
            verdict.accepted,
            f"certificate rejected: {verdict.reason} {verdict.detail}",
        )


#: ExplorationReport fields compared with the reference explorer.
REFERENCE_FIELDS = (
    "safe", "violations", "configurations", "truncated", "fully_decided",
    "counterexample",
)


def reference_summary(report) -> Dict[str, Any]:
    """The compared fields of an exploration report, as plain data."""
    return {
        "safe": bool(report.safe),
        "violations": list(report.violations),
        "configurations": int(report.configurations),
        "truncated": bool(report.truncated),
        "fully_decided": int(report.fully_decided),
        "counterexample": (
            None if report.counterexample is None
            else [int(i) for i in report.counterexample]
        ),
    }


def check_against_reference(report, reference: Mapping[str, Any]) -> None:
    """The program's report must equal the reference explorer's.

    Verdict, violation set, counterexample and configuration count all
    come from ``tests/analysis/reference_explore.py`` run on the same
    instance at the same prefix depth.
    """
    actual = reference_summary(report)
    for name in REFERENCE_FIELDS:
        require(
            actual[name] == reference[name],
            f"{name}: program reports {actual[name]!r}, reference "
            f"explorer {reference[name]!r}",
        )


def check_sweep(report, runs: int, simulators: int,
                inputs: Sequence[Any]) -> None:
    """A clean seed sweep: every run decided, nothing failed."""
    require(report.runs == runs, f"{report.runs} runs, expected {runs}")
    require(
        report.all_decided == runs,
        f"{report.all_decided} of {runs} runs decided",
    )
    require(report.safety_violations == 0,
            f"{report.safety_violations} safety violations")
    require(report.correspondence_failures == 0,
            f"{report.correspondence_failures} correspondence failures")
    histogram = report.decisions_histogram
    require(
        set(histogram) <= set(inputs),
        f"decided values {sorted(histogram)} are not all inputs "
        f"{sorted(inputs)}",
    )
    require(
        sum(histogram.values()) == runs * simulators,
        f"{sum(histogram.values())} decisions in {runs} runs of "
        f"{simulators}",
    )
