"""The benchmark's output checks fail closed on forged outputs.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
Each test feeds a check one genuine output of the program, which must
pass, and a forged variant of it, which must raise ``CheckFailed``.
"""

import dataclasses

import pytest

from perfbench import instances as inst
from perfbench.checks import (
    CheckFailed,
    check_against_reference,
    check_below_bound,
    check_certificates,
    check_counterexample,
    check_kset,
    check_sweep,
    reference_summary,
    theorem3_bound,
)


def _explore(instance, certificates=False):
    from repro.analysis import explore_protocol

    return explore_protocol(
        instance.protocol(), list(instance.inputs), instance.task(),
        max_configs=instance.max_configs, max_steps=instance.max_steps,
        prefix_depth=instance.prefix_depth, certificates=certificates,
    )


def test_kset_checker_rejects_two_value_consensus():
    check_kset([3, 7], {0: 3, 1: 3}, 1)
    with pytest.raises(CheckFailed, match="2 distinct values"):
        check_kset([3, 7], {0: 3, 1: 7}, 1)
    with pytest.raises(CheckFailed, match="no input"):
        check_kset([3, 7], {0: 5}, 2)


@pytest.mark.parametrize("n,k,x,bound", [
    (3, 1, 1, 3), (4, 1, 1, 4), (5, 2, 1, 3), (6, 2, 1, 3), (7, 3, 1, 3),
    (5, 2, 2, 4),
])
def test_bound_matches_theorem3(n, k, x, bound):
    assert theorem3_bound(n, k, x) == bound


@pytest.mark.parametrize("n,k", inst.FALSIFY_GRID)
def test_bound_rejects_m_at_or_above_it(n, k):
    bound = theorem3_bound(n, k)
    check_below_bound(n, k, bound - 1)
    for m in (bound, bound + 1):
        with pytest.raises(CheckFailed, match="not below"):
            check_below_bound(n, k, m)


def test_every_falsify_instance_sits_below_the_bound():
    for instance in inst.FALSIFY_EXPLORE:
        check_below_bound(instance.n, instance.k, instance.protocol().m)


def test_replay_rejects_tampered_counterexample():
    instance = inst.FALSIFY_EXPLORE[0]
    protocol = instance.protocol()
    report = _explore(instance)
    schedule = report.counterexample
    check_counterexample(protocol, instance.inputs, instance.k, schedule)
    solo = [0] * len(schedule)  # process 0 alone decides its own input
    for forged in (solo, [], list(schedule) + [instance.n]):
        with pytest.raises(CheckFailed):
            check_counterexample(protocol, instance.inputs, instance.k,
                                 forged)


def test_reference_check_rejects_altered_count():
    from tests.analysis.reference_explore import reference_explore_protocol

    instance = inst.SERVE_EXPLORE["racing"]
    report = _explore(instance)
    reference = reference_summary(reference_explore_protocol(
        instance.protocol(), list(instance.inputs), instance.task(),
        max_configs=instance.max_configs, max_steps=instance.max_steps,
        prefix_depth=instance.prefix_depth,
    ))
    check_against_reference(report, reference)
    for delta in (-1, 1):
        altered = dict(reference,
                       configurations=reference["configurations"] + delta)
        with pytest.raises(CheckFailed, match="configurations"):
            check_against_reference(report, altered)
    with pytest.raises(CheckFailed, match="safe"):
        check_against_reference(report, dict(reference, safe=False))


def test_deep_verification_rejects_forged_certificate():
    from repro.certify.certificates import make_certificate

    instance = inst.FALSIFY_EXPLORE[0]
    certificates = _explore(instance, certificates=True).certificates
    check_certificates(certificates, True)
    genuine = certificates[0]
    payload = dict(genuine.payload, schedule=[0] * 16)
    forged = make_certificate(genuine.kind, payload)
    with pytest.raises(CheckFailed, match="rejected"):
        check_certificates([forged], True)
    with pytest.raises(CheckFailed, match="expected some"):
        check_certificates([], True)


def test_sweep_check_rejects_invented_value():
    from repro.core.sweep import SweepReport

    report = SweepReport(runs=2, completed=2, all_decided=2,
                         decisions_histogram={4: 3, 9: 1})
    check_sweep(report, 2, 2, [4, 9])
    forged = dataclasses.replace(report, decisions_histogram={4: 3, 5: 1})
    with pytest.raises(CheckFailed, match="not all inputs"):
        check_sweep(forged, 2, 2, [4, 9])
