"""Perf gate: closing the remediation loop must stay cheap.

The closed loop adds detection draws, playbook step events, and the
nested §IV-D recovery simulations on top of a chaos campaign whose cost
is dominated by flow re-solves.  This bench runs the same random fault
day with and without a ``RemediationPolicy`` and asserts the remediated
run stays within 10% wall-clock — min-of-N, interleaved, so scheduler
noise hits both sides equally.  Results land in ``BENCH_resilience.json``
at the repo root.
"""

from __future__ import annotations

from repro.core.spider import SpiderSystem
from repro.faults import FaultCampaign, FaultPlan
from repro.resilience import RemediationPolicy
from repro.units import DAY, HOUR
from tests.conftest import mini_spec

from perfgate import timed

_REPEATS = 5
_N_FAULTS = 12
_SEED = 2014


def _run(remediated: bool):
    # Campaigns mutate the system, so the build happens outside the
    # timed region — the bench measures campaign cost, not construction.
    # The plan window is half the horizon so every repair *and* rebuild
    # settles in both arms: the two sides then perform the same number of
    # flow re-solves and the delta is pure remediation machinery.
    system = SpiderSystem(mini_spec(), seed=_SEED)
    plan = FaultPlan.random(system, duration=12 * HOUR, n_faults=_N_FAULTS,
                            seed=_SEED)
    policy = RemediationPolicy(seed=_SEED) if remediated else None
    campaign = FaultCampaign(system, plan, duration=DAY, remediation=policy)
    return timed(campaign.run)


def test_resilience_overhead_under_ten_percent(overhead_gate):
    overhead_gate(
        "resilience",
        f"FaultCampaign, {_N_FAULTS} random faults over one day on mini",
        lambda: _run(False), lambda: _run(True), trials=_REPEATS)
