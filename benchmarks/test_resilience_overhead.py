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

import json
import pathlib
import time

from repro.core.spider import SpiderSystem
from repro.faults import FaultCampaign, FaultPlan
from repro.resilience import RemediationPolicy
from repro.units import DAY, HOUR
from tests.conftest import mini_spec

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_resilience.json"

_REPEATS = 5
_OVERHEAD_LIMIT = 0.10
_N_FAULTS = 12
_SEED = 2014


def _run(policy: RemediationPolicy | None) -> float:
    # Campaigns mutate the system, so the build happens outside the
    # timed region — the bench measures campaign cost, not construction.
    # The plan window is half the horizon so every repair *and* rebuild
    # settles in both arms: the two sides then perform the same number of
    # flow re-solves and the delta is pure remediation machinery.
    system = SpiderSystem(mini_spec(), seed=_SEED)
    plan = FaultPlan.random(system, duration=12 * HOUR, n_faults=_N_FAULTS,
                            seed=_SEED)
    campaign = FaultCampaign(system, plan, duration=DAY, remediation=policy)
    t0 = time.perf_counter()
    campaign.run()
    return time.perf_counter() - t0


def test_resilience_overhead_under_ten_percent(report):
    # Warm both paths (imports, allocator, caches) before measuring.
    _run(None)
    _run(RemediationPolicy(seed=_SEED))

    off_times, on_times = [], []
    for _ in range(_REPEATS):
        off_times.append(_run(None))
        on_times.append(_run(RemediationPolicy(seed=_SEED)))

    best_off, best_on = min(off_times), min(on_times)
    overhead = best_on / best_off - 1.0

    payload = {
        "benchmark": "resilience_overhead",
        "workload": (f"FaultCampaign, {_N_FAULTS} random faults over "
                     f"one day on mini"),
        "repeats": _REPEATS,
        "best_baseline_s": best_off,
        "best_remediated_s": best_on,
        "overhead_fraction": overhead,
        "limit_fraction": _OVERHEAD_LIMIT,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    report("BENCH_resilience", "\n".join([
        f"baseline campaign   (best of {_REPEATS}): {best_off * 1e3:.2f} ms",
        f"remediated campaign (best of {_REPEATS}): {best_on * 1e3:.2f} ms",
        f"overhead: {overhead:+.1%} (limit {_OVERHEAD_LIMIT:.0%})",
    ]))

    assert overhead < _OVERHEAD_LIMIT, (
        f"remediation overhead {overhead:.1%} exceeds "
        f"{_OVERHEAD_LIMIT:.0%} ({best_on * 1e3:.2f} ms remediated vs "
        f"{best_off * 1e3:.2f} ms baseline)"
    )
