"""Perf gate: in-band monitoring must stay cheap.

The overlay adds per-agent scrape ticks, tree-delayed delivery events,
window rollups, and alert evaluation on top of a chaos campaign whose
cost is dominated by flow re-solves.  This bench runs the same random
fault day with and without a ``MonitoringOverlay`` at an operational
cadence and asserts the monitored run stays within 10% wall-clock —
min-of-N, interleaved, so scheduler noise hits both sides equally.
Results land in ``BENCH_overlay.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.spider import SpiderSystem
from repro.faults import FaultCampaign, FaultPlan
from repro.obs.overlay import MonitoringOverlay, OverlayConfig
from repro.resilience import RemediationPolicy
from repro.units import DAY, HOUR, MINUTE
from tests.conftest import mini_spec

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_overlay.json"

_REPEATS = 5
_OVERHEAD_LIMIT = 0.10
#: a dense fault day — the baseline must be dominated by campaign work
#: (flow re-solves, playbooks), the regime the gate prices monitoring in
_N_FAULTS = 96
_SEED = 2014
#: the DDN-tool's operational cadence (§IV-A "regular rates"), not the
#: study's aggressive grid — the gate prices monitoring as deployed
_SCRAPE_INTERVAL = 5.0 * MINUTE
_ROLLUP_INTERVAL = 10.0 * MINUTE


def _run(monitored: bool) -> float:
    # Campaigns mutate the system, so the build happens outside the
    # timed region — the bench measures campaign cost, not construction.
    # Both arms remediate; the delta is pure overlay machinery (scrape
    # ticks, tree deliveries, rollups, alerting, observed detection).
    system = SpiderSystem(mini_spec(), seed=_SEED)
    plan = FaultPlan.random(system, duration=12 * HOUR, n_faults=_N_FAULTS,
                            seed=_SEED)
    monitor = None
    if monitored:
        config = OverlayConfig(scrape_interval=_SCRAPE_INTERVAL,
                               rollup_interval=_ROLLUP_INTERVAL, seed=_SEED)
        monitor = MonitoringOverlay(system, config)
    campaign = FaultCampaign(system, plan, duration=DAY,
                             remediation=RemediationPolicy(seed=_SEED),
                             monitor=monitor)
    t0 = time.perf_counter()
    campaign.run()
    return time.perf_counter() - t0


def test_overlay_overhead_under_ten_percent(report):
    # Warm both paths (imports, allocator, caches) before measuring.
    _run(False)
    _run(True)

    off_times, on_times = [], []
    for _ in range(_REPEATS):
        off_times.append(_run(False))
        on_times.append(_run(True))

    best_off, best_on = min(off_times), min(on_times)
    overhead = best_on / best_off - 1.0

    payload = {
        "benchmark": "overlay_overhead",
        "workload": (f"remediated FaultCampaign, {_N_FAULTS} random faults "
                     f"over one day on mini, scrape every "
                     f"{_SCRAPE_INTERVAL:.0f} s"),
        "repeats": _REPEATS,
        "best_baseline_s": best_off,
        "best_monitored_s": best_on,
        "overhead_fraction": overhead,
        "limit_fraction": _OVERHEAD_LIMIT,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    report("BENCH_overlay", "\n".join([
        f"baseline campaign  (best of {_REPEATS}): {best_off * 1e3:.2f} ms",
        f"monitored campaign (best of {_REPEATS}): {best_on * 1e3:.2f} ms",
        f"overhead: {overhead:+.1%} (limit {_OVERHEAD_LIMIT:.0%})",
    ]))

    assert overhead < _OVERHEAD_LIMIT, (
        f"overlay overhead {overhead:.1%} exceeds "
        f"{_OVERHEAD_LIMIT:.0%} ({best_on * 1e3:.2f} ms monitored vs "
        f"{best_off * 1e3:.2f} ms baseline)"
    )
