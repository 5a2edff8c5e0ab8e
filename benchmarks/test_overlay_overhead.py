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

from repro.core.spider import SpiderSystem
from repro.faults import FaultCampaign, FaultPlan
from repro.obs.overlay import MonitoringOverlay, OverlayConfig
from repro.resilience import RemediationPolicy
from repro.units import DAY, HOUR, MINUTE
from tests.conftest import mini_spec

from perfgate import timed

_REPEATS = 5
#: a dense fault day — the baseline must be dominated by campaign work
#: (flow re-solves, playbooks), the regime the gate prices monitoring in
_N_FAULTS = 96
_SEED = 2014
#: the DDN-tool's operational cadence (§IV-A "regular rates"), not the
#: study's aggressive grid — the gate prices monitoring as deployed
_SCRAPE_INTERVAL = 5.0 * MINUTE
_ROLLUP_INTERVAL = 10.0 * MINUTE


def _run(monitored: bool):
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
    return timed(campaign.run)


def test_overlay_overhead_under_ten_percent(overhead_gate):
    overhead_gate(
        "overlay",
        (f"remediated FaultCampaign, {_N_FAULTS} random faults over one "
         f"day on mini, scrape every {_SCRAPE_INTERVAL:.0f} s"),
        lambda: _run(False), lambda: _run(True), trials=_REPEATS)
