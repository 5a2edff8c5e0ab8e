"""The overlay runtime: scrapers, tree, collector, and alerts on one engine.

:class:`MonitoringOverlay` assembles the full in-band pipeline for a
built Spider system and attaches it to a DES engine:

* one periodic process drives the shared scrape grid
  (``k * scrape_interval``): each tick sweeps every agent in name order
  — the seeded loss draw (one uniform per batch, from the
  ``obs.overlay.loss`` substream) therefore lands in a fixed order;
* each surviving batch reaches the root ``depth(agent) * hop_latency``
  after its sweep; batches sharing a depth share one delivery event
  (their arrival time is identical, and the collector sorts before
  folding), keeping engine cost per tick O(depths) rather than
  O(agents);
* a periodic collector process closes rollup windows and feeds the
  :class:`~repro.obs.overlay.alerts.AlertEngine` the overlay view.

The run's outputs are the collector's rollups and view, the alert
engine's alerts and, with telemetry enabled, the mirrored
``overlay.view.*`` gauges.

The loss draw happens on every tick and the delivery event is scheduled
even for an empty payload, so the overlay's event and RNG schedule is
bit-identical with telemetry enabled or disabled — only the mirrored
payload (which never enters rollups) differs.

:meth:`MonitoringOverlay.detector` hands the resilience pipeline an
:class:`~repro.obs.overlay.observed.ObservedDetector` wired to this
overlay's tree and cadence; :meth:`MonitoringOverlay.outcome` freezes the
run into a plain-value :class:`OverlayOutcome` for reports and same-seed
equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.instruments import get_telemetry
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

from repro.obs.overlay.alerts import Alert, AlertEngine, default_rules
from repro.obs.overlay.collector import CollectorSink, Rollup
from repro.obs.overlay.config import OverlayConfig
from repro.obs.overlay.observed import ObservedDetector, resolver_for_system
from repro.obs.overlay.scraper import Scraper, probes_for_system
from repro.obs.overlay.tree import AggregationTree

__all__ = ["MonitoringOverlay", "OverlayOutcome"]


@dataclass(frozen=True)
class OverlayOutcome:
    """The frozen result of one overlay run — plain values throughout,
    so outcomes from identically seeded runs compare equal with ``==``."""

    n_agents: int
    tree_depth: int
    n_relays: int
    n_batches: int
    n_lost: int
    n_samples: int
    n_stale: int
    n_windows: int
    rollups: tuple[Rollup, ...]
    alerts: tuple[Alert, ...]

    def rows(self) -> list[tuple[str, str]]:
        """Key/value summary rows for the CLI report."""
        return [
            ("monitoring agents", str(self.n_agents)),
            ("tree depth (max hops)", str(self.tree_depth)),
            ("relay nodes inserted", str(self.n_relays)),
            ("batches sent", str(self.n_batches)),
            ("batches lost", str(self.n_lost)),
            ("samples rolled up", str(self.n_samples)),
            ("stale samples", str(self.n_stale)),
            ("rollup windows closed", str(self.n_windows)),
            ("alerts fired", str(len(self.alerts))),
        ]

    def alert_rows(self) -> list[tuple[str, str, str, str]]:
        """Alert table rows: time, rule, source, value."""
        return [
            (f"{a.time:,.0f} s", a.rule, a.source, f"{a.value:.3g}")
            for a in self.alerts
        ]


class MonitoringOverlay:
    """The assembled in-band monitoring pipeline for one system.

    Args:
        system: a built :class:`~repro.core.spider.SpiderSystem`.
        config: the overlay knobs (default :class:`OverlayConfig`).
        extra_probes: optional additional probes or probe groups for the
            ``aux`` agent (e.g. the per-link ``mon.link_util`` group from
            :func:`~repro.obs.overlay.scraper.routing_probes`).
    """

    def __init__(
        self,
        system,
        config: OverlayConfig | None = None,
        *,
        extra_probes=None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else OverlayConfig()
        self.scrapers: list[Scraper] = probes_for_system(
            system, extra_probes=extra_probes)
        self.tree = AggregationTree(
            [(s.name, s.leaf) for s in self.scrapers],
            n_leaves=system.spec.fabric.n_leaf_switches,
            n_cores=system.spec.fabric.n_core_switches,
            fan_in=self.config.fan_in)
        counter_metrics = frozenset(
            p.metric for s in self.scrapers for p in s.probes if p.counter)
        # Stale means at least one sweep missed.
        self.collector = CollectorSink(
            rollup_interval=self.config.rollup_interval,
            staleness_limit=2.0 * self.config.scrape_interval,
            counter_metrics=counter_metrics)
        thresholds, burn_rates = default_rules()
        self.alert_engine = AlertEngine(thresholds, burn_rates)
        streams = RngStreams(self.config.seed).spawn("obs.overlay")
        self._loss_rng = streams.get("loss")
        self._detect_rng = streams.get("detect")
        self._host_to_agent = self._build_host_map(system)
        self._depths = {s.name: self.tree.depth_of(s.name)
                        for s in self.scrapers}
        self.n_batches = 0
        self.n_lost = 0
        self._engine: Engine | None = None

    @staticmethod
    def _build_host_map(system) -> dict[str, str]:
        """Host → agent name: OSSes to their SSU agent, routers to their
        module agent; agents cover themselves.  Everything else resolves
        by the detector's prefix fallback."""
        mapping: dict[str, str] = {}
        for oss in system.osses:
            mapping[oss.name] = system.ssus[oss.ssu_index].name
        for router in system.routers:
            mapping[router.name] = router.name.split(".")[0]
        for ssu in system.ssus:
            mapping[ssu.name] = ssu.name
        for fs_name in sorted(system.filesystems):
            mds = system.filesystems[fs_name].mds
            mapping[mds.name] = mds.name
        return mapping

    # -- engine wiring --------------------------------------------------------

    def attach(self, engine: Engine) -> "MonitoringOverlay":
        """Schedule the overlay's periodic processes on ``engine``: the
        shared scrape-grid loop (every agent sweeps each tick, in name
        order) plus the collector's window-close loop.  Returns ``self``
        for chaining."""
        if self._engine is not None:
            raise RuntimeError("overlay already attached to an engine")
        self._engine = engine
        engine.every(self.config.scrape_interval, self._sweep_all,
                     name="overlay:scrape")
        engine.every(self.config.rollup_interval, self._close_window,
                     name="overlay:collect")
        return self

    def _sweep_all(self) -> None:
        """One grid tick: every agent sweeps (name order — the loss-draw
        order is fixed), then one delivery event fires per distinct tree
        depth among the survivors, one traversal later.

        Batches sharing a depth share a delivery event (their root
        arrival time is identical anyway); the collector sorts before
        folding, so the grouping is observationally neutral — it just
        keeps engine event cost per tick O(depths), not O(agents)."""
        now = self._engine.now
        telemetry = get_telemetry()
        enabled = telemetry.enabled
        loss_p = self.config.loss_probability
        draw = self._loss_rng.random
        by_lag: dict[float, list] = {}
        for scraper in self.scrapers:  # already sorted by name
            batch = scraper.sweep(now)
            self.n_batches += 1
            lost = float(draw()) < loss_p
            if enabled:
                telemetry.counter("overlay.batches", scraper.name).add(1.0)
                if lost:
                    telemetry.counter("overlay.batches_lost",
                                      scraper.name).add(1.0)
            if lost:
                self.n_lost += 1
                continue
            lag = self._depths[scraper.name] * self.config.hop_latency
            # The key exists even for an empty payload (the flowstats
            # agent with the registry disabled), so the delivery-event
            # schedule is identical with telemetry on or off.
            by_lag.setdefault(lag, []).append(batch)
        for lag in sorted(by_lag):
            payload = tuple(by_lag[lag])
            self._engine.call_after(
                lag,
                lambda p=payload: self.collector.deliver(
                    p, self._engine.now))

    def _close_window(self) -> None:
        now = self._engine.now
        rollups = self.collector.close_window(now)
        self.alert_engine.observe_window(now, self.collector.view(), rollups)

    # -- consumers ------------------------------------------------------------

    def detector(self, model) -> ObservedDetector:
        """An overlay-backed detector for the resilience pipeline —
        ``model`` is the policy's
        :class:`~repro.resilience.detector.DetectionModel` (its debounce
        carries over; cadence and loss come from this overlay)."""
        return ObservedDetector(
            model,
            config=self.config,
            tree=self.tree,
            host_to_agent=self._host_to_agent,
            resolve_host=resolver_for_system(self.system),
            rng=self._detect_rng)

    def outcome(self) -> OverlayOutcome:
        """Freeze the run so far into a plain-value outcome."""
        collector = self.collector
        return OverlayOutcome(
            n_agents=len(self.scrapers),
            tree_depth=self.tree.max_depth,
            n_relays=self.tree.n_relays,
            n_batches=self.n_batches,
            n_lost=self.n_lost,
            n_samples=collector.n_samples,
            n_stale=collector.n_stale,
            n_windows=collector.n_windows,
            rollups=tuple(collector.rollups),
            alerts=tuple(self.alert_engine.alerts),
        )
