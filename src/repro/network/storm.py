"""The A19 experiment: hot-spot storm survival, static vs flowlet routing.

:func:`run_storm_study` runs one seeded timeline twice — identical
clients, identical storm window, identical monitoring overlay schedule —
varying only the routing policy:

* **static** — the as-deployed configuration: FGR router selection with
  dimension-ordered (X, Y, Z) torus traversal and no congestion feedback;
* **flowlet** — :class:`~repro.network.routing.FlowletRouting` consuming
  the overlay's windowed ``mon.link_util`` gauges, plus a
  :class:`~repro.network.routing.BackpressureController` that sheds the
  storm class through a :meth:`~repro.core.path.PathBuilder.set_class_cap`
  degraded-mode cap while the watched links stay hot.

The storm is the classic dimension-ordered-routing pathology (§III's
placement reasoning in reverse): a burst of analytics readers clustered
on one torus row all start streaming at once, so every X-first path
stacks onto the row's handful of directed links while the five other
equal-cost axis orders sit idle.  A latency *probe* — one small reader
living on the same row — rides the timeline; its per-sample delivered
rate turns into a request latency, and the study's headline is the p99
of that latency: collapsed under static routing, recovered under
flowlet re-hash + backpressure by :attr:`StormStudyResult.recovery_factor`.

Everything the policies decide flows through the overlay (sweep cadence,
tree lag, batch loss), never from in-process solver state, and every
result type is a frozen dataclass of plain values — identically seeded
runs compare equal with ``==``, with telemetry enabled or disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.path import PathBuilder, Transfer
from repro.lustre.client import Client
from repro.network.lnet import FineGrainedRouting, RoutingPolicy
from repro.network.routing import (
    BackpressureController,
    FlowletRouting,
    FlowletSpec,
    LinkStatsFeed,
)
from repro.network.torus import AXIS_ORDERS, Torus3D
from repro.obs.overlay.config import OverlayConfig
from repro.obs.overlay.runtime import MonitoringOverlay
from repro.obs.overlay.scraper import routing_probes
from repro.sim.engine import Engine
from repro.units import GB

if TYPE_CHECKING:
    from repro.core.spider import SpiderSystem

__all__ = ["StormSample", "StormArm", "StormStudyResult", "run_storm_study",
           "STORM_CLASS"]

#: the QoS class label of storm transfers (the shed target)
STORM_CLASS = "storm"

#: rate floor when converting a starved probe's rate into a latency
_RATE_FLOOR = 1.0


def _request_percentile(samples: list["StormSample"], q: float) -> float:
    """Per-*request* latency percentile over the timeline.

    Each sample's latency is weighted by the bytes the probe delivered in
    its interval — i.e. by how many requests actually completed at that
    latency.  This is what the analytics user experiences: a persistent
    collapse (the static arm's whole storm window) dominates the tail,
    while a brief reaction transient (the flowlet arm's few windows of
    overlay lag before re-hash lands) carries almost no requests and
    washes out.  Plain Python, reproducible bit for bit.
    """
    weighted = sorted(
        (s.probe_latency, s.probe_rate) for s in samples)
    total = sum(w for _v, w in weighted)
    if total <= 0:
        return float(weighted[-1][0])
    threshold = q / 100.0 * total
    acc = 0.0
    for value, weight in weighted:
        acc += weight
        if acc >= threshold:
            return float(value)
    return float(weighted[-1][0])


@dataclass(frozen=True)
class StormSample:
    """One timeline sample: the probe's delivered rate and latency, the
    worst watched-link utilization, and the control state."""

    time: float
    probe_rate: float
    probe_latency: float
    victim_util: float
    storm_active: bool
    backpressure: bool


@dataclass(frozen=True)
class StormArm:
    """One arm of the storm study, frozen to comparable plain values."""

    name: str
    policy: str
    latency_p50: float
    latency_p99: float
    min_probe_rate: float
    peak_victim_util: float
    rehashes: int
    stale_reads: int
    full_solves: int
    backpressure_engagements: int
    samples: tuple[StormSample, ...]


@dataclass(frozen=True)
class StormStudyResult:
    """Paired same-seed storm timeline: static vs flowlet."""

    seed: int
    duration: float
    storm_start: float
    storm_end: float
    n_storm_clients: int
    static: StormArm
    flowlet: StormArm

    @property
    def recovery_factor(self) -> float:
        """How many times the flowlet arm shrinks the probe's p99 latency
        (the A19 headline)."""
        if self.flowlet.latency_p99 <= 0:
            return math.inf
        return self.static.latency_p99 / self.flowlet.latency_p99

    def rows(self) -> list[tuple[str, str, str]]:
        """Comparison table rows: metric, static, flowlet."""
        arms = (self.static, self.flowlet)
        return [
            ("probe latency p50", *(f"{a.latency_p50:,.2f} s" for a in arms)),
            ("probe latency p99", *(f"{a.latency_p99:,.2f} s" for a in arms)),
            ("probe rate floor",
             *(f"{a.min_probe_rate / GB:,.3f} GB/s" for a in arms)),
            ("peak victim-link utilization",
             *(f"{a.peak_victim_util:.2f}" for a in arms)),
            ("flowlet re-hashes", *(str(a.rehashes) for a in arms)),
            ("full re-solves", *(str(a.full_solves) for a in arms)),
            ("backpressure engagements",
             *(str(a.backpressure_engagements) for a in arms)),
        ]


def _storm_row(system: "SpiderSystem") -> tuple[int, int]:
    """The (y, z) torus row the storm clusters on — the middle of the
    machine, where Figure 2's cabinet rows sit."""
    dims = system.torus.dims
    return dims[1] // 2, dims[2] // 2


def _probe_coord(system: "SpiderSystem") -> tuple[int, int, int]:
    """The probe client's coordinate: on the storm row, but never on a
    router module's own node — a probe that shares a Gemini with its
    router has a zero-hop torus path and nothing for the storm to
    congest.  Among the row's non-router nodes, take the one nearest to
    any router (lowest x on ties): the healthy path is short, but real.
    """
    dims = system.torus.dims
    y, z = _storm_row(system)
    router_coords = {router.coord for router in system.routers}

    def nearest(coord: tuple[int, int, int]) -> int:
        return min(
            sum(min((a - b) % d, (b - a) % d)
                for a, b, d in zip(coord, rc, dims))
            for rc in router_coords)

    candidates = [(x, y, z) for x in range(dims[0])
                  if (x, y, z) not in router_coords]
    if not candidates:  # every row node fronts a router: degenerate torus
        candidates = [(x, y, z) for x in range(dims[0])]
    return min(candidates, key=lambda c: (nearest(c), c))


def _make_clients(system: "SpiderSystem", n_storm: int) -> tuple[
        Client, list[Client]]:
    """The probe and the clustered storm clients, all on one torus row.

    Storm clients cycle across the row's X positions (several clients per
    node is how a real cabinet row behaves — each Gemini fronts multiple
    readers), so every X-first path stacks onto the same directed row
    links.
    """
    dims = system.torus.dims
    y, z = _storm_row(system)
    probe = Client("probe", coord=_probe_coord(system))
    storm = [
        Client(f"storm-{i:03d}", coord=(i % dims[0], y, z))
        for i in range(n_storm)
    ]
    return probe, storm


def _storm_ost_indices(system: "SpiderSystem", stripe: int) -> tuple[int, ...]:
    """The shared dataset's OST stripe: spread over the whole file system
    (every leaf sees traffic — the congestion is in the torus row, not at
    one OSS).  OST 0 is reserved for the probe, so the probe never shares
    a *storage* target with the storm and every collapse it suffers is a
    network collapse."""
    n_osts = len(system.osts)
    stripe = min(stripe, n_osts - 1)
    step = max(1, (n_osts - 1) // stripe)
    return tuple(range(1, n_osts, step))[:stripe]


def _watched_components(system: "SpiderSystem",
                        clients: list[Client]) -> tuple[str, ...]:
    """Every component a storm path could cross, under any equal-cost
    choice: all serving routers plus the torus links of every (client,
    router, axis order) candidate path.  This is the probe surface the
    overlay samples — a superset, so re-hash targets are observed too.

    A path depends only on its end coordinates, so each distinct (client
    coordinate, router coordinate) pair is routed once, and each link is
    named once."""
    torus = system.torus
    router_coords = sorted({router.coord for router in system.routers})
    client_coords = sorted({client.coord for client in clients})
    links = set()
    for dst in router_coords:
        for src in client_coords:
            for order in AXIS_ORDERS:
                links.update(torus.route_links_ordered(src, dst, order))
    comps = {f"router:{router.name}" for router in system.routers}
    comps.update(Torus3D.link_component(link) for link in sorted(links))
    return tuple(sorted(comps))


def _run_arm(
    name: str,
    system: "SpiderSystem",
    policy: RoutingPolicy,
    *,
    controller: BackpressureController | None,
    feed: LinkStatsFeed | None,
    overlay_config: OverlayConfig,
    duration: float,
    storm_start: float,
    storm_end: float,
    sample_interval: float,
    n_storm_clients: int,
    stripe: int,
    request_bytes: float,
    shed_bytes: float,
) -> StormArm:
    probe, storm_clients = _make_clients(system, n_storm_clients)
    ost_indices = _storm_ost_indices(system, stripe)
    base = [Transfer("probe", probe, (0,), write=False)]
    storm = base + [
        Transfer(client.name, client, ost_indices, write=False,
                 qos_class=STORM_CLASS)
        for client in storm_clients
    ]
    builder = PathBuilder(system, policy=policy, include_torus=True)
    watched = _watched_components(system, [probe] + storm_clients)
    overlay = MonitoringOverlay(
        system, overlay_config,
        extra_probes=[routing_probes(builder, watched)])

    engine = Engine()
    overlay.attach(engine)
    current: list[list[Transfer]] = [base]
    engine.call_at(storm_start, lambda: current.__setitem__(0, storm))
    engine.call_at(storm_end, lambda: current.__setitem__(0, base))

    samples: list[StormSample] = []

    def _sample() -> None:
        now = engine.now
        if feed is not None:
            feed.ingest(overlay.collector.view())
        if isinstance(policy, FlowletRouting):
            policy.refresh(now)
        if controller is not None:
            was_engaged = controller.engaged
            controller.update(now)
            if controller.engaged != was_engaged:
                builder.set_class_cap(
                    STORM_CLASS,
                    shed_bytes if controller.engaged else math.inf)
        transfers = current[0]
        result = builder.resolve(transfers)
        probe_rate = builder.transfer_rates(result, transfers)["probe"]
        victim = builder.link_utilizations(watched).max()
        samples.append(StormSample(
            time=now,
            probe_rate=float(probe_rate),
            probe_latency=request_bytes / max(probe_rate, _RATE_FLOOR),
            victim_util=float(victim),
            storm_active=transfers is storm,
            backpressure=controller.engaged if controller is not None
            else False,
        ))

    engine.every(sample_interval, _sample, name="storm:sample")
    engine.run(until=duration)
    # Free this arm's engine, overlay and paths as soon as it returns,
    # not at the next full collection, which may fall in the next arm.
    engine.close()

    flowlet = policy if isinstance(policy, FlowletRouting) else None
    return StormArm(
        name=name,
        policy=policy.describe(),
        latency_p50=_request_percentile(samples, 50),
        latency_p99=_request_percentile(samples, 99),
        min_probe_rate=min(s.probe_rate for s in samples),
        peak_victim_util=max(s.victim_util for s in samples),
        rehashes=flowlet.rehashes if flowlet is not None else 0,
        stale_reads=flowlet.stale_reads if flowlet is not None else 0,
        full_solves=builder.solve_counts["full"],
        backpressure_engagements=(controller.engagements
                                  if controller is not None else 0),
        samples=tuple(samples),
    )


def run_storm_study(
    system_factory,
    *,
    seed: int = 0,
    n_storm_clients: int = 24,
    stripe: int = 16,
    duration: float = 7200.0,
    storm_start: float = 1200.0,
    storm_end: float = 6600.0,
    sample_interval: float = 60.0,
    request_bytes: float = 1 * GB,
    shed_fraction: float = 0.05,
    flowlet_spec: FlowletSpec | None = None,
    overlay_config: OverlayConfig | None = None,
) -> StormStudyResult:
    """Run the paired static-vs-flowlet storm timeline (experiment A19).

    Args:
        system_factory: builds a *fresh*
            :class:`~repro.core.spider.SpiderSystem` per arm, so the two
            arms share nothing mutable.
        seed: seeds the flowlet hash and the overlay's loss draws; the
            same seed always yields an ``==``-equal result.
        n_storm_clients: readers clustered on the storm row.
        stripe: OSTs the shared dataset is striped over (spread across
            the file system, so the torus row is the only hot spot).
        duration / storm_start / storm_end: the timeline (seconds); the
            storm transfers are active in ``[storm_start, storm_end)``.
        sample_interval: probe/decision cadence (seconds).
        request_bytes: the probe's representative analytics read, turned
            into latency via the sampled delivered rate.
        shed_fraction: degraded-mode cap on the storm class, as a
            fraction of the system's healthy aggregate bandwidth.
        flowlet_spec: adaptive-policy knobs (default
            :class:`~repro.network.routing.FlowletSpec` with ``seed``).
        overlay_config: monitoring knobs (default
            :class:`~repro.obs.overlay.config.OverlayConfig` with
            ``seed``).
    """
    if not storm_start < storm_end <= duration:
        raise ValueError("need storm_start < storm_end <= duration")
    if sample_interval <= 0 or request_bytes <= 0:
        raise ValueError("sample_interval and request_bytes must be positive")
    if not 0 < shed_fraction <= 1:
        raise ValueError("shed_fraction must be in (0, 1]")
    if overlay_config is None:
        overlay_config = OverlayConfig(seed=seed)
    if flowlet_spec is None:
        flowlet_spec = FlowletSpec(seed=seed)

    common = dict(
        duration=duration,
        storm_start=storm_start,
        storm_end=storm_end,
        sample_interval=sample_interval,
        n_storm_clients=n_storm_clients,
        stripe=stripe,
        request_bytes=request_bytes,
        overlay_config=overlay_config,
    )

    static_system = system_factory()
    shed_bytes = shed_fraction * float(
        static_system.aggregate_bandwidth(fs_level=True))
    static = _run_arm(
        "static", static_system,
        FineGrainedRouting(static_system.lnet),
        controller=None, feed=None, shed_bytes=shed_bytes, **common)

    flowlet_system = system_factory()
    feed = LinkStatsFeed()
    policy = FlowletRouting(flowlet_system.lnet, spec=flowlet_spec, feed=feed)
    watched = _watched_components(
        flowlet_system,
        list(_make_clients(flowlet_system, n_storm_clients)[1]))
    controller = BackpressureController(feed, watched, spec=flowlet_spec)
    flowlet = _run_arm(
        "flowlet", flowlet_system, policy,
        controller=controller, feed=feed, shed_bytes=shed_bytes, **common)

    return StormStudyResult(
        seed=seed,
        duration=duration,
        storm_start=storm_start,
        storm_end=storm_end,
        n_storm_clients=n_storm_clients,
        static=static,
        flowlet=flowlet,
    )
