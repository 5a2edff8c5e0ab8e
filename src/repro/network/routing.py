"""Congestion-aware flowlet routing over the torus and the SION fabric.

Static dimension-ordered routing (how Gemini routes, and what the FGR
placement lessons of §III take as given) concentrates an all-to-one storm
onto one predictable link set while the other members of the equal-cost
family sit idle.  This module adds the *adaptive* half the paper's
operators wished for, in the LetFlow lineage (SNIPPETS.md snippet 3,
NSDI'17): traffic is pinned to its path at *flowlet* granularity — one
(client, destination leaf) stream — and a flowlet re-hashes to another
equal-cost path only when the path it is on looks congested.

Three design rules keep this honest inside the simulation:

* **Observed, not omniscient.**  Congestion is read from a
  :class:`LinkStatsFeed` filled from the PR-6 monitoring overlay's
  windowed ``mon.link_util`` gauges — values that are minutes old and
  lossy, never the solver's in-process truth.  A sample older than
  ``stale_after_s`` is *stale*: the policy still uses it (last-known-good
  fallback — routing on nothing is worse than routing on old news) but
  counts the read in ``routing.stale_reads``.
* **Hysteresis everywhere.**  A flowlet moves only above ``threshold``
  utilization, then dwells ``min_dwell_s`` before it may move again; the
  deadband down to ``low_water`` stops ping-ponging between two warm
  paths.  Router up/down flaps are dampened the same way: the policy's
  :meth:`FlowletRouting.fingerprint` only commits an online-bit change
  after it has held for ``reroute_dwell_s``, so the PR-2 injectors'
  rapid down/up cycles do not thrash
  :meth:`~repro.core.path.PathBuilder.resolve` rebuilds.
* **Seeded re-hash.**  Path choice is a keyed BLAKE2 hash of the flowlet
  identity and its re-hash generation — deterministic for a seed, spread
  across the candidate pool so a storm's flowlets do not herd onto the
  one coldest path in lockstep.

:class:`BackpressureController` closes the degraded-mode loop: when the
watched links stay hot for ``engage_windows`` consecutive updates the
controller engages, shedding load into the existing QoS arbiter
(:meth:`repro.sched.qos.BandwidthArbiter.set_degraded`) or — for
path-level studies — into a :meth:`PathBuilder.set_class_cap
<repro.core.path.PathBuilder.set_class_cap>` demand cap, and releases
only after the links have cooled below ``low_water`` for
``release_windows`` updates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.network.lnet import LnetConfig, RouterInfo, RoutingPolicy
from repro.network.torus import AXIS_ORDERS, Coord, Torus3D
from repro.obs.instruments import get_telemetry

__all__ = [
    "FlowletSpec",
    "LinkStatsFeed",
    "FlowletRouting",
    "BackpressureController",
    "LINK_UTIL_METRIC",
]

#: the overlay gauge the feed consumes (see
#: :func:`repro.obs.overlay.scraper.routing_probes`)
LINK_UTIL_METRIC = "mon.link_util"


@dataclass(frozen=True)
class FlowletSpec:
    """Thresholds and dwell times of the adaptive machinery.

    ``threshold``/``low_water`` bound the hysteresis band: a flowlet
    re-hashes above the former and backpressure releases below the
    latter.  ``min_dwell_s`` pins a flowlet to its new path;
    ``reroute_dwell_s`` dampens router-online flaps before they reach the
    resolve fingerprint; ``stale_after_s`` marks feed samples as stale
    (still used, but counted).  ``engage_windows``/``release_windows``
    are the consecutive-update debounce of the backpressure controller.
    """

    threshold: float = 0.85
    low_water: float = 0.60
    min_dwell_s: float = 90.0
    stale_after_s: float = 240.0
    reroute_dwell_s: float = 180.0
    slack: int = 4
    engage_windows: int = 2
    release_windows: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.low_water < self.threshold <= 1.5):
            raise ValueError("need 0 < low_water < threshold")
        for name in ("min_dwell_s", "stale_after_s", "reroute_dwell_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.engage_windows < 1 or self.release_windows < 1:
            raise ValueError("debounce windows must be >= 1")


class LinkStatsFeed:
    """Last-known-good per-component utilization, as the overlay saw it.

    The feed is a plain ``component -> (value, sampled_at)`` map: the
    overlay's collector view is poured in via :meth:`ingest` (only the
    :data:`LINK_UTIL_METRIC` series), or a driver can :meth:`observe`
    values directly in tests.  Reads never fail: an unobserved component
    reads as ``(0.0, inf age)`` — an idle-looking link, which is exactly
    the optimistic default a re-hash should spread onto.
    """

    def __init__(self) -> None:
        self._last: dict[str, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._last)

    def observe(self, component: str, value: float, sampled_at: float) -> None:
        """Record one windowed gauge sample for ``component``."""
        self._last[component] = (float(value), float(sampled_at))

    def ingest(
        self,
        view: dict[tuple[str, str], tuple[float, float]],
        *,
        metric: str = LINK_UTIL_METRIC,
    ) -> int:
        """Pour a collector ``view()`` mapping into the feed; returns the
        number of samples taken (only ``metric`` rows are consumed)."""
        n = 0
        for (m, source), (value, sampled_at) in view.items():
            if m == metric:
                self.observe(source, value, sampled_at)
                n += 1
        return n

    def read(self, component: str, now: float) -> tuple[float, float]:
        """``(last-known-good value, age in seconds)`` for ``component``.

        Age is ``inf`` for a component the overlay has never reported —
        the caller decides what staleness means via its own cutoff.
        """
        rec = self._last.get(component)
        if rec is None:
            return 0.0, math.inf
        value, sampled_at = rec
        return value, now - sampled_at


class FlowletRouting(RoutingPolicy):
    """LetFlow-style congestion-aware selection over routers + axis orders.

    A flowlet is one ``(client coordinate, destination leaf)`` stream.
    Its path has two degrees of freedom, both equal-cost:

    * **which router** of the destination leaf's zone carries it (the
      same candidate set FGR draws from), and
    * **which axis order** its torus hops traverse
      (:data:`~repro.network.torus.AXIS_ORDERS` — six largely link-
      disjoint minimal paths).

    New flowlets hash across the router zone (ECMP-style spray) but start
    on plain dimension order; only *observed* congestion moves them off
    it.  A re-hash normally stays inside the distance-``slack`` zone, but
    when every near option is itself above ``threshold`` the distance cap
    is lifted and the whole leaf zone is scored — under congestion a
    longer detour beats a saturated shortest path.  :meth:`refresh` is the single decision point — drivers call it
    once per sample window with the current sim time, after pouring the
    overlay view into the feed — so :meth:`select_router` stays a pure
    table lookup and a rebuild replays exactly the decided routes.
    """

    name = "flowlet"

    def __init__(
        self,
        config: LnetConfig,
        *,
        spec: FlowletSpec | None = None,
        feed: LinkStatsFeed | None = None,
    ) -> None:
        super().__init__(config)
        self.spec = spec if spec is not None else FlowletSpec()
        self.feed = feed if feed is not None else LinkStatsFeed()
        self.now = 0.0
        self._seed_key = int(self.spec.seed).to_bytes(8, "little", signed=False)
        #: flowlet key -> router index / re-hash generation / last move time
        self._assigned: dict[tuple[Coord, int], int] = {}
        self._salt: dict[tuple[Coord, int], int] = {}
        self._moved_at: dict[tuple[Coord, int], float] = {}
        #: flowlet key -> index into AXIS_ORDERS (0 = plain X,Y,Z)
        self._axis_of: dict[tuple[Coord, int], int] = {}
        #: (client, router coord) -> AXIS_ORDERS index, the lookup surface
        #: PathBuilder reads while assembling torus components
        self._axis_pair: dict[tuple[Coord, Coord], int] = {}
        self._epoch = 0
        self._committed_fp = config.online_fingerprint()
        self._pending_fp: bytes | None = None
        self._pending_since = 0.0
        self.rehashes = 0
        self.stale_reads = 0
        self.reroute_commits = 0

    # -- deterministic hashing -------------------------------------------------

    def _hash(self, key: tuple[Coord, int], salt: int) -> int:
        """Keyed BLAKE2 of (flowlet, generation): stable across runs and
        processes (unlike ``hash()``), spread by the spec seed."""
        payload = repr((key, salt)).encode("utf-8")
        digest = hashlib.blake2b(
            payload, digest_size=8, key=self._seed_key).digest()
        return int.from_bytes(digest, "little")

    # -- candidate enumeration -------------------------------------------------

    def _zone(self, client: Coord, dst_leaf: int,
              *, slack: float | None = None) -> list[int]:
        """Router indices of the client's zone, ordered by (distance,
        name) — the cached :meth:`LnetConfig.near_zone` FGR draws from.
        ``slack=math.inf`` lifts the distance cap (the desperation
        widening of :meth:`_maybe_rehash`)."""
        if slack is None:
            slack = self.spec.slack
        return [idx for _d, _n, idx in
                self.config.near_zone(client, dst_leaf, slack)]

    def _path_components(self, client: Coord, idx: int, axis: int) -> list[str]:
        """Component names a flowlet crosses to router ``idx`` under
        ``AXIS_ORDERS[axis]`` — the set whose observed utilization scores
        the path."""
        router = self.config.routers[idx]
        comps = [f"router:{router.name}"]
        links = self.config.torus.route_links_ordered(
            client, router.coord, AXIS_ORDERS[axis])
        comps.extend(Torus3D.link_component(link) for link in links)
        return comps

    def _observed(self, comps: list[str]) -> float:
        """Max last-known-good utilization over ``comps``; stale reads are
        tolerated (the fallback) but counted."""
        peak = 0.0
        stale = 0
        for comp in comps:
            value, age = self._feed_read(comp)
            if value > peak:
                peak = value
            if self.spec.stale_after_s < age < math.inf:
                stale += 1
        if stale:
            self.stale_reads += stale
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("routing.stale_reads").add(float(stale))
        return peak

    def _feed_read(self, comp: str) -> tuple[float, float]:
        return self.feed.read(comp, self.now)

    # -- RoutingPolicy surface -------------------------------------------------

    def select_router(self, client: Coord, dst_leaf: int) -> RouterInfo:
        key = (client, dst_leaf)
        idx = self._assigned.get(key)
        if idx is not None and not bool(self.config._online[idx]):
            idx = None  # assigned router died since the last refresh
        if idx is None:
            idx = self._assign(key, client, dst_leaf)
        return self.config.routers[idx]

    def _assign(self, key: tuple[Coord, int], client: Coord,
                dst_leaf: int) -> int:
        """First assignment (or forced re-assignment after a router loss):
        hash across the zone, start on plain dimension order."""
        zone = self._zone(client, dst_leaf)
        salt = self._salt.get(key, 0)
        idx = zone[self._hash(key, salt) % len(zone)]
        self._assigned[key] = idx
        axis = self._axis_of.get(key, 0)
        self._axis_of[key] = axis
        self._axis_pair[(client, self.config.routers[idx].coord)] = axis
        return idx

    def axis_order(self, client: Coord, router: Coord) -> tuple[int, int, int]:
        return AXIS_ORDERS[self._axis_pair.get((client, router), 0)]

    def reset(self) -> None:
        """Deliberately keep the flowlet tables across rebuilds.

        The tables *are* the routing state :meth:`refresh` decided; a
        rebuild must replay them verbatim, not re-derive fresh ones —
        clearing here would undo every congestion-driven move at exactly
        the moment the rebuild is supposed to apply it.
        """

    def fingerprint(self) -> bytes:
        """Dampened online bits plus the re-hash epoch.

        Online-bit changes enter only after :meth:`refresh` has seen them
        hold for ``reroute_dwell_s`` (flap dampening); every batch of
        flowlet moves bumps the epoch so the resolve layer rebuilds once
        per decision batch, never per flap.
        """
        return self._committed_fp + self._epoch.to_bytes(8, "little")

    def describe(self) -> str:
        return (f"flowlet(threshold={self.spec.threshold:g}, "
                f"dwell={self.spec.min_dwell_s:g}s)")

    # -- the per-window decision point ----------------------------------------

    def refresh(self, now: float) -> int:
        """Advance dampening and re-hash hot flowlets; returns moves made.

        Drivers call this once per sample window, *after* pouring the
        overlay view into the feed.  Decisions are made flowlet by
        flowlet in sorted key order (deterministic), each against the
        same window's observations.
        """
        self.now = float(now)
        self._advance_fingerprint(self.now)
        moved = 0
        for key in sorted(self._assigned):
            moved += self._maybe_rehash(key, self.now)
        if moved:
            self._epoch += 1
            self.rehashes += moved
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("routing.rehash").add(float(moved))
        return moved

    def _maybe_rehash(self, key: tuple[Coord, int], now: float) -> int:
        client, dst_leaf = key
        idx = self._assigned[key]
        axis = self._axis_of.get(key, 0)
        observed = self._observed(self._path_components(client, idx, axis))
        if observed <= self.spec.threshold:
            return 0
        if now - self._moved_at.get(key, -math.inf) < self.spec.min_dwell_s:
            return 0
        try:
            zone = self._zone(client, dst_leaf)
        except LookupError:
            return 0  # whole zone dark; the build layer drops the flow
        # Score every equal-cost (router, axis order) option by its
        # observed peak; re-hash into the cool pool (everything at or
        # under low_water, or the least-bad options when nothing is cool).
        options: list[tuple[float, str, int, int]] = []
        for cand in zone:
            cand_name = self.config.routers[cand].name
            for a in range(len(AXIS_ORDERS)):
                peak = self._observed(self._path_components(client, cand, a))
                options.append((peak, cand_name, a, cand))
        options.sort()
        if options[0][0] > self.spec.threshold:
            # Desperation widening: every near option is itself above the
            # re-hash threshold (a zone can collapse to one router module
            # whose every axis order shares one saturated link).  Under
            # congestion a longer detour beats a saturated shortest path
            # — LetFlow's congestion-over-distance call — so lift the
            # distance cap and rescore the rest of the leaf's zone.
            near = set(zone)
            for cand in self._zone(client, dst_leaf, slack=math.inf):
                if cand in near:
                    continue
                cand_name = self.config.routers[cand].name
                for a in range(len(AXIS_ORDERS)):
                    peak = self._observed(
                        self._path_components(client, cand, a))
                    options.append((peak, cand_name, a, cand))
            options.sort()
        cutoff = max(self.spec.low_water, options[0][0])
        pool = [o for o in options if o[0] <= cutoff]
        salt = self._salt.get(key, 0) + 1
        self._salt[key] = salt
        peak, _name, new_axis, new_idx = pool[self._hash(key, salt) % len(pool)]
        if new_idx == idx and new_axis == axis:
            return 0
        self._assigned[key] = new_idx
        self._axis_of[key] = new_axis
        self._axis_pair[(client, self.config.routers[new_idx].coord)] = new_axis
        self._moved_at[key] = now
        return 1

    def _advance_fingerprint(self, now: float) -> None:
        """Commit an online-bit change only once it has held for
        ``reroute_dwell_s`` — the flap-dampening half of the hysteresis."""
        raw = self.config.online_fingerprint()
        if raw == self._committed_fp:
            self._pending_fp = None
            return
        if raw != self._pending_fp:
            self._pending_fp = raw
            self._pending_since = now
            return
        if now - self._pending_since < self.spec.reroute_dwell_s:
            return
        self._committed_fp = raw
        self._pending_fp = None
        self.reroute_commits += 1
        # Drop assignments through routers that are now offline: the
        # rebuild this commit triggers re-assigns them (salt preserved,
        # so the re-assignment is deterministic).
        online = self.config._online
        for key, idx in list(self._assigned.items()):
            if not bool(online[idx]):
                del self._assigned[key]
        self._epoch += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("routing.reroute_commits").add(1.0)


class BackpressureController:
    """Debounced per-link backpressure feeding the degraded-mode caps.

    Watches the observed utilization of ``watched`` components in a
    :class:`LinkStatsFeed` and flips between normal and degraded mode
    with consecutive-window hysteresis: hot for ``engage_windows``
    updates → engage, cool (below ``low_water``) for ``release_windows``
    updates → release.  On each transition the attached consumers are
    driven: a :class:`~repro.sched.qos.BandwidthArbiter` via
    ``set_degraded`` and/or a :class:`~repro.core.path.PathBuilder`
    demand cap via ``set_class_cap``.
    """

    def __init__(
        self,
        feed: LinkStatsFeed,
        watched: tuple[str, ...] | list[str],
        *,
        spec: FlowletSpec | None = None,
        arbiter=None,
    ) -> None:
        if not watched:
            raise ValueError("need at least one watched component")
        self.feed = feed
        self.watched = tuple(watched)
        self.spec = spec if spec is not None else FlowletSpec()
        self.arbiter = arbiter
        self.engaged = False
        self.engagements = 0
        self.releases = 0
        self._hot_streak = 0
        self._cool_streak = 0

    def peak(self, now: float) -> float:
        """Current observed peak utilization over the watched set."""
        return max(self.feed.read(comp, now)[0] for comp in self.watched)

    def update(self, now: float) -> bool:
        """One debounce step at sim time ``now``; returns engaged state."""
        peak = self.peak(now)
        if not self.engaged:
            self._hot_streak = (
                self._hot_streak + 1 if peak > self.spec.threshold else 0)
            if self._hot_streak >= self.spec.engage_windows:
                self._flip(True)
        else:
            self._cool_streak = (
                self._cool_streak + 1 if peak < self.spec.low_water else 0)
            if self._cool_streak >= self.spec.release_windows:
                self._flip(False)
        return self.engaged

    def _flip(self, engaged: bool) -> None:
        self.engaged = engaged
        self._hot_streak = 0
        self._cool_streak = 0
        if engaged:
            self.engagements += 1
        else:
            self.releases += 1
        if self.arbiter is not None:
            self.arbiter.set_degraded(engaged)
        telemetry = get_telemetry()
        if telemetry.enabled:
            name = ("routing.backpressure_engaged" if engaged
                    else "routing.backpressure_released")
            telemetry.counter(name).add(1.0)
