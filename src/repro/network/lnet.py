"""LNET routing between the torus and the InfiniBand fabric.

Lustre's LNET layer sees two networks: the Gemini side (clients, routers)
and the InfiniBand side (routers, servers).  Each I/O router is a host on
both.  §V-B describes OLCF's *fine-grained routing* (FGR):

  "Each router has an InfiniBand-side NI that corresponds to the leaf
   switch it is plugged into.  Clients choose to use a topologically close
   router that uses the NI of the desired destination.  Clients have a
   Gemini-side NI that corresponds to a topological 'zone' in the torus.
   The Lustre servers will choose a router connected to the same InfiniBand
   leaf switch that is in the destination topological zone."

Policies implemented:

* :class:`FineGrainedRouting` — destination-leaf-matched, topologically
  nearest router (the paper's FGR);
* :class:`RoundRobinRouting` — the naive baseline: any router, round robin,
  ignoring both torus locality and leaf affinity.  Traffic then crosses the
  torus farther *and* hops through IB core switches, which is what FGR is
  measured against in experiment E9.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.network.infiniband import InfinibandFabric
from repro.network.torus import Coord, Torus3D
from repro.obs.instruments import get_telemetry

__all__ = ["RouterInfo", "LnetConfig", "RoutingPolicy", "FineGrainedRouting",
           "RoundRobinRouting", "record_routed_bytes"]


def record_routed_bytes(router_name: str, nbytes: float) -> None:
    """Account bytes routed through one LNET router (the per-router counter
    the paper's congestion analyses need; attributed after a flow solve)."""
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.counter("lnet.routed_bytes", router_name).add(float(nbytes))


@dataclass(frozen=True)
class RouterInfo:
    """One Lustre I/O router: a dual-homed LNET node."""

    name: str
    coord: Coord  # Gemini-side position
    leaf: int  # InfiniBand-side leaf switch (its IB NI)


class LnetConfig:
    """The routing substrate shared by all policies."""

    def __init__(
        self,
        torus: Torus3D,
        fabric: InfinibandFabric,
        routers: list[RouterInfo],
    ) -> None:
        if not routers:
            raise ValueError("need at least one router")
        self.torus = torus
        self.fabric = fabric
        self.routers = list(routers)
        self._coords = np.array([r.coord for r in self.routers], dtype=int)
        self._by_leaf: dict[int, list[int]] = {}
        self._index_of: dict[str, int] = {}
        for i, r in enumerate(self.routers):
            self._by_leaf.setdefault(r.leaf, []).append(i)
            self._index_of[r.name] = i
        #: routing-table liveness: a router that died (§IV-D) is removed
        #: from every policy's candidate set until marked online again
        self._online = np.ones(len(self.routers), dtype=bool)
        #: (client, leaf, slack) -> near zone; valid until an online bit flips
        self._zones: dict[tuple[Coord, int, float], list[tuple[int, str, int]]] = {}

    def routers_for_leaf(self, leaf: int) -> list[RouterInfo]:
        return [self.routers[i] for i in self._by_leaf.get(leaf, [])]

    def router_coords(self) -> np.ndarray:
        return self._coords.copy()

    # -- liveness (router failures, §IV-D) ------------------------------------

    def set_router_online(self, name: str, online: bool) -> None:
        """Mark one router up/down in the routing tables (the LNET view of
        a router failure; the fabric-side cable is a separate component)."""
        i = self._index_of[name]
        if bool(self._online[i]) != online:
            self._online[i] = online
            self._zones.clear()

    def router_online(self, name: str) -> bool:
        return bool(self._online[self._index_of[name]])

    def online_fingerprint(self) -> bytes:
        """The router-online bits as an opaque comparable value.

        Incremental consumers (:meth:`repro.core.path.PathBuilder.resolve`)
        compare fingerprints across solves: an unchanged fingerprint means
        every previously chosen route is still live, so the built network
        can be reused; a changed one forces a rebuild.
        """
        return self._online.tobytes()

    def online_indices(self, candidates: list[int]) -> list[int]:
        """Filter a candidate index list down to live routers."""
        return [i for i in candidates if self._online[i]]

    def near_zone(self, client: Coord, leaf: int,
                  slack: float) -> list[tuple[int, str, int]]:
        """The client's router *zone* for ``leaf``: every online router
        of that leaf within ``slack`` torus hops of the nearest one, as
        ``(distance, name, index)`` sorted ascending.

        Zones are cached per ``(client, leaf, slack)`` and dropped only
        when a router's online bit actually flips, so a steady-state
        selection pays no distance computation; the returned list is the
        cache entry, so callers must not mutate it.  ``slack=math.inf``
        is the whole online leaf.  Raises :class:`LookupError` when no
        online router serves ``leaf``.
        """
        key = (client, leaf, slack)
        zone = self._zones.get(key)
        if zone is None:
            candidates = self.online_indices(self._by_leaf.get(leaf, []))
            if not candidates:
                raise LookupError(f"no router serves leaf {leaf}")
            dists = self.torus.distances_from(client, self._coords[candidates])
            cutoff = dists.min() + slack
            zone = sorted((int(d), self.routers[i].name, i)
                          for d, i in zip(dists, candidates) if d <= cutoff)
            self._zones[key] = zone
        return zone


class RoutingPolicy:
    """Maps (client coordinate, destination leaf) to a router."""

    name = "abstract"

    def __init__(self, config: LnetConfig) -> None:
        self.config = config

    def select_router(self, client: Coord, dst_leaf: int) -> RouterInfo:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear accumulated balancing state (load counts, cycle position).

        Incremental solvers call this before rebuilding a network so the
        fresh route selection matches what a brand-new policy would pick —
        stale balancing state would otherwise skew the rebuilt routes.
        The base policy is stateless, so this is a no-op.
        """

    def fingerprint(self) -> bytes:
        """Opaque token for "would this policy route differently now?".

        :meth:`repro.core.path.PathBuilder.resolve` compares fingerprints
        across solves and rebuilds its network only on a change.  The base
        value is the substrate's router-online bits
        (:meth:`LnetConfig.online_fingerprint`); adaptive policies extend
        it with their own routing state (and may *dampen* the online bits
        so a flapping router does not thrash rebuilds).
        """
        return self.config.online_fingerprint()

    def axis_order(self, client: Coord, router: Coord) -> tuple[int, int, int]:
        """The torus dimension-traversal order for this (client, router)
        pair.  Static policies route X-then-Y-then-Z (how Gemini routes in
        practice); congestion-aware policies pick among the equal-cost
        :data:`~repro.network.torus.AXIS_ORDERS` per flowlet."""
        del client, router
        return (0, 1, 2)

    def describe(self) -> str:
        return self.name


class FineGrainedRouting(RoutingPolicy):
    """The paper's FGR: leaf-matched, topologically close, load-spread.

    Among the routers whose InfiniBand NI sits on the destination leaf
    switch, consider those within ``slack`` torus hops of the nearest one
    (the client's router *zone*), and pick the least-loaded of them —
    zones in the production FGR configuration are sized so client
    assignments balance across a leaf's routers rather than piling onto
    the single geometrically nearest one.  Ties break by distance, then
    router *name* — an explicit identity key, so the selection is
    invariant under the insertion order of the router list (tie-breaking
    by list position would silently re-route whenever inventory
    enumeration order changed).
    """

    name = "fgr"

    def __init__(self, config: LnetConfig, *, slack: int = 4) -> None:
        super().__init__(config)
        if slack < 0:
            raise ValueError("slack must be non-negative")
        self.slack = slack
        #: selections so far per router index (the load-spreading key)
        self._load = [0] * len(config.routers)

    def select_router(self, client: Coord, dst_leaf: int) -> RouterInfo:
        load = self._load
        _load, _dist, _name, pick = min(
            (load[i], dist, name, i)
            for dist, name, i in self.config.near_zone(client, dst_leaf,
                                                       self.slack))
        load[pick] += 1
        return self.config.routers[pick]

    def reset(self) -> None:
        """Zero the per-router load counts (see :meth:`RoutingPolicy.reset`)."""
        self._load = [0] * len(self.config.routers)


class RoundRobinRouting(RoutingPolicy):
    """Naive baseline: cycle through all routers, ignoring locality.

    This is what a flat LNET configuration (single network, equal-priority
    routes) degenerates to, and it is the configuration FGR replaced.
    """

    name = "round-robin"

    def __init__(self, config: LnetConfig) -> None:
        super().__init__(config)
        self._cycle = itertools.cycle(range(len(config.routers)))

    def select_router(self, client: Coord, dst_leaf: int) -> RouterInfo:
        for _ in range(len(self.config.routers)):
            i = next(self._cycle)
            if self.config._online[i]:
                return self.config.routers[i]
        raise LookupError("no router online")

    def reset(self) -> None:
        """Restart the cycle (see :meth:`RoutingPolicy.reset`)."""
        self._cycle = itertools.cycle(range(len(self.config.routers)))
