"""End-to-end I/O path construction: turning transfers into flow problems.

This module encodes the layered data path of Figure 1 / Lesson 12:

  client stack → (Gemini links) → I/O router → router IB cable → leaf
  switch → (core switch) → OSS cable → OSS node → controller couplet →
  OST (RAID group)

Each layer becomes a component in a :class:`repro.core.flow.FlowNetwork`;
each transfer (one client writing/reading one OST set) becomes a flow
crossing its layers.  Torus links are optional — they matter for the
placement/congestion experiments but add thousands of components the
whole-system scaling runs don't need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.flow import RESOLVE_COUNTERS, FlowNetwork, FlowResult
from repro.core.spider import SpiderSystem
from repro.lustre.client import Client
from repro.network.lnet import (
    FineGrainedRouting,
    RouterInfo,
    RoutingPolicy,
    record_routed_bytes,
)
from repro.obs.instruments import get_telemetry

__all__ = ["Transfer", "PathBuilder"]

#: one flow's route: the LNET router it enters through (``None`` for an
#: off-torus client on the SAN) and its torus axis order (``None`` when
#: torus links are not modelled); a flow with no live router has no route
Route = tuple[RouterInfo | None, tuple[int, int, int] | None]


@dataclass(frozen=True)
class Transfer:
    """One I/O stream: a client moving data to/from a set of OSTs.

    ``demand`` is the offered load (bytes/s) of this stream — typically the
    client-stack ceiling discounted by transfer-size efficiency.  A stream
    striped over several OSTs is split into one flow per OST with the
    demand divided evenly (Lustre round-robins RPCs over stripes).
    """

    name: str
    client: Client
    ost_indices: tuple[int, ...]
    demand: float = math.inf
    write: bool = True
    #: QoS class label; flows of a labelled transfer additionally cross a
    #: shared ``qos:<class>`` component whose capacity
    #: :meth:`PathBuilder.set_class_cap` can move (the degraded-mode shed
    #: path for backpressure).  ``None`` (the default) adds nothing.
    qos_class: str | None = None

    def __post_init__(self) -> None:
        if not self.ost_indices:
            raise ValueError("transfer needs at least one OST")
        if self.demand <= 0:
            raise ValueError("demand must be positive")


class PathBuilder:
    """Builds flow networks over a :class:`SpiderSystem`."""

    def __init__(
        self,
        system: SpiderSystem,
        *,
        policy: RoutingPolicy | None = None,
        fs_level: bool = True,
        include_torus: bool = False,
    ) -> None:
        self.system = system
        self.policy = policy or FineGrainedRouting(system.lnet)
        self.fs_level = fs_level
        self.include_torus = include_torus
        self._router_usage: dict[str, int] = {}
        #: (router name | None, oss name, ost index, is_write) per flow,
        #: in add order — parallel to FlowResult.flow_names/rates.
        self._flow_routes: list[tuple[str | None, str, int, bool]] = []
        #: flows dropped by the most recent route plan (build or re-route)
        #: because no live router served their destination leaf (router
        #: failures, §IV-D)
        self.unroutable_flows = 0
        #: per-class capacity of the shared ``qos:<class>`` components
        #: (see :meth:`set_class_cap`); unlisted classes are uncapped
        self._class_caps: dict[str, float] = {}
        # incremental-resolve state (see resolve()): the built network,
        # the transfer list it was built for, the routing-policy
        # fingerprint the routes were chosen under, and the route of
        # every (transfer, OST) pair in build order
        self._net: FlowNetwork | None = None
        self._resolved_transfers: list[Transfer] | None = None
        self._routing_fp: bytes | None = None
        self._routes: list[Route | None] = []
        self._last_result: FlowResult | None = None
        # link_utilizations' component indices into the network that
        # produced _last_result, keyed by component tuple; dropped when
        # resolve() rebuilds or re-routes the network
        self._util_ids: dict[tuple[str, ...], np.ndarray] = {}
        # _refresh_capacities' fault-movable component names and their
        # indices into the resolved network (None until first needed)
        self._refresh_names: list[str] = []
        self._refresh_ids: np.ndarray | None = None
        # solve counts of networks this builder has retired; rebuilds swap
        # in a fresh FlowNetwork, so the property below folds these in to
        # stay cumulative across the builder's lifetime
        self._solve_counts_base = dict.fromkeys(
            (counter.rpartition(".")[2] for counter in RESOLVE_COUNTERS), 0)

    # -- component registration ---------------------------------------------------

    def _register_static_components(self, net: FlowNetwork) -> None:
        sys = self.system
        sys.fabric.register_components(net)
        for r in sys.routers:
            net.add_component(f"router:{r.name}", sys.spec.router_bw_cap)
        for oss in sys.osses:
            net.add_component(oss.component, oss.spec.node_bw_cap)
        for i, ssu in enumerate(sys.ssus):
            net.add_component(
                f"couplet:{i}", ssu.couplet.bw_cap(fs_level=self.fs_level)
            )
        ost_caps = sys.ost_flow_capacities(fs_level=self.fs_level)
        for ost, cap in zip(sys.osts, ost_caps):
            net.add_component(ost.component, float(cap))

    def _client_components(self, net: FlowNetwork, client: Client) -> list[str]:
        comps = [client.component]
        if not net.has_component(client.component):
            net.add_component(client.component, client.bw_cap)
        if self.include_torus and client.on_torus:
            inj = self.system.torus.injection_component(client.coord)
            if not net.has_component(inj):
                net.add_component(inj, self.system.spec.torus.injection_bw)
            comps.append(inj)
        return comps

    def _torus_components(self, net: FlowNetwork, src, dst,
                          order: tuple[int, int, int]) -> list[str]:
        comps = []
        for link in self.system.torus.route_links_ordered(src, dst, order):
            comp = self.system.torus.link_component(link)
            if not net.has_component(comp):
                net.add_component(comp, self.system.spec.torus.link_bw)
            comps.append(comp)
        return comps

    # -- network assembly ------------------------------------------------------------

    def _plan(self, transfers: list[Transfer]) -> list[Route | None]:
        """Ask the policy for every flow's route, in build order.

        The one place routes are chosen, for :meth:`build` and the
        in-place re-route of :meth:`resolve` alike: one
        ``select_router`` (then ``axis_order``) call per (transfer, OST)
        pair of an on-torus client.  Rewrites the route tables
        (:meth:`router_usage`, the per-flow routes, and
        :attr:`unroutable_flows` with its ``flow.unroutable`` counter);
        returns one entry per pair, ``None`` where no live router serves
        the destination leaf.
        """
        policy = self.policy
        oss_of_ost = self.system.oss_of_ost
        usage = self._router_usage
        flow_routes = self._flow_routes
        usage.clear()
        flow_routes.clear()
        routes: list[Route | None] = []
        unroutable = 0
        for t in transfers:
            client = t.client
            for ost_index in t.ost_indices:
                oss = oss_of_ost(ost_index)
                router = order = None
                if client.on_torus:
                    try:
                        router = policy.select_router(client.coord, oss.leaf)
                    except LookupError:
                        unroutable += 1
                        routes.append(None)
                        continue
                    usage[router.name] = usage.get(router.name, 0) + 1
                    if self.include_torus:
                        order = policy.axis_order(client.coord, router.coord)
                flow_routes.append((None if router is None else router.name,
                                    oss.name, ost_index, t.write))
                routes.append((router, order))
        self.unroutable_flows = unroutable
        if unroutable:
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("flow.unroutable").add(float(unroutable))
        return routes

    def _flow_path(self, net: FlowNetwork, t: Transfer,
                   client_comps: list[str], ost_index: int,
                   route: Route) -> list[str]:
        """The components one routed flow crosses, registering any torus
        link or QoS class component ``net`` does not have yet."""
        router, order = route
        ost = self.system.osts[ost_index]
        oss = self.system.oss_of_ost(ost_index)
        path = list(client_comps)
        if router is not None:
            if order is not None:
                path += self._torus_components(
                    net, t.client.coord, router.coord, order)
            path.append(f"router:{router.name}")
            entry_host = router.name
        else:
            entry_host = t.client.name  # off-torus host on the SAN
        path += self.system.fabric.path_components(entry_host, oss.name)
        path.append(oss.component)
        path.append(f"couplet:{ost.ssu_index}")
        path.append(ost.component)
        if t.qos_class is not None:
            qos_comp = f"qos:{t.qos_class}"
            if not net.has_component(qos_comp):
                net.add_component(
                    qos_comp, self._class_caps.get(t.qos_class, math.inf))
            path.append(qos_comp)
        return path

    def build(self, transfers: list[Transfer]) -> FlowNetwork:
        """A flow network with one flow per (transfer, OST) pair.

        A flow whose destination leaf has no live router (every serving
        router failed) is dropped rather than built — the Lustre client
        simply cannot reach that OST — and counted in
        :attr:`unroutable_flows` (plus the ``flow.unroutable`` telemetry
        counter when enabled).
        """
        return self._assemble(transfers, self._plan(transfers))

    def _assemble(self, transfers: list[Transfer],
                  routes: list[Route | None]) -> FlowNetwork:
        """A fresh network carrying ``transfers`` over planned ``routes``."""
        net = FlowNetwork()
        self._register_static_components(net)
        # A build replaces the route tables, so any network resolve()
        # may be holding no longer matches them.  Fold its solve counts
        # into the base first so solve_counts stays cumulative.
        if self._net is not None:
            for kind, count in self._net.solve_counts.items():
                self._solve_counts_base[kind] += count
        self._net = None
        self._routes = routes
        self._refresh_ids = None

        planned = iter(routes)
        for t in transfers:
            client_comps = self._client_components(net, t.client)
            per_ost_demand = t.demand / len(t.ost_indices)
            for ost_index in t.ost_indices:
                route = next(planned)
                if route is None:
                    continue
                net.add_flow(
                    f"{t.name}->ost{ost_index}",
                    self._flow_path(net, t, client_comps, ost_index, route),
                    demand=per_ost_demand)
        return net

    def _reroute(self, net: FlowNetwork, transfers: list[Transfer],
                 routes: list[Route | None]) -> bool:
        """Move ``net``'s flows onto freshly planned ``routes`` in place.

        Only flows whose route changed are re-pathed
        (:meth:`FlowNetwork.set_path` keeps each flow's slot).  Returns
        False, touching nothing, when the set of unroutable flows
        changed: dropping or restoring a flow would shift the slots a
        fresh build assigns, so the caller rebuilds instead.
        """
        old_routes = self._routes
        if any((new is None) != (old is None)
               for new, old in zip(routes, old_routes)):
            return False
        k = 0
        for t in transfers:
            client_comps = None
            for ost_index in t.ost_indices:
                new, old = routes[k], old_routes[k]
                k += 1
                if new is None or new == old:
                    continue
                if client_comps is None:
                    client_comps = self._client_components(net, t.client)
                net.set_path(
                    f"{t.name}->ost{ost_index}",
                    self._flow_path(net, t, client_comps, ost_index, new))
        self._routes = routes
        return True

    def solve(self, transfers: list[Transfer]) -> FlowResult:
        return self.build(transfers).solve()

    def resolve(self, transfers: list[Transfer]) -> FlowResult:
        """Incrementally re-solve ``transfers`` over the live system.

        The fast path for repeated solves of one fixed workload (the
        fault campaign's probe streams): the first call builds the
        network from scratch; later calls reuse it, pushing the current
        layer capacities as delta operations so the incremental solver
        re-fills only the connected dirty region, or returns the cached
        allocation when no capacity moved (see ``docs/PERFORMANCE.md``).

        Routing is fingerprinted on the *policy*
        (:meth:`~repro.network.lnet.RoutingPolicy.fingerprint`) — by
        default the router-online bits, but adaptive policies fold in
        their own routing state and may dampen flaps.  When the
        fingerprint changes — routes the policy would pick no longer
        match the built network — the policy's balancing state is reset,
        every flow's route is chosen again in build order, and only the
        flows whose route moved are re-pathed in the kept network.  The
        next solve is then a from-scratch fill, so rates, bottlenecks
        and :attr:`solve_counts` are exactly what a fresh builder would
        produce.  When the set of unroutable flows changes the network
        is rebuilt instead.  Callers must pass the *same list object*
        between calls to stay on the fast path; a different list forces
        a rebuild.
        """
        fp = self.policy.fingerprint()
        net = self._net
        if net is None or transfers is not self._resolved_transfers:
            self.policy.reset()
            net = self.build(transfers)
            self._resolved_transfers = transfers
            self._util_ids = {}
        elif fp != self._routing_fp:
            self.policy.reset()
            routes = self._plan(transfers)
            if self._reroute(net, transfers, routes):
                self._refresh_capacities(net)
                net.invalidate()
            else:
                net = self._assemble(transfers, routes)
            # A re-route may register components the cached indices
            # predate (they would read 0.0 forever).
            self._util_ids = {}
        else:
            self._refresh_capacities(net)
        self._net = net
        self._routing_fp = fp
        result = net.solve()
        self._last_result = result
        return result

    def _refresh_capacities(self, net: FlowNetwork) -> None:
        """Push the current fault-movable capacities as delta operations.

        Mirrors :meth:`_register_static_components` for the layers whose
        capacity moves under faults: fabric cables (degrade/fail/repair),
        couplets (controller failover), and OSTs (disk state, fill
        level).  Router, OSS, client, switch, and torus-link capacities
        are spec constants and stay untouched.  The new values are
        compared against the network's capacities in one array read
        (component indices cached per network), and only the changed
        ones are pushed.
        """
        sys = self.system
        if self._refresh_ids is None:
            self._refresh_names = (
                [cable.component for cable in sys.fabric.cables]
                + [f"couplet:{i}" for i in range(len(sys.ssus))]
                + [ost.component for ost in sys.osts])
            self._refresh_ids = net.component_ids(self._refresh_names)
        caps = np.concatenate((
            sys.fabric.cable_capacities(),
            sys.couplet_caps(fs_level=self.fs_level),
            sys.ost_flow_capacities(fs_level=self.fs_level)))
        names = self._refresh_names
        for k in np.flatnonzero(caps != net.capacities(self._refresh_ids)
                                ).tolist():
            net.set_capacity(names[k], float(caps[k]))

    def router_usage(self) -> dict[str, int]:
        """Flows per router from the most recent route plan (a
        :meth:`build`, or a :meth:`resolve` that re-routed)."""
        return dict(self._router_usage)

    @property
    def solve_counts(self) -> dict[str, int]:
        """Cumulative solve counts across every network this builder made.

        Each rebuild swaps in a fresh :class:`FlowNetwork` whose counters
        start at zero; retired networks' counts are folded into a running
        base, so ``solve_counts["full"]`` is the builder-lifetime number
        of from-scratch solves — the quantity the flap-dampening
        regression bounds.
        """
        counts = dict(self._solve_counts_base)
        if self._net is not None:
            for kind, count in self._net.solve_counts.items():
                counts[kind] += count
        return counts

    # -- degraded-mode class caps -------------------------------------------------

    def set_class_cap(self, qos_class: str, capacity: float) -> None:
        """Cap the shared ``qos:<class>`` component (bytes/s).

        The backpressure degraded mode: capping a class sheds its load at
        one shared choke point without touching any route.  On a live
        resolved network this is a pure delta operation — the incremental
        solver re-fills only the region the cap dirties; the stored value
        also seeds any later rebuild.  ``math.inf`` removes the cap.
        """
        if capacity <= 0:
            raise ValueError("class cap must be positive")
        self._class_caps[qos_class] = float(capacity)
        comp = f"qos:{qos_class}"
        if self._net is not None and self._net.has_component(comp):
            self._net.set_capacity(comp, float(capacity))

    def link_utilizations(self, components) -> np.ndarray:
        """Utilization of each of ``components`` in the most recent
        resolve, as one array (0.0 where unknown) — the surface the
        overlay's routing probe group samples, so the adaptive policy
        observes solver outcomes only through the monitoring path
        (windowed, delayed, lossy), never directly.  The component
        indices are looked up once per component tuple and network."""
        key = tuple(components)
        result = self._last_result
        if result is None:
            return np.zeros(len(key))
        ids = self._util_ids.get(key)
        if ids is None:
            ids = self._util_ids[key] = result.component_ids(key)
        return result.utilizations(ids)

    def record_flow_telemetry(self, result: FlowResult, duration: float) -> None:
        """Attribute a solved allocation back to the layers it crossed.

        Converts each flow's steady-state rate over ``duration`` seconds
        into bytes and charges them to the router (``lnet.routed_bytes``),
        the OSS (``oss.bytes``), and the OST (``ost.write_bytes`` /
        ``ost.read_bytes``) it traversed — the per-layer counters the
        paper's external pollers (DDN tool, MELT-style aggregation) would
        observe.  No-op while telemetry is disabled, so un-traced runs
        skip the attribution walk entirely.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        # Aggregate locally, then touch each counter once per source — the
        # per-flow loop stays plain dict arithmetic on plain floats.
        rates = np.asarray(result.rates, dtype=float)
        valid = np.isfinite(rates) & (rates > 0)
        nbytes_all = np.where(valid, rates * duration, 0.0).tolist()
        router_bytes: dict[str, float] = {}
        oss_bytes: dict[str, float] = {}
        ost_bytes: dict[tuple[str, int], float] = {}
        for route, nbytes in zip(self._flow_routes, nbytes_all):
            if nbytes <= 0.0:
                continue
            router_name, oss_name, ost_index, is_write = route
            if router_name is not None:
                router_bytes[router_name] = (
                    router_bytes.get(router_name, 0.0) + nbytes)
            oss_bytes[oss_name] = oss_bytes.get(oss_name, 0.0) + nbytes
            metric = "ost.write_bytes" if is_write else "ost.read_bytes"
            ost_bytes[(metric, ost_index)] = (
                ost_bytes.get((metric, ost_index), 0.0) + nbytes)
        for router_name, nbytes in router_bytes.items():
            record_routed_bytes(router_name, nbytes)
        for router_name, n_selected in self._router_usage.items():
            telemetry.counter("lnet.selections", router_name).add(
                float(n_selected))
        for oss_name, nbytes in oss_bytes.items():
            telemetry.counter("oss.bytes", oss_name).add(nbytes)
        for (metric, ost_index), nbytes in ost_bytes.items():
            telemetry.counter(
                metric, self.system.osts[ost_index].component).add(nbytes)

    # -- analysis helpers ---------------------------------------------------------------

    def transfer_rates(
        self, result: FlowResult, transfers: list[Transfer],
        *, lockstep: bool = False,
    ) -> dict[str, float]:
        """Aggregate per-transfer rate from the per-OST flows.

        ``lockstep=False`` sums the stripes (streams progress
        independently).  ``lockstep=True`` models Lustre's synchronous
        striped-write behaviour — the file advances at ``stripe_count ×
        min(stripe rate)`` because RPCs round-robin the stripes in offset
        order — which is why one congested OST throttles a whole
        wide-striped file (the §VI-A placement-gain mechanism).
        """
        per_flow: dict[str, list[float]] = {t.name: [] for t in transfers}
        for name, rate in zip(result.flow_names, result.rates):
            tname = name.rsplit("->", 1)[0]
            per_flow[tname].append(float(rate))
        if not lockstep:
            return {name: sum(rates) for name, rates in per_flow.items()}
        return {
            name: (len(rates) * min(rates) if rates else 0.0)
            for name, rates in per_flow.items()
        }
