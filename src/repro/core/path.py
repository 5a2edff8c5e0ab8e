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
from repro.network.lnet import FineGrainedRouting, RoutingPolicy, record_routed_bytes
from repro.obs.instruments import get_telemetry

__all__ = ["Transfer", "PathBuilder"]


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
        #: flows dropped by the most recent build because no live router
        #: served their destination leaf (router failures, §IV-D)
        self.unroutable_flows = 0
        #: per-class capacity of the shared ``qos:<class>`` components
        #: (see :meth:`set_class_cap`); unlisted classes are uncapped
        self._class_caps: dict[str, float] = {}
        # incremental-resolve state (see resolve()): the built network,
        # the transfer list it was built for, and the routing-policy
        # fingerprint the routes were chosen under
        self._net: FlowNetwork | None = None
        self._resolved_transfers: list[Transfer] | None = None
        self._routing_fp: bytes | None = None
        self._last_result: FlowResult | None = None
        # link_utilizations' component indices into the network that
        # produced _last_result, keyed by component tuple; dropped when
        # resolve() rebuilds the network
        self._util_ids: dict[tuple[str, ...], np.ndarray] = {}
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

    def _torus_components(self, net: FlowNetwork, src, dst) -> list[str]:
        order = self.policy.axis_order(src, dst)
        comps = []
        for link in self.system.torus.route_links_ordered(src, dst, order):
            comp = self.system.torus.link_component(link)
            if not net.has_component(comp):
                net.add_component(comp, self.system.spec.torus.link_bw)
            comps.append(comp)
        return comps

    # -- network assembly ------------------------------------------------------------

    def build(self, transfers: list[Transfer]) -> FlowNetwork:
        """A flow network with one flow per (transfer, OST) pair.

        A flow whose destination leaf has no live router (every serving
        router failed) is dropped rather than built — the Lustre client
        simply cannot reach that OST — and counted in
        :attr:`unroutable_flows` (plus the ``flow.unroutable`` telemetry
        counter when enabled).
        """
        net = FlowNetwork()
        self._register_static_components(net)
        self._router_usage.clear()
        self._flow_routes.clear()
        self.unroutable_flows = 0
        # A build replaces the route tables, so any network resolve()
        # may be holding no longer matches them.  Fold its solve counts
        # into the base first so solve_counts stays cumulative.
        if self._net is not None:
            for kind, count in self._net.solve_counts.items():
                self._solve_counts_base[kind] += count
        self._net = None

        for t in transfers:
            client_comps = self._client_components(net, t.client)
            per_ost_demand = t.demand / len(t.ost_indices)
            for ost_index in t.ost_indices:
                ost = self.system.osts[ost_index]
                oss = self.system.oss_of_ost(ost_index)
                path = list(client_comps)
                router_name = None
                if t.client.on_torus:
                    try:
                        router = self.policy.select_router(
                            t.client.coord, oss.leaf)
                    except LookupError:
                        self.unroutable_flows += 1
                        telemetry = get_telemetry()
                        if telemetry.enabled:
                            telemetry.counter("flow.unroutable").add(1.0)
                        continue
                    router_name = router.name
                    self._router_usage[router.name] = (
                        self._router_usage.get(router.name, 0) + 1
                    )
                    if self.include_torus:
                        path += self._torus_components(
                            net, t.client.coord, router.coord
                        )
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
                flow_name = f"{t.name}->ost{ost_index}"
                self._flow_routes.append(
                    (router_name, oss.name, ost_index, t.write)
                )
                net.add_flow(flow_name, path, demand=per_ost_demand)
        return net

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
        match the built network — the policy's balancing state is reset
        and the network rebuilt, exactly what a fresh builder would
        produce.  Callers must pass the *same list object* between
        calls to stay on the fast path; a different list forces a
        rebuild.
        """
        fp = self.policy.fingerprint()
        if (self._net is None or transfers is not self._resolved_transfers
                or fp != self._routing_fp):
            self.policy.reset()
            self._net = self.build(transfers)
            self._resolved_transfers = transfers
            self._routing_fp = fp
            self._util_ids = {}
        else:
            self._refresh_capacities(self._net)
        result = self._net.solve()
        self._last_result = result
        return result

    def _refresh_capacities(self, net: FlowNetwork) -> None:
        """Push the current fault-movable capacities as delta operations.

        Mirrors :meth:`_register_static_components` for the layers whose
        capacity moves under faults: fabric cables (degrade/fail/repair),
        couplets (controller failover), and OSTs (disk state, fill
        level).  Router, OSS, client, switch, and torus-link capacities
        are spec constants and stay untouched; unchanged values are
        no-ops inside the network, dirtying nothing.
        """
        sys = self.system
        sys.fabric.refresh_components(net)
        for i, ssu in enumerate(sys.ssus):
            net.set_capacity(f"couplet:{i}",
                             ssu.couplet.bw_cap(fs_level=self.fs_level))
        ost_caps = sys.ost_flow_capacities(fs_level=self.fs_level)
        for ost, cap in zip(sys.osts, ost_caps):
            net.set_capacity(ost.component, float(cap))

    def router_usage(self) -> dict[str, int]:
        """Flows per router from the most recent :meth:`build`."""
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
