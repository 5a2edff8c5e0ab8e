"""A SION-like InfiniBand storage area network.

Spider II's fabric (§V-B) is *decentralized*: 36 leaf switches — one per
SSU — plus a layer of core switches.  Each SSU's eight OSSes plug into its
leaf switch; each Lustre I/O router plugs into exactly one leaf switch.
Traffic between a router and an OSS on the *same* leaf stays on the leaf
(one switch crossing); traffic to any other leaf must traverse a core
switch (leaf → core → leaf), which is precisely the cost fine-grained
routing avoids.

The fabric also models the operational failure modes the monitoring section
cares about: per-cable error counters and degraded ("flapping") cables that
drop a link's effective bandwidth without killing it — the "single cable
failures can cause performance degradation" case of §IV-A.

Component naming (for the flow solver):

* ``ibport:<leaf>/<port>`` — a host cable into leaf switch ``leaf``;
* ``ibleaf:<leaf>`` — leaf switch crossbar;
* ``ibup:<leaf>`` — aggregate leaf→core uplink trunk;
* ``ibcore:<k>`` — core switch crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.flow import FlowNetwork

__all__ = ["FabricSpec", "Cable", "InfinibandFabric"]


@dataclass(frozen=True)
class FabricSpec:
    """Geometry and capability of the SAN."""

    n_leaf_switches: int = 36
    n_core_switches: int = 4
    port_bw: float = 6.0 * GB  # FDR-class host port, bytes/s
    leaf_crossbar_bw: float = 160 * GB  # leaf switching capacity
    #: leaf->core trunk aggregate.  Deliberately thin: the decentralized
    #: SION design provisions modest inter-leaf bandwidth because FGR keeps
    #: storage traffic on the destination leaf; routing policies that
    #: bounce traffic through the core (E9's naive baseline) saturate it.
    uplink_bw_per_leaf: float = 12 * GB
    core_crossbar_bw: float = 500 * GB

    def __post_init__(self) -> None:
        if self.n_leaf_switches <= 0 or self.n_core_switches <= 0:
            raise ValueError("switch counts must be positive")
        for bw in (self.port_bw, self.leaf_crossbar_bw,
                   self.uplink_bw_per_leaf, self.core_crossbar_bw):
            if bw <= 0:
                raise ValueError("bandwidths must be positive")


@dataclass
class Cable:
    """One host cable: a port on a leaf switch."""

    leaf: int
    port: int
    host: str  # owning host name (router or OSS)
    degradation: float = 1.0  # multiplier on port bandwidth (1 = healthy)
    symbol_errors: int = 0  # counter surfaced to the IB monitor
    link_downs: int = 0

    @property
    def component(self) -> str:
        return f"ibport:{self.leaf}/{self.port}"

    @property
    def healthy(self) -> bool:
        return self.degradation >= 0.999


class InfinibandFabric:
    """The SAN: leaf switches, core switches, and host cables."""

    def __init__(self, spec: FabricSpec | None = None) -> None:
        self.spec = spec or FabricSpec()
        self._cables: dict[tuple[int, int], Cable] = {}
        self._next_port: list[int] = [0] * self.spec.n_leaf_switches
        self._host_cable: dict[str, Cable] = {}

    # -- topology construction ---------------------------------------------------

    def attach_host(self, host: str, leaf: int) -> Cable:
        """Plug ``host`` into leaf switch ``leaf``; returns its cable."""
        if not 0 <= leaf < self.spec.n_leaf_switches:
            raise ValueError(f"leaf {leaf} out of range")
        if host in self._host_cable:
            raise ValueError(f"host {host!r} already attached")
        port = self._next_port[leaf]
        self._next_port[leaf] += 1
        cable = Cable(leaf=leaf, port=port, host=host)
        self._cables[(leaf, port)] = cable
        self._host_cable[host] = cable
        return cable

    def cable_of(self, host: str) -> Cable:
        return self._host_cable[host]

    def leaf_of(self, host: str) -> int:
        return self._host_cable[host].leaf

    @property
    def cables(self) -> list[Cable]:
        return list(self._cables.values())

    # -- path construction --------------------------------------------------------

    def core_for(self, src_leaf: int, dst_leaf: int) -> int:
        """Deterministic core-switch choice for a leaf pair (static LMC-style
        spreading: pair-hashed round robin)."""
        return (src_leaf * 31 + dst_leaf) % self.spec.n_core_switches

    def path_components(self, src_host: str, dst_host: str) -> list[str]:
        """Flow-solver components crossed from one host to another."""
        a = self._host_cable[src_host]
        b = self._host_cable[dst_host]
        comps = [a.component, f"ibleaf:{a.leaf}"]
        if a.leaf != b.leaf:
            core = self.core_for(a.leaf, b.leaf)
            comps += [
                f"ibup:{a.leaf}",
                f"ibcore:{core}",
                f"ibup:{b.leaf}",
                f"ibleaf:{b.leaf}",
            ]
        comps.append(b.component)
        return comps

    def crossings(self, src_host: str, dst_host: str) -> int:
        """Switch crossings: 1 intra-leaf, 3 via core (the FGR cost model)."""
        return 1 if self.leaf_of(src_host) == self.leaf_of(dst_host) else 3

    # -- capacities for the flow solver --------------------------------------------

    def register_components(self, net: "FlowNetwork") -> None:
        """Add every fabric component to a :class:`FlowNetwork`."""
        for cable in self._cables.values():
            net.add_component(cable.component, self.spec.port_bw * cable.degradation)
        for leaf in range(self.spec.n_leaf_switches):
            net.add_component(f"ibleaf:{leaf}", self.spec.leaf_crossbar_bw)
            net.add_component(f"ibup:{leaf}", self.spec.uplink_bw_per_leaf)
        for k in range(self.spec.n_core_switches):
            net.add_component(f"ibcore:{k}", self.spec.core_crossbar_bw)

    def cable_capacities(self) -> np.ndarray:
        """Every cable's current capacity, in :attr:`cables` order.

        The delta counterpart of :meth:`register_components` for
        incremental re-solves: only cable capacities move under faults
        (degrade/fail/repair set ``degradation``); switch crossbars and
        uplinks are spec constants.
        """
        return self.spec.port_bw * np.fromiter(
            (cable.degradation for cable in self._cables.values()),
            dtype=float, count=len(self._cables))

    # -- fault injection -------------------------------------------------------------

    def degrade_cable(self, host: str, factor: float, symbol_errors: int = 1000) -> None:
        """A flapping/marginal cable: bandwidth × ``factor``, errors accrue."""
        if not 0 < factor <= 1:
            raise ValueError("factor must be in (0, 1]")
        cable = self._host_cable[host]
        cable.degradation = factor
        cable.symbol_errors += symbol_errors

    def fail_cable(self, host: str) -> None:
        cable = self._host_cable[host]
        cable.degradation = 0.0
        cable.link_downs += 1

    def repair_cable(self, host: str) -> None:
        cable = self._host_cable[host]
        cable.degradation = 1.0

    def error_counters(self) -> dict[str, tuple[int, int]]:
        """Host → (symbol_errors, link_downs), the IB-monitor view."""
        return {
            host: (c.symbol_errors, c.link_downs)
            for host, c in self._host_cable.items()
        }
