"""Builders for the Spider I and Spider II center-wide file systems.

Every count below is pinned to the paper:

Spider II (§V): 36 SSUs, 20,160 × 2 TB NL-SAS drives, RAID-6 (8+2) ⇒ 2,016
OSTs, 288 OSS nodes (8 per SSU, 7 OSTs each), 36 InfiniBand leaf switches,
440 I/O routers (110 modules of 4), 18,688 Titan clients, 2 namespaces of
1,008 OSTs, >1 TB/s block-level, 32 PB raw / >30 PB formatted.

Spider I (§I, §IV-E): 48 couplets of 280 × 1 TB drives in **five**
enclosures each (the incident geometry), 1,344 OSTs, 192 OSSes, 4
namespaces, 240 GB/s, 10 PB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.controller import ControllerSpec
from repro.hardware.disk import DiskPopulation, DiskSpec
from repro.hardware.raid import group_bandwidths
from repro.hardware.ssu import Ssu, SsuSpec
from repro.lustre.client import Client
from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.mds import MdsSpec, MetadataServer
from repro.lustre.oss import Oss, OssSpec
from repro.lustre.ost import Ost, OstSpec
from repro.network.infiniband import FabricSpec, InfinibandFabric
from repro.network.lnet import LnetConfig, RouterInfo
from repro.network.torus import Torus3D, TorusSpec
from repro.core.placement import (
    Placement,
    PlacementSpec,
    evenly_spaced_placement,
)
from repro.sim.rng import RngStreams
from repro.units import GB, MB, TB

__all__ = ["SpiderSpec", "SpiderSystem", "build_spider2", "build_spider1", "SPIDER1", "SPIDER2"]


@dataclass(frozen=True)
class SpiderSpec:
    """Full configuration of a Spider-class deployment."""

    name: str = "spider2"
    n_ssus: int = 36
    ssu: SsuSpec = field(default_factory=SsuSpec)
    n_namespaces: int = 2
    namespace_prefix: str = "atlas"
    oss: OssSpec = field(default_factory=OssSpec)
    mds: MdsSpec = field(default_factory=MdsSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    torus: TorusSpec = field(default_factory=TorusSpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    n_compute_nodes: int = 18_688
    router_bw_cap: float = 2.8 * GB  # XK7 service-node router throughput
    client_bw_cap: float = 1.4 * GB  # per compute node, Lustre client stack

    def __post_init__(self) -> None:
        if self.n_ssus % self.n_namespaces != 0:
            raise ValueError("SSUs must divide evenly into namespaces")
        if self.ssu.n_groups % self.oss.n_osts != 0:
            raise ValueError("SSU OST count must divide evenly across OSSes")
        if self.fabric.n_leaf_switches < self.n_ssus:
            raise ValueError("need at least one leaf switch per SSU")
        if self.placement.n_leaves != self.fabric.n_leaf_switches:
            raise ValueError("placement leaf count must match fabric")

    @property
    def osses_per_ssu(self) -> int:
        return self.ssu.n_groups // self.oss.n_osts

    @property
    def n_osts(self) -> int:
        return self.n_ssus * self.ssu.n_groups

    @property
    def n_osses(self) -> int:
        return self.n_ssus * self.osses_per_ssu

    @property
    def n_disks(self) -> int:
        return self.n_ssus * self.ssu.n_disks


#: Spider II, paper-calibrated.
SPIDER2 = SpiderSpec()

#: Spider I: 48 couplets, five enclosures each, 1 TB drives, 240 GB/s.
SPIDER1 = SpiderSpec(
    name="spider1",
    n_ssus=48,
    ssu=SsuSpec(
        n_enclosures=5,
        disks_per_enclosure=56,
        disk=DiskSpec(capacity_bytes=1 * TB, seq_bw=100 * MB, name="sata-1tb"),
        controller=ControllerSpec(
            block_bw_cap=2.8 * GB,
            fs_bw_cap=2.5 * GB,
            upgraded_fs_bw_cap=2.5 * GB,
        ),
    ),
    n_namespaces=4,
    namespace_prefix="widow",
    oss=OssSpec(node_bw_cap=3.0 * GB, n_osts=7),
    fabric=FabricSpec(n_leaf_switches=48),
    placement=PlacementSpec(n_modules=96, routers_per_module=4, n_leaves=48),
    n_compute_nodes=18_688,
)


class SpiderSystem:
    """A fully built Spider deployment: hardware + fabric + Lustre."""

    def __init__(
        self,
        spec: SpiderSpec,
        *,
        seed: int = 2014,
        placement: Placement | None = None,
        build_clients: bool = True,
    ) -> None:
        self.spec = spec
        self.rng = RngStreams(seed)
        self.population = DiskPopulation(spec.n_disks, spec.ssu.disk, rng=self.rng)
        self.ssus = [
            Ssu(spec.ssu, self.population, i * spec.ssu.n_disks, index=i)
            for i in range(spec.n_ssus)
        ]
        self.torus = Torus3D(spec.torus)
        self.fabric = InfinibandFabric(spec.fabric)
        self.placement = placement or evenly_spaced_placement(
            spec.placement, dims=spec.torus.dims)
        self.routers: list[RouterInfo] = list(self.placement.routers)

        # Attach routers to their leaves.
        for r in self.routers:
            self.fabric.attach_host(r.name, r.leaf)

        # OSS nodes: 8 per SSU, on the SSU's leaf switch (leaf = SSU index).
        self.osses: list[Oss] = []
        self.osts: list[Ost] = []
        ost_capacity = spec.ssu.raid.n_data * spec.ssu.disk.capacity_bytes
        for ssu in self.ssus:
            for j in range(spec.osses_per_ssu):
                oss_name = f"oss{ssu.index:02d}{chr(ord('a') + j)}"
                ost_indices = [
                    ssu.index * spec.ssu.n_groups + j * spec.oss.n_osts + k
                    for k in range(spec.oss.n_osts)
                ]
                oss = Oss(
                    oss_name,
                    spec.oss,
                    ssu_index=ssu.index,
                    leaf=ssu.index % spec.fabric.n_leaf_switches,
                    ost_indices=ost_indices,
                )
                self.osses.append(oss)
                self.fabric.attach_host(oss_name, oss.leaf)
                for k, ost_index in enumerate(ost_indices):
                    self.osts.append(
                        Ost(
                            ost_index,
                            OstSpec(capacity_bytes=ost_capacity),
                            ssu_index=ssu.index,
                            group_index=j * spec.oss.n_osts + k,
                            oss_name=oss_name,
                        )
                    )
        self.osts.sort(key=lambda o: o.index)
        self._oss_by_name = {oss.name: oss for oss in self.osses}

        # Namespaces: contiguous SSU ranges.
        self.filesystems: dict[str, LustreFilesystem] = {}
        ssus_per_ns = spec.n_ssus // spec.n_namespaces
        osts_per_ns = ssus_per_ns * spec.ssu.n_groups
        for ns in range(spec.n_namespaces):
            fs_name = f"{spec.namespace_prefix}{ns + 1}"
            fs_osts = self.osts[ns * osts_per_ns:(ns + 1) * osts_per_ns]
            self.filesystems[fs_name] = LustreFilesystem(
                fs_name, fs_osts, MetadataServer(spec.mds, name=f"{fs_name}-mds")
            )

        self.lnet = LnetConfig(self.torus, self.fabric, self.routers)

        # Titan clients: two per torus node, skipping router-module nodes.
        self.clients: list[Client] = []
        if build_clients:
            module_coords = set(self.placement.module_coords)
            node_id = 0
            for coord in self.torus.all_coords():
                if coord in module_coords:
                    continue
                if node_id * 2 >= spec.n_compute_nodes:
                    break
                for half in range(2):
                    idx = node_id * 2 + half
                    if idx >= spec.n_compute_nodes:
                        break
                    self.clients.append(
                        Client(
                            name=f"nid{idx:05d}",
                            coord=coord,
                            bw_cap=spec.client_bw_cap,
                        )
                    )
                node_id += 1
            if len(self.clients) < spec.n_compute_nodes:
                raise ValueError("torus too small for the requested client count")

    # -- lookup -----------------------------------------------------------------

    def oss_of_ost(self, ost_index: int) -> Oss:
        return self._oss_by_name[self.osts[ost_index].oss_name]

    def filesystem_of_ost(self, ost_index: int) -> LustreFilesystem:
        osts_per_ns = self.spec.n_osts // self.spec.n_namespaces
        ns = ost_index // osts_per_ns
        return list(self.filesystems.values())[ns]

    # -- vectorized performance views ----------------------------------------------

    def raw_ost_bandwidths(self, *, fs_level: bool = False) -> np.ndarray:
        """Block-level streaming bandwidth of every OST's RAID group —
        *without* the couplet cap (the flow solver applies couplets as
        separate components).  RAID redundancy state is applied: erased
        members are reconstructed around, degraded/rebuilding groups pay
        the reconstruction penalty, failed groups deliver nothing — so
        fault campaigns surface directly in flow solves."""
        disk_bw = self.population.bandwidths(fs_level=fs_level)
        chunks = [ssu.group_raw_bandwidths(disk_bw) for ssu in self.ssus]
        return np.concatenate(chunks)

    def ost_flow_capacities(self, *, fs_level: bool = True) -> np.ndarray:
        """Per-OST capacity for the flow solver: raw group bandwidth, with
        obdfilter overhead and fill penalty applied at the fs level."""
        raw = self.raw_ost_bandwidths(fs_level=fs_level)
        if not fs_level:
            return raw
        from repro.lustre.ost import fill_penalty  # local to avoid cycle

        eff = np.array([o.spec.obdfilter_efficiency for o in self.osts])
        fills = np.array([o.fill_fraction for o in self.osts])
        return raw * eff * fill_penalty(fills)

    def couplet_caps(self, *, fs_level: bool = True) -> np.ndarray:
        return np.array(
            [ssu.couplet.bw_cap(fs_level=fs_level) for ssu in self.ssus]
        )

    def upgrade_controllers(self) -> None:
        """Apply the 2014 controller CPU/memory upgrade to every SSU."""
        for ssu in self.ssus:
            ssu.couplet.upgrade()

    # -- headline aggregates --------------------------------------------------------

    def aggregate_bandwidth(self, *, fs_level: bool = False) -> float:
        """Layered aggregate: per SSU, min(sum of group bandwidth, couplet
        cap); summed over SSUs.  This is the paper's hero-number estimate."""
        total = 0.0
        disk_bw = self.population.bandwidths(fs_level=fs_level)
        for ssu in self.ssus:
            raw = group_bandwidths(
                ssu.members_matrix, disk_bw, self.spec.ssu.raid.n_data
            ).sum()
            total += min(float(raw), ssu.couplet.bw_cap(fs_level=fs_level))
        return total

    def total_capacity_bytes(self) -> int:
        return sum(o.spec.capacity_bytes for o in self.osts)

    def inventory(self) -> dict[str, int | float | str]:
        """The Figure 1 component inventory."""
        return {
            "system": self.spec.name,
            "ssus": self.spec.n_ssus,
            "disks": self.spec.n_disks,
            "osts": self.spec.n_osts,
            "osses": self.spec.n_osses,
            "routers": len(self.routers),
            "leaf_switches": self.spec.fabric.n_leaf_switches,
            "namespaces": self.spec.n_namespaces,
            "clients": len(self.clients),
            "capacity_bytes": self.total_capacity_bytes(),
        }


def build_spider2(
    *, seed: int = 2014, build_clients: bool = True, spec: SpiderSpec | None = None
) -> SpiderSystem:
    """The Spider II system as deployed (pre-controller-upgrade)."""
    return SpiderSystem(spec or SPIDER2, seed=seed, build_clients=build_clients)


def build_spider1(
    *, seed: int = 2008, build_clients: bool = True, spec: SpiderSpec | None = None
) -> SpiderSystem:
    """The Spider I system (five-enclosure couplets — the incident geometry)."""
    return SpiderSystem(spec or SPIDER1, seed=seed, build_clients=build_clients)
