"""The Scalable System Unit (SSU): the procurement and integration
building block of the Spider II acquisition (§III-A).

"the procurement focused on the Scalable System Unit (SSU), a storage
building block composed of a vendor-defined set of storage devices suitable
for integration as an independent storage system.  The SOW defined the SSU
as the unit of configuration, pricing, benchmarking, and integration."

A Spider II SSU is modelled as: one controller couplet, ten drive shelves
of 56 drives (560 drives), organized as 56 RAID-6 (8+2) groups — one member
per shelf, the post-incident enclosure geometry.  36 SSUs give the paper's
20,160 drives and 2,016 OSTs.  The Spider I-era geometry (five shelves, two
members per shelf) is available via ``enclosures_per_ssu=5`` for the
incident replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.controller import ControllerCouplet, ControllerSpec
from repro.hardware.disk import DiskPopulation, DiskSpec
from repro.hardware.enclosure import EnclosureGroup
from repro.hardware.raid import (
    RaidGeometry,
    RaidGroup,
    RaidState,
    UncleanTally,
    group_bandwidths,
)

__all__ = ["SsuSpec", "Ssu"]


@dataclass(frozen=True)
class SsuSpec:
    """Configuration + pricing of one SSU (pricing in normalized units)."""

    n_enclosures: int = 10
    disks_per_enclosure: int = 56
    raid: RaidGeometry = field(default_factory=RaidGeometry)
    disk: DiskSpec = field(default_factory=DiskSpec)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    price: float = 1.0  # normalized capital cost per SSU
    power_kw: float = 22.0
    rack_units: int = 48

    def __post_init__(self) -> None:
        total = self.n_enclosures * self.disks_per_enclosure
        if total % self.raid.width != 0:
            raise ValueError(
                f"SSU of {total} drives not divisible into RAID width {self.raid.width}"
            )

    @property
    def n_disks(self) -> int:
        return self.n_enclosures * self.disks_per_enclosure

    @property
    def n_groups(self) -> int:
        return self.n_disks // self.raid.width

    @property
    def usable_capacity(self) -> int:
        return self.n_groups * self.raid.n_data * self.disk.capacity_bytes

    def nominal_block_bandwidth(self) -> float:
        """Expected block-level streaming bandwidth: the lesser of the raw
        RAID aggregate and the couplet cap (Lesson 12's layered min)."""
        raw = self.n_groups * self.raid.n_data * self.disk.seq_bw
        return min(raw, 2 * self.controller.block_bw_cap)


class Ssu:
    """A built SSU: drives + shelves + RAID groups + couplet.

    The SSU owns a contiguous index range ``[first_disk, first_disk +
    n_disks)`` inside a shared :class:`DiskPopulation`, so center-wide
    operations (culling across all 20,160 drives) stay vectorized.
    """

    def __init__(
        self,
        spec: SsuSpec,
        population: DiskPopulation,
        first_disk: int,
        *,
        index: int = 0,
        name: str | None = None,
    ) -> None:
        if first_disk < 0 or first_disk + spec.n_disks > population.n_disks:
            raise ValueError("SSU disk range outside population")
        self.spec = spec
        self.population = population
        self.first_disk = first_disk
        self.index = index
        self.name = name or f"ssu{index:02d}"

        self.enclosures = EnclosureGroup(
            n_enclosures=spec.n_enclosures,
            disks_per_enclosure=spec.disks_per_enclosure,
            raid_width=spec.raid.width,
            first_disk_index=first_disk,
        )
        self.couplet = ControllerCouplet(
            spec.controller, n_groups=spec.n_groups, name=f"{self.name}.couplet"
        )
        self._unclean = UncleanTally()
        self.groups = [
            RaidGroup(
                spec.raid,
                population,
                self.enclosures.group_members[g],
                name=f"{self.name}.ost{g:02d}",
                declustered=True,
                tally=self._unclean,
            )
            for g in range(spec.n_groups)
        ]
        #: (n_groups, width) member-index matrix for vectorized evaluation
        self.members_matrix = np.array(self.enclosures.group_members, dtype=int)

    @property
    def n_groups(self) -> int:
        return self.spec.n_groups

    def disk_indices(self) -> np.ndarray:
        return np.arange(self.first_disk, self.first_disk + self.spec.n_disks)

    @property
    def n_unclean(self) -> int:
        """RAID groups whose state is not CLEAN, kept by the groups' own
        state changes (one integer read, not a walk)."""
        return self._unclean.count

    # -- performance ----------------------------------------------------------

    def group_state_factors(self) -> np.ndarray:
        """Per-group redundancy-state multiplier: 1 clean, 0.6 while
        degraded/rebuilding (reconstruction competes with host I/O), 0 for
        a failed group (it moves nothing)."""
        if not self.n_unclean:
            return np.ones(self.spec.n_groups)
        return np.array([
            0.0 if g.state is RaidState.FAILED
            else (0.6 if g.state in (RaidState.DEGRADED, RaidState.REBUILDING)
                  else 1.0)
            for g in self.groups
        ])

    def group_raw_bandwidths(self, disk_bw: np.ndarray) -> np.ndarray:
        """Per-group raw streaming bandwidth with redundancy state applied.

        Like :func:`repro.hardware.raid.group_bandwidths` but state-aware:
        erased members (failed drives, offline shelves) are excluded from
        the min-of-members law — the group reconstructs around them — and
        the degraded/rebuilding/failed state factor is applied on top.  For
        an all-clean SSU this reduces exactly to the vectorized law.
        """
        per_member = disk_bw[self.members_matrix]
        if not self.n_unclean:
            return self.spec.raid.n_data * per_member.min(axis=1)
        erased_any = False
        for g, group in enumerate(self.groups):
            if group.erased:
                per_member[g, list(group.erased)] = np.inf
                erased_any = True
        raw = self.spec.raid.n_data * per_member.min(axis=1)
        state = self.group_state_factors()
        if erased_any:
            # A fully-erased (failed) group would leave inf×0; force to 0.
            return np.where(state > 0.0, raw * state, 0.0)
        return raw * state

    def group_streaming_bandwidths(self, *, fs_level: bool = False) -> np.ndarray:
        """Per-RAID-group streaming bandwidth, capped by the couplet share.

        Applies the min-of-members RAID law, each group's redundancy state
        (degraded/rebuilding groups pay the reconstruction penalty, failed
        groups move nothing), and then the controller fair share — the
        layered view of Lesson 12 inside an SSU.
        """
        disk_bw = self.population.bandwidths(fs_level=fs_level)
        raw = group_bandwidths(self.members_matrix, disk_bw, self.spec.raid.n_data)
        caps = self.couplet.group_share_caps(fs_level=fs_level)
        # Reconstruction I/O competes with host I/O through the whole group
        # path (spindles AND controller), so the penalty applies to the
        # delivered share, not only to the raw spindle rate.
        return np.minimum(raw, caps) * self.group_state_factors()

    def aggregate_bandwidth(self, *, fs_level: bool = False) -> float:
        return float(self.group_streaming_bandwidths(fs_level=fs_level).sum())

    def apply_enclosure_outage(self, enclosure: int) -> None:
        """Take one shelf offline, erasing the affected member of every
        group (two members per group in the 5-shelf Spider I geometry)."""
        self.enclosures.set_enclosure_online(enclosure, False)
        for g, group in enumerate(self.groups):
            for pos, enc in enumerate(self.enclosures.member_enclosure[g]):
                if enc == enclosure:
                    group.erase_member(pos)

    def restore_enclosure(self, enclosure: int) -> None:
        """Bring a shelf back; returning members must rebuild."""
        self.enclosures.set_enclosure_online(enclosure, True)
        for g, group in enumerate(self.groups):
            for pos, enc in enumerate(self.enclosures.member_enclosure[g]):
                if enc == enclosure:
                    group.restore_member(pos)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Ssu({self.name}, disks={self.spec.n_disks}, "
            f"groups={self.spec.n_groups})"
        )
