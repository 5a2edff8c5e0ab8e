"""RAID-6 (8+2) groups: geometry, lock-step performance, rebuilds, journals.

Spider II organizes its 20,160 drives into 2,016 RAID-6 arrays of 8 data +
2 parity drives; each array is exported as one Lustre OST (§V-A).

Performance coupling
--------------------
A full-stripe write touches every member, so a group streams at
``n_data × min(member bandwidth)`` — the *slowest member governs the
group*.  This min-of-N coupling is what makes the slow-disk tail so
damaging (Lesson 13) and is the analytical heart of the culling experiment:
with ~7.4% of drives slow, the probability that a 10-wide group contains at
least one slow member is ``1 - (1-0.074)^10 ≈ 54%``, so over half the OSTs
underperform until the tail is culled.

Failure model
-------------
RAID-6 tolerates two simultaneous member erasures.  A third concurrent
erasure fails the group; any dirty write-back journal entries at that
moment are lost (the 2010 incident lost journal data for >1e6 files).
Rebuild duration is ``capacity / rebuild_rate``; parity declustering (a
feature OLCF pushed vendors to add, §IV-A) spreads rebuild I/O over many
drives and shortens the window by ``declustering_speedup``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.hardware.disk import DiskPopulation
from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer
from repro.units import MB

__all__ = ["RaidGeometry", "RaidState", "UncleanTally", "RaidGroup",
           "group_bandwidths"]


@dataclass(frozen=True)
class RaidGeometry:
    """Stripe geometry of a RAID group."""

    n_data: int = 8
    n_parity: int = 2
    rebuild_rate: float = 50 * MB  # bytes/s of reconstructed data per rebuild
    declustering_speedup: float = 4.0  # parity declustering rebuild speedup

    def __post_init__(self) -> None:
        if self.n_data <= 0 or self.n_parity < 0:
            raise ValueError("invalid geometry")
        if self.rebuild_rate <= 0:
            raise ValueError("rebuild_rate must be positive")
        if self.declustering_speedup < 1:
            raise ValueError("declustering_speedup must be >= 1")

    @property
    def width(self) -> int:
        return self.n_data + self.n_parity

    @property
    def fault_tolerance(self) -> int:
        return self.n_parity

    def usable_fraction(self) -> float:
        return self.n_data / self.width

    def rebuild_time(self, capacity_bytes: int, *, declustered: bool = False) -> float:
        """Seconds to reconstruct one failed member."""
        rate = self.rebuild_rate * (self.declustering_speedup if declustered else 1.0)
        return capacity_bytes / rate


class RaidState(enum.Enum):
    """Redundancy state of one RAID group."""

    CLEAN = "clean"
    DEGRADED = "degraded"  # erasures <= tolerance, redundancy reduced
    REBUILDING = "rebuilding"
    FAILED = "failed"  # erasures > tolerance: data loss


@dataclass
class JournalState:
    """Write-back journal of a RAID group (high-performance Lustre
    journaling was one of the OLCF-funded Lustre features, §IV-D)."""

    dirty_files: int = 0  # files with journal entries not yet committed
    lost_files: int = 0  # cumulative files whose journal data was lost

    def stage(self, n_files: int) -> None:
        if n_files < 0:
            raise ValueError("n_files must be non-negative")
        self.dirty_files += n_files

    def commit(self) -> int:
        committed, self.dirty_files = self.dirty_files, 0
        return committed

    def lose(self) -> int:
        lost, self.dirty_files = self.dirty_files, 0
        self.lost_files += lost
        return lost


class UncleanTally:
    """How many of a set of RAID groups are not CLEAN.

    The groups that share a tally keep it themselves on every state
    change, so an owner (an :class:`~repro.hardware.ssu.Ssu`) reads one
    integer instead of walking its groups.  It holds no reference back
    to the owner, so the owner and its groups form no reference cycle.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class RaidGroup:
    """One RAID-6 array over specific members of a :class:`DiskPopulation`."""

    def __init__(
        self,
        geometry: RaidGeometry,
        population: DiskPopulation,
        members: list[int] | np.ndarray,
        *,
        name: str = "raid",
        declustered: bool = False,
        tally: UncleanTally | None = None,
    ) -> None:
        members = list(int(m) for m in members)
        if len(members) != geometry.width:
            raise ValueError(
                f"group needs {geometry.width} members, got {len(members)}"
            )
        if len(set(members)) != len(members):
            raise ValueError("duplicate members in RAID group")
        self.geometry = geometry
        self.population = population
        self.members = members
        self.name = name
        self.declustered = declustered
        #: member positions currently erased (failed disk or offline shelf)
        self.erased: set[int] = set()
        #: member positions being rebuilt (subset of positions *not* erased
        #: that have not finished reconstruction)
        self.rebuilding: set[int] = set()
        self.journal = JournalState()
        self.data_lost = False
        #: open rebuild trace spans keyed by member position
        self._rebuild_spans: dict[int, object] = {}
        #: counts this group while it is not CLEAN (see :meth:`_recount`)
        self.tally = tally

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> RaidState:
        if self.data_lost:
            return RaidState.FAILED
        if self.erased:
            if len(self.erased) > self.geometry.fault_tolerance:
                return RaidState.FAILED
            return RaidState.DEGRADED
        if self.rebuilding:
            return RaidState.REBUILDING
        return RaidState.CLEAN

    @property
    def clean(self) -> bool:
        """``state is RaidState.CLEAN``, without building the state."""
        return not (self.data_lost or self.erased or self.rebuilding)

    def _recount(self, was_clean: bool) -> None:
        """Move this group in or out of its tally after a state change;
        every writer of ``erased``, ``rebuilding`` or ``data_lost`` calls
        this."""
        if self.tally is not None and self.clean != was_clean:
            self.tally.count += 1 if was_clean else -1

    @property
    def effective_erasures(self) -> int:
        """Erased plus still-rebuilding members — both lack redundancy."""
        return len(self.erased | self.rebuilding)

    def erase_member(self, position: int) -> None:
        """A member becomes unavailable (disk failure or enclosure outage).

        Crossing the fault-tolerance threshold marks the group failed and
        loses the dirty journal.
        """
        if not 0 <= position < self.geometry.width:
            raise IndexError(position)
        was_clean = self.clean
        self.erased.add(position)
        if self.effective_erasures > self.geometry.fault_tolerance and not self.data_lost:
            self.data_lost = True
            self.journal.lose()
        self._recount(was_clean)

    def restore_member(self, position: int, *, rebuilt: bool = False) -> None:
        """A member comes back (shelf back online, or disk replaced).

        Unless ``rebuilt`` is true the member re-enters in rebuilding state:
        its contents must be reconstructed before it provides redundancy.
        """
        was_clean = self.clean
        self.erased.discard(position)
        if not rebuilt and not self.data_lost:
            self.rebuilding.add(position)
            tracer = get_tracer()
            if tracer.enabled and position not in self._rebuild_spans:
                self._rebuild_spans[position] = tracer.open(
                    f"rebuild:{self.name}[{position}]", "raid",
                    group=self.name, position=position,
                    declustered=self.declustered)
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("raid.rebuilds_started", self.name).add(1.0)
        self._recount(was_clean)

    def finish_rebuild(self, position: int) -> None:
        was_clean = self.clean
        self.rebuilding.discard(position)
        self._recount(was_clean)
        handle = self._rebuild_spans.pop(position, None)
        if handle is not None:
            get_tracer().end(handle)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("raid.rebuilds_finished", self.name).add(1.0)

    def rebuild_time(self) -> float:
        """Seconds to rebuild one member of this group."""
        return self.geometry.rebuild_time(
            self.population.spec.capacity_bytes, declustered=self.declustered
        )

    # -- capacity & performance ------------------------------------------------

    @property
    def usable_capacity(self) -> int:
        return self.geometry.n_data * self.population.spec.capacity_bytes

    def streaming_bandwidth(self, *, fs_level: bool = False) -> float:
        """Full-stripe streaming bandwidth: ``n_data × min(member bw)``.

        A failed group moves no data; a degraded/rebuilding group pays a
        reconstruction penalty (reads must regenerate missing strips).
        """
        if self.state is RaidState.FAILED:
            return 0.0
        member_bw = self.population.bandwidths(fs_level=fs_level)[self.members]
        available = np.delete(member_bw, list(self.erased)) if self.erased else member_bw
        if available.size == 0:
            return 0.0
        bw = self.geometry.n_data * float(available.min())
        if self.state in (RaidState.DEGRADED, RaidState.REBUILDING):
            bw *= 0.6  # reconstruction overhead while redundancy is reduced
        return bw


def group_bandwidths(
    members_matrix: np.ndarray,
    disk_bandwidths: np.ndarray,
    n_data: int = 8,
) -> np.ndarray:
    """Vectorized streaming bandwidth for many RAID groups at once.

    ``members_matrix`` is ``(n_groups, width)`` of disk indices;
    ``disk_bandwidths`` is per-disk delivered bandwidth.  Returns the
    ``n_data × min-over-members`` law for every group — the fast path used
    by the culling experiment over all 2,016 Spider II groups.
    """
    members_matrix = np.asarray(members_matrix, dtype=int)
    if members_matrix.ndim != 2:
        raise ValueError("members_matrix must be 2-D (n_groups, width)")
    per_member = disk_bandwidths[members_matrix]
    return n_data * per_member.min(axis=1)
