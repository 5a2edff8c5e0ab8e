"""Fault plans: composable, seed-deterministic campaign schedules.

A :class:`FaultPlan` is an immutable, time-sorted collection of
:class:`~repro.faults.events.PlannedFault` occurrences.  Plans compose with
``+`` and shift in time with :meth:`FaultPlan.shift`, so a complex campaign
is built from small named pieces — exactly how the paper's operational
history reads: overlapping episodes of unrelated component failures.

Three sources of plans:

* :meth:`FaultPlan.random` — a seeded random campaign over a built system,
  the "week in the life" background failure load (the same seed always
  yields the same plan, byte for byte);
* :func:`cable_failure_scenario` — the §IV-A single-cable case: a marginal
  OSS cable degrades, then fails outright, then is re-seated;
* :func:`incident_2010_scenario` — the 2010 DDN enclosure incident (§IV-E)
  as a plan: a disk failure with its rebuild in flight, a controller
  failover minutes later, and the enclosure drop eighteen hours in.  On the
  Spider I five-shelf geometry (two RAID members per shelf) the enclosure
  drop pushes the already-degraded group past RAID-6 tolerance — the
  journal-loss mechanism of the real incident.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.core.spider import SpiderSystem
from repro.faults.events import FaultClass, PlannedFault
from repro.sim.rng import RngStreams
from repro.units import HOUR

__all__ = ["FaultPlan", "cable_failure_scenario", "incident_2010_scenario",
           "flapping_router_scenario"]


class FaultPlan:
    """An immutable, time-ordered schedule of planned faults."""

    def __init__(self, faults: Iterable[PlannedFault] = ()) -> None:
        self.faults: tuple[PlannedFault, ...] = tuple(sorted(faults))

    def __iter__(self) -> Iterator[PlannedFault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + other.faults)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.faults == other.faults

    def __hash__(self) -> int:
        return hash(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({len(self.faults)} faults, end={self.end:g}s)"

    def shift(self, dt: float) -> "FaultPlan":
        """The same plan, ``dt`` seconds later (for composing episodes)."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        return FaultPlan(
            PlannedFault(f.time + dt, f.fault, f.target, f.duration, f.magnitude)
            for f in self.faults
        )

    @property
    def end(self) -> float:
        """Latest scheduled event time (injection or finite repair)."""
        times = [
            f.repair_time if math.isfinite(f.repair_time) else f.time
            for f in self.faults
        ]
        return max(times, default=0.0)

    # -- random campaigns ------------------------------------------------------

    @classmethod
    def random(
        cls,
        system: SpiderSystem,
        *,
        duration: float,
        n_faults: int,
        seed: int,
        classes: Sequence[FaultClass] | None = None,
    ) -> "FaultPlan":
        """A seeded random campaign: ``n_faults`` drawn over ``duration``.

        Injection times land in the first 80% of the window so most faults
        see their repair inside the campaign; durations are 5-25% of the
        window.  Targets are drawn uniformly from the system's inventory
        for each class, magnitudes from class-appropriate ranges (slow
        disks at 30-70% speed, marginal cables at 20-80% bandwidth, OSTs
        filled to 80-99%).  Faults that would stack the same mechanism on
        the same target are de-duplicated, so the plan never schedules a
        repair that silently undoes a later, unrelated fault.

        Deterministic: the same ``(system spec, duration, n_faults, seed,
        classes)`` always yields an identical plan.
        """
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError("duration must be positive and finite")
        if n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        pool = tuple(classes) if classes is not None else tuple(FaultClass)
        if not pool:
            raise ValueError("need at least one fault class")
        rng = RngStreams(seed).get("faults.plan")
        fs_names = sorted(system.filesystems)
        faults: list[PlannedFault] = []
        seen: set[tuple] = set()
        attempts = 0
        while len(faults) < n_faults and attempts < 20 * max(1, n_faults):
            attempts += 1
            fault_class = pool[int(rng.integers(len(pool)))]
            time = float(rng.uniform(0.0, 0.8 * duration))
            span = float(rng.uniform(0.05, 0.25)) * duration
            magnitude = 1.0
            if fault_class in (FaultClass.DISK_FAIL, FaultClass.DISK_SLOW):
                target: object = int(rng.integers(system.population.n_disks))
                if fault_class is FaultClass.DISK_SLOW:
                    magnitude = float(rng.uniform(0.3, 0.7))
            elif fault_class in (FaultClass.CABLE_DEGRADE, FaultClass.CABLE_FAIL):
                target = system.osses[int(rng.integers(len(system.osses)))].name
                if fault_class is FaultClass.CABLE_DEGRADE:
                    magnitude = float(rng.uniform(0.2, 0.8))
            elif fault_class is FaultClass.CONTROLLER_FAIL:
                target = int(rng.integers(len(system.ssus)))
            elif fault_class is FaultClass.ROUTER_FAIL:
                target = system.routers[int(rng.integers(len(system.routers)))].name
            elif fault_class is FaultClass.MDS_OVERLOAD:
                target = fs_names[int(rng.integers(len(fs_names)))]
                magnitude = float(rng.uniform(0.5, 2.0))
            elif fault_class is FaultClass.OST_FILL:
                target = int(rng.integers(len(system.osts)))
                magnitude = float(rng.uniform(0.8, 0.99))
            else:  # ENCLOSURE_OFFLINE
                target = (
                    int(rng.integers(len(system.ssus))),
                    int(rng.integers(system.spec.ssu.n_enclosures)),
                )
            # One mechanism per target: both cable classes share one cable.
            mechanism = (
                "cable"
                if fault_class in (FaultClass.CABLE_DEGRADE, FaultClass.CABLE_FAIL)
                else fault_class.value
            )
            key = (mechanism, target)
            if key in seen:
                continue
            seen.add(key)
            faults.append(PlannedFault(time, fault_class, target, span, magnitude))
        return cls(faults)


def cable_failure_scenario(system: SpiderSystem, *, oss_name: str | None = None) -> FaultPlan:
    """The §IV-A single-cable case on one OSS's IB cable.

    Timeline: at t=10 min the cable goes marginal (40% bandwidth, symbol
    errors accruing); at t=1 h it fails outright; at t=1.5 h it is
    re-seated.  Every OST behind that OSS rides the degradation — "single
    cable failures can cause performance degradation ... in our experience
    these are very hard to diagnose."
    """
    oss = oss_name or system.osses[0].name
    return FaultPlan([
        PlannedFault(600.0, FaultClass.CABLE_DEGRADE, oss,
                     duration=3000.0, magnitude=0.4),
        PlannedFault(HOUR, FaultClass.CABLE_FAIL, oss, duration=1800.0),
    ])


def incident_2010_scenario(system: SpiderSystem) -> FaultPlan:
    """The 2010 DDN couplet incident (§IV-E) as a fault plan.

    A drive in SSU 0 fails at t=0 and is swapped at t=1 h (rebuild in
    flight for hours after); controller ``a`` of the same couplet fails
    over at t=10 min and stays down; at t=18 h the first drive shelf drops
    offline.  On the five-enclosure Spider I geometry each shelf holds two
    members of every group, so the shelf drop takes the degraded group past
    RAID-6 tolerance — the journal-loss data loss of the real incident.
    """
    failed_disk = int(system.ssus[0].members_matrix[0, 0])
    return FaultPlan([
        PlannedFault(0.0, FaultClass.DISK_FAIL, failed_disk, duration=HOUR),
        PlannedFault(600.0, FaultClass.CONTROLLER_FAIL, 0),
        PlannedFault(18 * HOUR, FaultClass.ENCLOSURE_OFFLINE, (0, 0)),
    ])


def flapping_router_scenario(
    system: SpiderSystem,
    *,
    router_name: str | None = None,
    cycles: int = 6,
    period: float = 120.0,
    start: float = 600.0,
) -> FaultPlan:
    """One LNET router cycling down and up faster than repair crews move.

    ``cycles`` ROUTER_FAIL events at ``period`` spacing, each repaired
    half a period later — the marginal-Gemini-mezzanine pattern of §IV-D
    where a router's heartbeat bounces for an hour before it either dies
    for good or settles.  This is the adversarial input for the routing
    layer's flap dampening: a policy that rebuilds its path tables on
    every transition does ``2 x cycles`` full re-solves; a dampened one
    stays bounded (see ``tests/test_routing_faults.py``).
    """
    if cycles < 1:
        raise ValueError("need at least one flap cycle")
    if period <= 0 or start < 0:
        raise ValueError("period must be positive and start non-negative")
    router = router_name or system.routers[0].name
    return FaultPlan([
        PlannedFault(start + k * period, FaultClass.ROUTER_FAIL, router,
                     duration=period / 2)
        for k in range(cycles)
    ])
