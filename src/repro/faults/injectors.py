"""Injector adapters: one uniform protocol per fault class, per layer.

Every layer of the model already exposes its own fault surface — the disk
population fails drives, RAID groups erase members, the fabric degrades
cables, the couplet fails controllers, LNET drops routers, the MDS absorbs
metadata storms, OSTs fill.  An :class:`Injector` wraps one such surface in
a uniform shape so the campaign engine can schedule any
:class:`~repro.faults.events.PlannedFault` without knowing which layer it
lands on:

* :meth:`Injector.inject` applies the fault and returns an opaque token
  capturing whatever the repair needs (the pre-fault disk speed, the bytes
  written to fill an OST, the erased member positions of a shelf);
* :meth:`Injector.repair` undoes it with that token and may return a
  *followup* ``(delay, fn)`` — work the repair starts but does not finish,
  e.g. the RAID rebuild that runs for hours after a disk swap;
* :attr:`Injector.event_kind` / :meth:`Injector.host` describe the fault in
  :class:`~repro.monitoring.health.HealthEvent` terms, and
  :attr:`Injector.symptom` names the Lustre-software symptom (RPC timeouts)
  that a blackout-class hardware fault provokes shortly after onset — the
  hardware-event/software-symptom pairing the health checker correlates;
* :attr:`Injector.resolves_flow` says whether the fault changes flow-solver
  capacities (almost all do; a metadata storm degrades the MDS, not the
  data path, so it produces a health incident but no bandwidth sample).

Target conventions (the ``PlannedFault.target`` value per class):

=================== =========================================================
DISK_FAIL           global disk index into ``system.population``
DISK_SLOW           global disk index; ``magnitude`` = speed multiplier
CABLE_DEGRADE       host name (OSS or router); ``magnitude`` = bw multiplier
CABLE_FAIL          host name (OSS or router)
CONTROLLER_FAIL     SSU index (controller ``a`` of that couplet dies)
ROUTER_FAIL         router name
MDS_OVERLOAD        namespace name (its MDT 0); ``magnitude`` scales the storm
OST_FILL            OST index; ``magnitude`` = target fill fraction
ENCLOSURE_OFFLINE   ``(ssu index, enclosure index)`` pair
=================== =========================================================
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.spider import SpiderSystem
from repro.faults.events import FaultClass, PlannedFault
from repro.lustre.mds import OpMix
from repro.monitoring.health import EventKind

__all__ = ["Injector", "INJECTORS", "injector_for"]

#: a repair followup: run ``fn`` ``delay`` seconds after the repair event
Followup = tuple[float, Callable[[], None]]


class Injector:
    """Base adapter.  Subclasses bind one :class:`FaultClass` to one layer."""

    fault_class: FaultClass
    #: primary health event emitted at injection time
    event_kind: EventKind
    #: software symptom provoked shortly after onset (None: no blackout)
    symptom: EventKind | None = None
    #: whether the fault changes flow-solver capacities
    resolves_flow: bool = True

    def host(self, system: SpiderSystem, fault: PlannedFault) -> str:
        """Health-event host: the server chain the event surfaces on."""
        raise NotImplementedError

    def inject(self, system: SpiderSystem, fault: PlannedFault) -> Any:
        """Apply the fault; returns the repair token."""
        raise NotImplementedError

    def repair(
        self, system: SpiderSystem, fault: PlannedFault, token: Any
    ) -> Followup | None:
        """Undo the fault; optionally return deferred completion work."""
        raise NotImplementedError


def _locate_group(system: SpiderSystem, disk_index: int):
    """(ssu, group, member position) owning a global disk index."""
    ssu = system.ssus[disk_index // system.spec.ssu.n_disks]
    g, pos = np.argwhere(ssu.members_matrix == disk_index)[0]
    return ssu, ssu.groups[int(g)], int(pos)


class DiskFailInjector(Injector):
    """A drive hard-fails; its group degrades, the swap triggers a rebuild."""

    fault_class = FaultClass.DISK_FAIL
    event_kind = EventKind.DISK_FAILURE

    def host(self, system, fault):
        _ssu, group, _pos = _locate_group(system, int(fault.target))
        return group.name

    def inject(self, system, fault):
        index = int(fault.target)
        _ssu, group, pos = _locate_group(system, index)
        system.population.fail(index)
        group.erase_member(pos)
        return pos

    def repair(self, system, fault, token):
        index = int(fault.target)
        _ssu, group, pos = _locate_group(system, index)
        system.population.replace([index])
        group.restore_member(pos)  # enters REBUILDING
        return (group.rebuild_time(), lambda: group.finish_rebuild(pos))


class DiskSlowInjector(Injector):
    """Slow-disk onset (Lesson 13): speed × magnitude, group min-law drags."""

    fault_class = FaultClass.DISK_SLOW
    event_kind = EventKind.DISK_LATENCY

    def host(self, system, fault):
        _ssu, group, _pos = _locate_group(system, int(fault.target))
        return group.name

    def inject(self, system, fault):
        index = int(fault.target)
        old = float(system.population.speed_factor[index])
        system.population.speed_factor[index] = old * fault.magnitude
        return old

    def repair(self, system, fault, token):
        system.population.speed_factor[int(fault.target)] = token
        return None


class CableDegradeInjector(Injector):
    """A marginal/flapping IB cable: port bandwidth × magnitude (§IV-A)."""

    fault_class = FaultClass.CABLE_DEGRADE
    event_kind = EventKind.CABLE_ERRORS

    def host(self, system, fault):
        return str(fault.target)

    def inject(self, system, fault):
        system.fabric.degrade_cable(str(fault.target), fault.magnitude)
        return None

    def repair(self, system, fault, token):
        system.fabric.repair_cable(str(fault.target))
        return None


class CableFailInjector(Injector):
    """An IB cable pull: the host port carries nothing until re-seated."""

    fault_class = FaultClass.CABLE_FAIL
    event_kind = EventKind.CABLE_ERRORS
    symptom = EventKind.RPC_TIMEOUT

    def host(self, system, fault):
        return str(fault.target)

    def inject(self, system, fault):
        system.fabric.fail_cable(str(fault.target))
        return None

    def repair(self, system, fault, token):
        system.fabric.repair_cable(str(fault.target))
        return None


class ControllerFailInjector(Injector):
    """One controller of a couplet dies; its partner assumes all groups."""

    fault_class = FaultClass.CONTROLLER_FAIL
    event_kind = EventKind.CONTROLLER_FAILOVER
    symptom = EventKind.RPC_TIMEOUT

    def host(self, system, fault):
        return system.ssus[int(fault.target)].couplet.name

    def inject(self, system, fault):
        system.ssus[int(fault.target)].couplet.fail_controller(0)
        return None

    def repair(self, system, fault, token):
        system.ssus[int(fault.target)].couplet.restore_controller(0)
        return None


class RouterFailInjector(Injector):
    """An LNET I/O router drops out: routing tables and its IB cable."""

    fault_class = FaultClass.ROUTER_FAIL
    event_kind = EventKind.ROUTER_DOWN
    symptom = EventKind.RPC_TIMEOUT

    def host(self, system, fault):
        return str(fault.target)

    def inject(self, system, fault):
        name = str(fault.target)
        system.lnet.set_router_online(name, False)
        system.fabric.fail_cable(name)
        return None

    def repair(self, system, fault, token):
        name = str(fault.target)
        system.lnet.set_router_online(name, True)
        system.fabric.repair_cable(name)
        return None


class MdsOverloadInjector(Injector):
    """A metadata storm (Lesson 19's recursive ``du``) pins one MDS.

    Degrades the metadata path, not the data path: no flow re-solve, but
    the MDS busy-time and op counters move and an RPC-timeout health event
    fires — the purely-software incident class.
    """

    fault_class = FaultClass.MDS_OVERLOAD
    event_kind = EventKind.RPC_TIMEOUT
    resolves_flow = False

    def host(self, system, fault):
        return system.filesystems[str(fault.target)].mds_servers[0].name

    def inject(self, system, fault):
        mds = system.filesystems[str(fault.target)].mds_servers[0]
        storm = OpMix(stats=int(200_000 * fault.magnitude), mean_stripe_count=4.0)
        return mds.service_time(storm)

    def repair(self, system, fault, token):
        return None  # the storm is an impulse; nothing to undo


class OstFillInjector(Injector):
    """An OST fills to ``magnitude`` fraction, crossing the §VI-C knee."""

    fault_class = FaultClass.OST_FILL
    event_kind = EventKind.OST_FULL

    def host(self, system, fault):
        return system.osts[int(fault.target)].oss_name

    def inject(self, system, fault):
        ost = system.osts[int(fault.target)]
        target_bytes = int(min(1.0, fault.magnitude) * ost.spec.capacity_bytes)
        nbytes = max(0, target_bytes - ost.used_bytes)
        if nbytes:
            ost.allocate(nbytes)
        return nbytes

    def repair(self, system, fault, token):
        if token:
            system.osts[int(fault.target)].release(token)
        return None


class EnclosureOfflineInjector(Injector):
    """A drive shelf drops, erasing one member of every group it feeds."""

    fault_class = FaultClass.ENCLOSURE_OFFLINE
    event_kind = EventKind.ENCLOSURE_OFFLINE
    symptom = EventKind.RPC_TIMEOUT

    def host(self, system, fault):
        ssu_index, enclosure = fault.target
        return f"{system.ssus[int(ssu_index)].name}.enc{int(enclosure)}"

    def inject(self, system, fault):
        ssu_index, enclosure = fault.target
        system.ssus[int(ssu_index)].apply_enclosure_outage(int(enclosure))
        return None

    def repair(self, system, fault, token):
        ssu_index, enclosure = fault.target
        ssu = system.ssus[int(ssu_index)]
        enclosure = int(enclosure)
        ssu.restore_enclosure(enclosure)  # members re-enter REBUILDING
        affected = [
            (group, pos)
            for g, group in enumerate(ssu.groups)
            for pos, enc in enumerate(ssu.enclosures.member_enclosure[g])
            if enc == enclosure and pos in group.rebuilding
        ]
        if not affected:
            return None
        delay = max(group.rebuild_time() for group, _pos in affected)

        def finish() -> None:
            for group, pos in affected:
                group.finish_rebuild(pos)

        return (delay, finish)


#: the adapter registry: every fault class maps to exactly one injector
INJECTORS: dict[FaultClass, Injector] = {
    inj.fault_class: inj
    for inj in (
        DiskFailInjector(),
        DiskSlowInjector(),
        CableDegradeInjector(),
        CableFailInjector(),
        ControllerFailInjector(),
        RouterFailInjector(),
        MdsOverloadInjector(),
        OstFillInjector(),
        EnclosureOfflineInjector(),
    )
}


def injector_for(fault: PlannedFault) -> Injector:
    """The registered adapter for one planned fault."""
    return INJECTORS[fault.fault]
