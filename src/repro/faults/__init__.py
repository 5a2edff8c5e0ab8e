"""repro.faults — the declarative fault-injection campaign engine.

The paper's operational sections are a catalogue of component failures a
center-wide file system absorbs continuously; this package turns that
catalogue into executable campaigns:

* :mod:`repro.faults.events` — the fault taxonomy
  (:class:`FaultClass`) and one timed occurrence (:class:`PlannedFault`);
* :mod:`repro.faults.injectors` — one adapter per fault class binding it
  to the layer that breaks (disks, RAID, cables, controllers, routers,
  MDS, OSTs, enclosures);
* :mod:`repro.faults.plan` — composable, seed-deterministic
  :class:`FaultPlan` schedules plus the hand-written §IV-A cable and 2010
  enclosure-incident scenarios;
* :mod:`repro.faults.executor` — :class:`FaultExecutor` runs a plan's
  inject/repair lifecycle on its owner's engine (tokens, counters, spans,
  optional closed-loop remediation) and calls the owner back at each
  state change; the campaign, the facility scheduler and the metatier
  study all use it;
* :mod:`repro.faults.campaign` — :class:`FaultCampaign` executes a plan on
  the discrete-event engine, re-solves the flow network at every state
  change, feeds the health checker, and returns a
  :class:`CampaignResult` of availability/degradation metrics.

Typical use::

    from repro.core.spider import build_spider2
    from repro.faults import FaultCampaign, FaultPlan

    system = build_spider2()
    plan = FaultPlan.random(system, duration=86_400, n_faults=12, seed=7)
    result = FaultCampaign(system, plan).run()
    print(result.availability, result.time_below_threshold)
"""

from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.events import FaultClass, PlannedFault
from repro.faults.executor import FaultExecutor
from repro.faults.injectors import INJECTORS, Injector, injector_for
from repro.faults.plan import (
    FaultPlan,
    cable_failure_scenario,
    flapping_router_scenario,
    incident_2010_scenario,
)

__all__ = [
    "FaultClass",
    "PlannedFault",
    "Injector",
    "INJECTORS",
    "injector_for",
    "FaultPlan",
    "cable_failure_scenario",
    "incident_2010_scenario",
    "flapping_router_scenario",
    "FaultExecutor",
    "FaultCampaign",
    "CampaignResult",
]
