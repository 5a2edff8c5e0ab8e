"""The fault executor: one inject/repair lifecycle for every fault run.

A :class:`FaultExecutor` runs a :class:`~repro.faults.plan.FaultPlan` on its
owner's engine.  Every fault run uses it: the
:class:`~repro.faults.campaign.FaultCampaign` on an idle probe workload,
the :class:`~repro.sched.scheduler.FacilityScheduler` under job load, and
the metatier study (:func:`~repro.metatier.study.run_meta_study`) on
each tier.
The executor owns everything a fault's lifetime has in common:

* every planned onset and every finite scripted repair is an engine event;
* the injector tokens, and the injection, repair and followup-recovery
  counts;
* the ``faults.injected``/``faults.repaired`` telemetry counters and one
  ``fault:<label>`` trace span per fault lifetime;
* with a :class:`~repro.resilience.playbooks.RemediationPolicy`, the
  :class:`~repro.resilience.runner.PlaybookRunner` that closes the loop.

:meth:`FaultExecutor.repair` is the one repair path.  The scripted repair
event and the runner both call it, and whichever fires first consumes the
token; the other finds nothing left to do.  What a state change *means*
stays with the owner, which passes a ``changed(fault, injector, phase)``
hook: ``phase`` is ``"injected"``, ``"repaired"`` or ``"recovered"`` (a
repair's followup, such as a RAID rebuild, finished).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from repro.core.spider import SpiderSystem
from repro.faults.events import PlannedFault
from repro.faults.injectors import Injector, injector_for
from repro.faults.plan import FaultPlan
from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.resilience.playbooks import RemediationPolicy
    from repro.resilience.runner import RemediationOutcome

__all__ = ["FaultExecutor", "Changed"]

#: the owner hook: ``changed(fault, injector, phase)``
Changed = Callable[[PlannedFault, Injector, str], None]


class FaultExecutor:
    """Schedules a plan's faults on ``engine`` and owns their lifecycle.

    Construction schedules every onset and finite scripted repair, so
    build the executor at the point of the run where those events belong
    in the engine's same-instant order.

    Args:
        system: the system the injectors mutate; any object with the
            surfaces the plan's injectors read will do (the metatier
            study passes its tier).
        plan: the fault schedule.
        engine: the owner's engine.
        changed: the owner hook, called after each injection, repair and
            followup recovery.
        remediation: optional policy; when given, a
            :class:`~repro.resilience.runner.PlaybookRunner` sees every
            injection and repairs through :meth:`repair`.
        detector: optional detector override handed to the runner.
    """

    def __init__(
        self,
        system: SpiderSystem,
        plan: FaultPlan,
        *,
        engine: Engine,
        changed: Changed,
        remediation: "RemediationPolicy | None" = None,
        detector=None,
    ) -> None:
        self.system = system
        self._engine = engine
        self._changed = changed
        self._tokens: dict[PlannedFault, Any] = {}
        self._spans: dict[PlannedFault, Any] = {}
        self.n_injected = 0
        self.n_repaired = 0
        self.n_recovered = 0
        self._runner = None
        if remediation is not None:
            # Imported lazily: repro.resilience imports the faults package
            # at module level.
            from repro.resilience.runner import PlaybookRunner

            self._runner = PlaybookRunner(
                remediation,
                engine=engine,
                repair=self.repair,
                # Systems built without client objects fall back to the
                # compute-partition size for the reconnect-storm scale.
                n_clients=(len(system.clients)
                           or system.spec.n_compute_nodes),
                n_routers=len(system.routers),
                detector=detector,
            )
        for fault in plan:
            engine.call_at(fault.time, lambda f=fault: self._inject(f))
            if math.isfinite(fault.repair_time):
                engine.call_at(fault.repair_time,
                               lambda f=fault: self.repair(f))

    def _inject(self, fault: PlannedFault) -> None:
        injector = injector_for(fault)
        self._tokens[fault] = injector.inject(self.system, fault)
        self.n_injected += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("faults.injected", fault.fault.value).add(1.0)
        self._spans[fault] = get_tracer().open(
            f"fault:{fault.label}", "faults",
            target=str(fault.target), magnitude=fault.magnitude,
        )
        self._changed(fault, injector, "injected")
        if self._runner is not None:
            self._runner.on_fault(fault, self._engine.now)

    def repair(self, fault: PlannedFault) -> bool:
        """Repair ``fault``; ``False`` if it is not injected (any more)."""
        if fault not in self._tokens:
            return False
        injector = injector_for(fault)
        followup = injector.repair(self.system, fault,
                                   self._tokens.pop(fault))
        self.n_repaired += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("faults.repaired", fault.fault.value).add(1.0)
        get_tracer().end(self._spans.pop(fault), repaired=True)
        self._changed(fault, injector, "repaired")
        if followup is not None:
            delay, fn = followup

            def _recovered() -> None:
                fn()
                self.n_recovered += 1
                self._changed(fault, injector, "recovered")

            self._engine.call_after(delay, _recovered)
        return True

    def finish(self) -> "RemediationOutcome | None":
        """Close the spans of faults still open at the horizon (censored)
        and return the remediation outcome, if a policy was given.  Call
        once, after the engine has run to the horizon."""
        tracer = get_tracer()
        for handle in self._spans.values():
            tracer.end(handle, repaired=False)
        self._spans.clear()
        return self._runner.finalize() if self._runner is not None else None
