"""The fault campaign: timed injection, flow re-solves, health, metrics.

A :class:`FaultCampaign` executes a :class:`~repro.faults.plan.FaultPlan`
against a built :class:`~repro.core.spider.SpiderSystem` on the
discrete-event engine, in two interleaved regimes (the same split as the
rest of the model):

* **DES regime** — fault onsets, repairs, rebuild completions, and health
  symptoms are engine events at their scheduled times;
* **flow regime** — at every state change that touches the data path, the
  campaign re-solves a constant probe workload (each OSS offered exactly
  its couplet fair share) through :class:`~repro.core.path.PathBuilder`,
  sampling the delivered aggregate bandwidth.  The samples form a
  step-function bandwidth-degradation timeline.  Re-solve requests ride
  an :class:`~repro.core.flow.Epoch`, so a same-tick fault cascade costs
  one solve (labels joined with ``"+"``), and the builder is persistent:
  capacity-only faults re-solve incrementally over the built network,
  while routing changes rebuild it (see
  :meth:`~repro.core.path.PathBuilder.resolve` and
  ``docs/PERFORMANCE.md``).

The fault lifecycle itself — scheduling, injector tokens, the
``faults.injected``/``faults.repaired`` counters and one trace span per
fault lifetime, so ``spider-repro chaos --trace`` shows faults as
intervals next to the RAID-rebuild and engine-process spans — is the
shared :class:`~repro.faults.executor.FaultExecutor`.  The campaign
supplies what a state change means to it: a
:class:`~repro.monitoring.health.HealthEvent` per injected fault (plus the
RPC-timeout software symptom for blackout-class faults, which is what lets
the health checker demonstrate hardware-rooted correlation) and a probe
re-sample for every fault that changes the data path.

The result is a :class:`CampaignResult` of plain floats and tuples, so two
runs with the same seed compare equal with ``==`` — the determinism
contract the test suite enforces (telemetry on or off, bit-identical).

Passing ``remediation=`` closes the loop: the executor's
:class:`~repro.resilience.runner.PlaybookRunner` rides the same engine,
detects each injected fault through the monitoring-latency model, walks
its playbook, and applies the repair through the executor's one repair
path — whichever of the scripted repair and the remediation fires first
wins, the other becomes a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.flow import Epoch
from repro.core.path import PathBuilder, Transfer
from repro.core.spider import SpiderSystem
from repro.faults.events import PlannedFault
from repro.faults.executor import FaultExecutor
from repro.faults.injectors import Injector
from repro.faults.plan import FaultPlan
from repro.monitoring.health import HealthEvent, LustreHealthChecker
from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer, instrument_engine
from repro.sim.engine import Engine
from repro.units import HOUR

if TYPE_CHECKING:
    from repro.obs.overlay.runtime import MonitoringOverlay, OverlayOutcome
    from repro.resilience.playbooks import RemediationPolicy
    from repro.resilience.runner import RemediationOutcome

__all__ = ["FaultCampaign", "CampaignResult"]

#: seconds between a blackout-class hardware fault and its Lustre symptom
SYMPTOM_DELAY = 5.0

#: a fault class "recovers" when bandwidth returns to this fraction of its
#: pre-fault level
RECOVERY_FRACTION = 0.99


@dataclass(frozen=True)
class CampaignResult:
    """Availability and degradation metrics of one executed campaign.

    All fields are plain floats/ints/tuples, so results from identically
    seeded runs compare equal with ``==``.
    """

    #: delivered probe bandwidth with every component healthy (bytes/s)
    baseline_bw: float
    #: lowest bandwidth sample seen during the campaign (bytes/s)
    worst_bw: float
    #: bandwidth at the campaign horizon (bytes/s)
    final_bw: float
    #: campaign horizon (seconds)
    duration: float
    #: degradation threshold as a fraction of baseline
    threshold: float
    #: seconds spent below ``threshold × baseline_bw``
    time_below_threshold: float
    #: time-weighted mean bandwidth / baseline (1.0 = no degradation)
    availability: float
    #: ``(time, bandwidth, label)`` per flow re-solve, time-sorted
    timeline: tuple[tuple[float, float, str], ...]
    #: worst observed ``(fault class value, recovery seconds)`` per class;
    #: censored at the horizon for faults that never fully recovered
    recovery_times: tuple[tuple[str, float], ...]
    #: health-checker incident classification counts, sorted by key
    incident_counts: tuple[tuple[str, int], ...]
    n_injected: int
    n_repaired: int
    #: probe flows dropped because no live router served their leaf
    unroutable_flows: int
    #: ``(fault class value, event count, mean recovery seconds)`` per
    #: class over every qualifying fault (``recovery_times`` keeps only
    #: the worst case, for backward compatibility)
    recovery_stats: tuple[tuple[str, int, float], ...] = ()
    #: the closed-loop remediation outcome, when a policy was supplied
    remediation: "RemediationOutcome | None" = None
    #: the monitoring-overlay outcome, when a monitor rode the campaign
    overlay: "OverlayOutcome | None" = None

    def below_threshold_fraction(self) -> float:
        """Fraction of the campaign spent below the degradation threshold."""
        return self.time_below_threshold / self.duration if self.duration else 0.0

    def total_blackout_seconds(self) -> float:
        """Sum of recovery seconds over every fault with a measured
        recovery — the scalar the paired study compares across arms."""
        return sum(n * mean for _cls, n, mean in self.recovery_stats)


class FaultCampaign:
    """Executes one :class:`FaultPlan` and measures the damage.

    Args:
        system: the built system to hurt (mutated in place — build a fresh
            one per campaign).
        plan: the fault schedule.
        duration: campaign horizon in seconds; defaults to one hour past
            the plan's last scheduled event so final repairs settle.
        threshold: degradation threshold as a fraction of baseline
            bandwidth, for the ``time_below_threshold`` metric.
        health: the health checker receiving fault events; a fresh
            ``LustreHealthChecker`` by default.
        probe_clients_per_oss: probe streams per OSS.  Two 1.4 GB/s client
            stacks out-demand one OSS's couplet share, so server-side
            degradation is visible rather than hidden behind client limits.
        remediation: optional
            :class:`~repro.resilience.playbooks.RemediationPolicy`; when
            given, a :class:`~repro.resilience.runner.PlaybookRunner`
            closes the loop on every injected fault.
        monitor: optional in-band monitoring overlay
            (:class:`~repro.obs.overlay.runtime.MonitoringOverlay`, or
            anything exposing ``attach(engine)`` / ``detector(model)`` /
            ``outcome()``).  It rides the campaign engine; when a
            remediation policy is also given, its overlay-backed detector
            replaces the analytic one, so MTTD emerges from the
            monitoring pipeline rather than the model.
    """

    def __init__(
        self,
        system: SpiderSystem,
        plan: FaultPlan,
        *,
        duration: float | None = None,
        threshold: float = 0.5,
        health: LustreHealthChecker | None = None,
        probe_clients_per_oss: int = 2,
        remediation: "RemediationPolicy | None" = None,
        monitor: "MonitoringOverlay | None" = None,
    ) -> None:
        if not system.clients:
            raise ValueError("campaign needs a system built with clients")
        if duration is None:
            duration = plan.end + HOUR
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not (0 < threshold < 1):
            raise ValueError("threshold must be in (0, 1)")
        if probe_clients_per_oss < 1:
            raise ValueError("probe_clients_per_oss must be >= 1")
        self.probe_clients_per_oss = probe_clients_per_oss
        self.system = system
        self.plan = plan
        self.duration = float(duration)
        self.threshold = float(threshold)
        self.health = health or LustreHealthChecker()
        self.remediation = remediation
        self.monitor = monitor
        self.transfers = self._probe_transfers()
        #: the persistent probe builder: its network survives across
        #: samples and re-solves incrementally (see PathBuilder.resolve)
        self._builder = PathBuilder(self.system, fs_level=True)
        # run state
        self._engine: Engine | None = None
        self._epoch: Epoch | None = None
        #: (sample time, FlowResult matching the builder's route table)
        self._last: tuple[float, object] | None = None
        self._timeline: list[tuple[float, float, str]] = []
        self._unroutable = 0

    def _probe_transfers(self) -> list[Transfer]:
        """Probe streams per OSS, clients chosen by a deterministic stride.

        Each OSS is offered exactly its couplet fair share (the §III-B
        acceptance operating point), split over the probe clients.  Offering
        more would let sibling OSSes behind the same couplet absorb any
        single-OSS fault into their slack; at the engineered share, every
        layer that falls below its share surfaces in the timeline, while
        faults the system genuinely rides out (a degraded RAID group with
        raw bandwidth to spare) stay invisible — which is the point.
        """
        clients = self.system.clients
        osses = self.system.osses
        per_ssu = self.system.spec.osses_per_ssu
        n_probes = len(osses) * self.probe_clients_per_oss
        stride = max(1, len(clients) // n_probes)
        transfers = []
        for i, oss in enumerate(osses):
            share = (self.system.ssus[oss.ssu_index].couplet.bw_cap(fs_level=True)
                     / per_ssu)
            for k in range(self.probe_clients_per_oss):
                idx = i * self.probe_clients_per_oss + k
                transfers.append(Transfer(
                    name=f"probe-{oss.name}-{k}",
                    client=clients[(idx * stride) % len(clients)],
                    ost_indices=tuple(oss.ost_indices),
                    demand=share / self.probe_clients_per_oss,
                ))
        return transfers

    # -- engine callbacks -----------------------------------------------------

    def _sample(self, label: str) -> None:
        """Request a probe re-solve for the current tick.

        Routed through the campaign :class:`Epoch`: a same-tick burst of
        state changes (a fault cascade, a repair plus its followup)
        collapses into one :meth:`_flush_sample` carrying the batched
        labels joined with ``"+"``.
        """
        epoch = self._epoch
        assert epoch is not None
        epoch.request(label)

    def _flush_sample(self, label: str) -> None:
        """Re-solve the probe workload and append a timeline sample."""
        engine = self._engine
        assert engine is not None
        # Attribute the interval just ended to the per-layer byte counters
        # (telemetry-gated inside) before resolve() can replace the route
        # table the previous solve was made under.
        if self._last is not None:
            last_t, last_result = self._last
            self._builder.record_flow_telemetry(last_result,
                                                engine.now - last_t)
        # Incremental re-solve: capacity-only faults ride the delta path;
        # routing changes (router death/repair) rebuild with the policy's
        # balancing state reset, so the routes match what a fresh builder
        # would pick and the timeline cannot drift for reasons unrelated
        # to the injected faults.
        result = self._builder.resolve(self.transfers)
        self._unroutable += self._builder.unroutable_flows
        self._last = (engine.now, result)
        self._timeline.append((engine.now, float(np.sum(result.rates)), label))

    def _fault_changed(self, fault: PlannedFault, injector: Injector,
                       phase: str) -> None:
        """Executor hook: a fault was injected, repaired or recovered."""
        if phase == "injected":
            engine = self._engine
            assert engine is not None
            host = injector.host(self.system, fault)
            self.health.ingest(HealthEvent(
                engine.now, injector.event_kind, host, detail=fault.label))
            if injector.symptom is not None:
                symptom = injector.symptom
                engine.call_after(SYMPTOM_DELAY, lambda: self.health.ingest(
                    HealthEvent(engine.now, symptom, host,
                                detail=f"symptom of {fault.label}")))
        if injector.resolves_flow:
            self._sample(fault.label if phase == "injected"
                         else f"{fault.label}:{phase}")

    # -- execution ------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the plan and return the measured :class:`CampaignResult`."""
        engine = self._engine = Engine()
        instrument_engine(engine, get_telemetry(), get_tracer())
        self._epoch = Epoch(self._flush_sample, engine=engine)
        self._timeline.clear()
        self._last = None
        self._unroutable = 0

        detector = None
        if self.monitor is not None:
            self.monitor.attach(engine)
            if self.remediation is not None:
                detector = self.monitor.detector(self.remediation.detection)

        # Sampled synchronously, not through the epoch: the baseline must
        # be the first timeline entry even when the plan's first fault
        # lands at t=0 (an epoch-routed baseline would batch with it).
        self._flush_sample("baseline")
        faults = FaultExecutor(self.system, self.plan, engine=engine,
                               changed=self._fault_changed,
                               remediation=self.remediation,
                               detector=detector)
        engine.run(until=self.duration)

        # Attribute the tail interval (last state change → horizon).
        if self._last is not None:
            last_t, last_result = self._last
            self._builder.record_flow_telemetry(
                last_result, max(0.0, self.duration - last_t))

        outcome = faults.finish()
        return self._result(faults, outcome)

    # -- metrics --------------------------------------------------------------

    def _result(self, faults: FaultExecutor,
                remediation: "RemediationOutcome | None") -> CampaignResult:
        timeline = list(self._timeline)
        baseline = timeline[0][1] if timeline else 0.0
        floor = self.threshold * baseline

        # Step integration: each sample's bandwidth holds until the next.
        below = 0.0
        integral = 0.0
        for i, (t, bw, _label) in enumerate(timeline):
            t_next = timeline[i + 1][0] if i + 1 < len(timeline) else self.duration
            dt = max(0.0, min(t_next, self.duration) - t)
            integral += bw * dt
            if bw < floor:
                below += dt

        availability = (
            integral / (baseline * self.duration)
            if baseline > 0 and self.duration > 0 else 0.0
        )

        # Recovery per fault class: time from injection until bandwidth
        # returns to RECOVERY_FRACTION of its pre-fault level.
        recovery: dict[str, float] = {}
        stats: dict[str, list[float]] = {}
        for fault in self.plan:
            # Epoch batching joins same-tick sample labels with "+", so
            # match the fault's label as a member, not the whole string.
            injected_at = next(
                (i for i, (t, _bw, label) in enumerate(timeline)
                 if t >= fault.time and fault.label in label.split("+")),
                None,
            )
            if injected_at is None or injected_at == 0:
                continue
            pre_bw = timeline[injected_at - 1][1]
            recovered_at = next(
                (t for t, bw, _label in timeline[injected_at + 1:]
                 if bw >= RECOVERY_FRACTION * pre_bw),
                self.duration,  # censored: never recovered in-window
            )
            elapsed = recovered_at - fault.time
            key = fault.fault.value
            recovery[key] = max(recovery.get(key, 0.0), elapsed)
            stats.setdefault(key, []).append(elapsed)

        return CampaignResult(
            baseline_bw=baseline,
            worst_bw=min((bw for _t, bw, _l in timeline), default=0.0),
            final_bw=timeline[-1][1] if timeline else 0.0,
            duration=self.duration,
            threshold=self.threshold,
            time_below_threshold=below,
            availability=availability,
            timeline=tuple(timeline),
            recovery_times=tuple(sorted(recovery.items())),
            incident_counts=tuple(sorted(self.health.classify_counts().items())),
            n_injected=faults.n_injected,
            n_repaired=faults.n_repaired,
            unroutable_flows=self._unroutable,
            recovery_stats=tuple(
                (cls, len(vals), sum(vals) / len(vals))
                for cls, vals in sorted(stats.items())),
            remediation=remediation,
            overlay=self.monitor.outcome() if self.monitor is not None
            else None,
        )
