"""The closed loop: detect → decide → act → verify on the DES engine.

:class:`PlaybookRunner` is the remediation engine the
:class:`~repro.faults.executor.FaultExecutor` notifies at every fault
injection, whether the fault campaign or the facility scheduler drives
it.  Per fault it runs the full pipeline as engine events:

* **detect** — the :class:`~repro.resilience.detector.Detector` turns the
  onset into an alert time (poll grid + missed sweeps + debounce);
* **decide** — playbook lookup and dispatch latency;
* **act** — the playbook steps with per-step timeout, bounded retry with
  exponential backoff + jitter, and escalation to the operator tier when
  automation exhausts its attempts; failover/reroute playbooks append the
  §IV-D recovery window (``simulate_recovery`` /
  ``simulate_router_failure`` under ``DEFAULT_RECOVERY_SPEC``), then the
  executor's ``repair`` callable applies the repair through the same
  path as a scripted one, so the flow network re-solves;
* **verify** — the green-check latency before the fault is declared
  closed.

Each stage is traced (``detect:``/``decide:``/``act:``/``verify:`` spans
in the ``resilience`` category), counted (``resilience.*`` telemetry),
and timestamped into a :class:`RemediationRecord`; :meth:`finalize`
aggregates the records into a :class:`RemediationOutcome` with the
MTTD/MTTR decomposition per fault class.  All randomness flows through
named substreams of ``RngStreams(policy.seed)``, so outcomes are
seed-deterministic and bit-identical with telemetry on or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.faults.events import PlannedFault
from repro.lustre.recovery import (
    DEFAULT_RECOVERY_SPEC,
    simulate_recovery,
    simulate_router_failure,
)
from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer
from repro.resilience.detector import Detector
from repro.resilience.playbooks import (
    Playbook,
    RemediationPolicy,
    playbook_for,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["PlaybookRunner", "RemediationRecord", "RemediationOutcome"]

#: seed space for the nested recovery simulations (any int31 is fine)
_NESTED_SEED_SPACE = 2 ** 31


@dataclass(frozen=True)
class RemediationRecord:
    """The full detect→decide→act→verify timeline of one fault.

    All timestamps are absolute sim seconds; stages the campaign horizon
    censored are ``inf``.  ``applied`` is ``False`` when the
    plan-scripted repair beat automation to the fault (the remediation
    then verified a repair it did not perform).
    """

    fault_label: str
    fault_class: str
    playbook: str
    injected_at: float
    detected_at: float
    decided_at: float
    acted_at: float
    verified_at: float
    attempts: int
    escalated: bool
    applied: bool

    @property
    def completed(self) -> bool:
        """Whether the pipeline closed inside the campaign window."""
        return math.isfinite(self.verified_at)

    @property
    def detect_seconds(self) -> float:
        """MTTD contribution: onset → alert."""
        return self.detected_at - self.injected_at

    @property
    def decide_seconds(self) -> float:
        """Alert → playbook dispatched."""
        return self.decided_at - self.detected_at

    @property
    def act_seconds(self) -> float:
        """Dispatch → repair applied (steps, retries, recovery tail)."""
        return self.acted_at - self.decided_at

    @property
    def verify_seconds(self) -> float:
        """Repair applied → declared closed."""
        return self.verified_at - self.acted_at

    @property
    def mttr_seconds(self) -> float:
        """Onset → closed: the full time-to-repair."""
        return self.verified_at - self.injected_at


@dataclass(frozen=True)
class RemediationOutcome:
    """Aggregated remediation metrics of one executed run.

    Plain floats/ints/tuples throughout, so outcomes from identically
    seeded runs compare equal with ``==``.  ``by_class`` rows are
    ``(fault class value, completed count, mean MTTD s, mean MTTR s)``.
    """

    n_faults: int
    n_applied: int
    n_preempted: int
    n_escalated: int
    records: tuple[RemediationRecord, ...]
    by_class: tuple[tuple[str, int, float, float], ...]

    @property
    def mean_mttd_seconds(self) -> float:
        """Mean detect latency over completed remediations (0 if none)."""
        done = [r for r in self.records if r.completed]
        if not done:
            return 0.0
        return sum(r.detect_seconds for r in done) / len(done)

    @property
    def mean_mttr_seconds(self) -> float:
        """Mean onset→closed time over completed remediations (0 if none)."""
        done = [r for r in self.records if r.completed]
        if not done:
            return 0.0
        return sum(r.mttr_seconds for r in done) / len(done)

    def rows(self) -> list[tuple[str, str]]:
        """Key/value summary rows for the CLI report."""
        return [
            ("faults seen", str(self.n_faults)),
            ("repairs applied by automation", str(self.n_applied)),
            ("preempted by scripted repair", str(self.n_preempted)),
            ("escalated to operator tier", str(self.n_escalated)),
            ("mean MTTD", f"{self.mean_mttd_seconds:,.1f} s"),
            ("mean MTTR", f"{self.mean_mttr_seconds:,.1f} s"),
        ]

    def class_rows(self) -> list[tuple[str, str, str, str]]:
        """Per-class table rows: class, count, mean MTTD, mean MTTR."""
        return [
            (cls, str(n), f"{mttd:,.1f} s", f"{mttr:,.1f} s")
            for cls, n, mttd, mttr in self.by_class
        ]


class _Remediation:
    """Mutable pipeline state for one fault (private to the runner)."""

    __slots__ = (
        "fault", "playbook", "injected_at", "detected_at", "decided_at",
        "acted_at", "verified_at", "attempts", "escalated", "applied",
        "tail", "detect_span", "decide_span", "act_span", "verify_span",
    )

    def __init__(self, fault: PlannedFault, playbook: Playbook,
                 injected_at: float) -> None:
        self.fault = fault
        self.playbook = playbook
        self.injected_at = injected_at
        self.detected_at = math.inf
        self.decided_at = math.inf
        self.acted_at = math.inf
        self.verified_at = math.inf
        self.attempts = 0
        self.escalated = False
        self.applied = False
        self.tail = 0.0
        self.detect_span = None
        self.decide_span = None
        self.act_span = None
        self.verify_span = None

    def record(self) -> RemediationRecord:
        return RemediationRecord(
            fault_label=self.fault.label,
            fault_class=self.fault.fault.value,
            playbook=self.playbook.name,
            injected_at=self.injected_at,
            detected_at=self.detected_at,
            decided_at=self.decided_at,
            acted_at=self.acted_at,
            verified_at=self.verified_at,
            attempts=self.attempts,
            escalated=self.escalated,
            applied=self.applied,
        )


class PlaybookRunner:
    """Executes remediation pipelines on a shared engine.

    Args:
        policy: the pure-configuration :class:`RemediationPolicy`.
        engine: the executor's engine; all stages are events on it.
        repair: the executor's repair path
            (:meth:`~repro.faults.executor.FaultExecutor.repair`); returns
            ``False`` when the scripted repair already fired.
        n_clients: connected clients, sizing the failover reconnect storm.
        n_routers: LNET routers, sizing the per-router client share for
            reroute tails (0 when the system has none).
        playbooks: optional registry override mapping
            :class:`~repro.faults.events.FaultClass` to
            :class:`~repro.resilience.playbooks.Playbook` (tests inject
            crafted books; production uses the default registry).
        detector: optional detector override exposing
            ``delay_for(fault, at)`` — the monitoring overlay injects its
            :class:`~repro.obs.overlay.observed.ObservedDetector` here so
            MTTD emerges from scrape cadence and tree lag instead of the
            analytic model (the default).
    """

    def __init__(
        self,
        policy: RemediationPolicy,
        *,
        engine: Engine,
        repair: Callable[[PlannedFault], bool],
        n_clients: int,
        n_routers: int = 0,
        playbooks: dict | None = None,
        detector=None,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self.policy = policy
        self._engine = engine
        self._repair = repair
        self._n_clients = int(n_clients)
        self._n_routers = int(n_routers)
        self._playbooks = playbooks
        streams = RngStreams(policy.seed)
        if detector is None:
            detector = Detector(policy.detection,
                                streams.get("resilience.detect"))
        self._detector = detector
        self._rng = streams.get("resilience.act")
        self._pipelines: list[_Remediation] = []

    # -- pipeline stages ------------------------------------------------------

    def on_fault(self, fault: PlannedFault, at: float) -> None:
        """Executor hook: a fault was injected at sim time ``at``."""
        if self._playbooks is not None:
            playbook = self._playbooks[fault.fault]
        else:
            playbook = playbook_for(fault.fault)
        ctx = _Remediation(fault, playbook, at)
        self._pipelines.append(ctx)
        delay = self._detector.delay_for(fault, at)
        ctx.detect_span = get_tracer().open(
            f"detect:{fault.label}", "resilience", fault=fault.fault.value)
        self._engine.call_after(delay, lambda: self._detected(ctx))

    def _detected(self, ctx: _Remediation) -> None:
        ctx.detected_at = self._engine.now
        tracer = get_tracer()
        tracer.end(ctx.detect_span)
        ctx.detect_span = None
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("resilience.detected",
                              ctx.fault.fault.value).add(1.0)
        ctx.decide_span = tracer.open(
            f"decide:{ctx.fault.label}", "resilience",
            playbook=ctx.playbook.name)
        self._engine.call_after(self.policy.decide_latency,
                                lambda: self._decided(ctx))

    def _decided(self, ctx: _Remediation) -> None:
        ctx.decided_at = self._engine.now
        tracer = get_tracer()
        tracer.end(ctx.decide_span)
        ctx.decide_span = None
        ctx.act_span = tracer.open(
            f"act:{ctx.fault.label}", "resilience",
            playbook=ctx.playbook.name)
        # The recovery tail is fixed at decide time: the steps that follow
        # only reorder *when* the failover happens, not what it costs.
        ctx.tail = self._act_tail(ctx.playbook)
        self._run_step(ctx, 0, 1)

    def _act_tail(self, playbook: Playbook) -> float:
        """Seconds of §IV-D recovery appended after the last step."""
        policy = self.policy
        tail = 0.0
        if playbook.failover:
            seed = int(self._rng.integers(_NESTED_SEED_SPACE))
            outcome = simulate_recovery(
                self._n_clients,
                imperative=policy.imperative,
                hp_journaling=policy.hp_journaling,
                spec=DEFAULT_RECOVERY_SPEC,
                seed=seed,
            )
            tail += outcome.blackout_seconds
        if playbook.reroute:
            seed = int(self._rng.integers(_NESTED_SEED_SPACE))
            affected = max(1, round(self._n_clients
                                    / max(1, self._n_routers)))
            outcome = simulate_router_failure(
                affected,
                arn=policy.imperative,
                spec=DEFAULT_RECOVERY_SPEC,
                seed=seed,
            )
            tail += outcome.mean_stall_seconds
        return tail

    def _run_step(self, ctx: _Remediation, index: int, attempt: int) -> None:
        step = ctx.playbook.steps[index]
        ctx.attempts += 1
        failed = float(self._rng.random()) < step.failure_probability
        cost = step.timeout if failed else step.duration
        self._engine.call_after(
            cost, lambda: self._step_done(ctx, index, attempt, failed))

    def _step_done(self, ctx: _Remediation, index: int, attempt: int,
                   failed: bool) -> None:
        if not failed:
            self._advance(ctx, index)
            return
        retry = self.policy.retry
        if attempt >= retry.max_attempts:
            # Automation is out of attempts: page a human.  The operator
            # tier is slow but reliable — the step succeeds after the
            # page delay plus its nominal duration.
            ctx.escalated = True
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("resilience.escalated",
                                  ctx.fault.fault.value).add(1.0)
            step = ctx.playbook.steps[index]
            self._engine.call_after(
                self.policy.operator_delay + step.duration,
                lambda: self._advance(ctx, index))
            return
        backoff = retry.backoff_seconds(attempt, float(self._rng.random()))
        self._engine.call_after(
            backoff, lambda: self._run_step(ctx, index, attempt + 1))

    def _advance(self, ctx: _Remediation, index: int) -> None:
        if index + 1 < len(ctx.playbook.steps):
            self._run_step(ctx, index + 1, 1)
        else:
            self._engine.call_after(ctx.tail,
                                    lambda: self._act_complete(ctx))

    def _act_complete(self, ctx: _Remediation) -> None:
        ctx.acted_at = self._engine.now
        ctx.applied = self._repair(ctx.fault)
        tracer = get_tracer()
        tracer.end(ctx.act_span, applied=ctx.applied,
                   escalated=ctx.escalated, attempts=ctx.attempts)
        ctx.act_span = None
        telemetry = get_telemetry()
        if telemetry.enabled:
            key = "resilience.applied" if ctx.applied \
                else "resilience.preempted"
            telemetry.counter(key, ctx.fault.fault.value).add(1.0)
        ctx.verify_span = tracer.open(
            f"verify:{ctx.fault.label}", "resilience")
        self._engine.call_after(self.policy.verify_latency,
                                lambda: self._verified(ctx))

    def _verified(self, ctx: _Remediation) -> None:
        ctx.verified_at = self._engine.now
        get_tracer().end(ctx.verify_span, verified=True)
        ctx.verify_span = None
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.histogram("resilience.mttr").observe(
                ctx.verified_at - ctx.injected_at)

    # -- aggregation ----------------------------------------------------------

    def finalize(self) -> RemediationOutcome:
        """Close censored spans and aggregate the records (call once,
        after the engine has run to the horizon)."""
        tracer = get_tracer()
        for ctx in self._pipelines:
            for name in ("detect_span", "decide_span", "act_span",
                         "verify_span"):
                handle = getattr(ctx, name)
                if handle is not None:
                    tracer.end(handle, censored=True)
                    setattr(ctx, name, None)
        records = tuple(ctx.record() for ctx in self._pipelines)
        per_class: dict[str, list[RemediationRecord]] = {}
        for record in records:
            if record.completed:
                per_class.setdefault(record.fault_class, []).append(record)
        by_class = tuple(
            (cls,
             len(recs),
             sum(r.detect_seconds for r in recs) / len(recs),
             sum(r.mttr_seconds for r in recs) / len(recs))
            for cls, recs in sorted(per_class.items()))
        return RemediationOutcome(
            n_faults=len(records),
            n_applied=sum(1 for r in records if r.applied),
            n_preempted=sum(1 for r in records
                            if r.completed and not r.applied),
            n_escalated=sum(1 for r in records if r.escalated),
            records=records,
            by_class=by_class,
        )
