"""The facility scheduler: a population of jobs on the shared backbone.

:class:`FacilityScheduler` drives the discrete-event engine with the
arrival stream from :mod:`repro.sched.arrivals` and, at every state
change that touches the data path — job submission, admission, phase
change, completion, fault injection or repair — asks the
:class:`~repro.sched.qos.BandwidthArbiter` for a fresh allocation.
Re-solve requests route through an :class:`~repro.core.flow.Epoch`, so
a burst of simultaneous state changes (a fault cascade, several jobs
finishing at one instant) is batched into a single end-of-tick
allocation round over the arbiter's persistent solver state.  Between
re-solves every running I/O phase drains fluidly at its allocated
rate, so job progress is exact given piecewise-constant rates: the
next phase completion is scheduled as an engine event and invalidated
(via an epoch guard — the engine has no cancellation) when an earlier
state change re-solves first.

Composition with :mod:`repro.faults` runs a chaos campaign *under
load* through the same :class:`~repro.faults.executor.FaultExecutor` the
idle-probe campaign uses: injectors mutate the live system, the backbone
capacity is recomputed from it on the next allocation, and the damage
lands in job-visible metrics (slowdown, drain overrun, latency probe)
instead of raw bandwidth alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.interference import isolated_and_shared
from repro.core.flow import Epoch
from repro.core.spider import SpiderSystem
from repro.faults.executor import FaultExecutor
from repro.faults.plan import FaultPlan
from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer, instrument_engine
from repro.sched.jobs import JobSpec, PlatformClass
from repro.sched.metrics import (
    ClassSummary,
    JobOutcome,
    LatencyProbe,
    SchedResult,
    jains_index,
)
from repro.sched.qos import BACKBONE_COMPONENT, BandwidthArbiter, QosPolicy
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.units import GB, HOUR, MiB
from repro.workloads.analytics import AnalyticsApp, analytics_trace
from repro.workloads.model import RequestTrace

if TYPE_CHECKING:
    from repro.network.routing import BackpressureController
    from repro.resilience.playbooks import RemediationPolicy
    from repro.resilience.runner import RemediationOutcome

__all__ = ["FacilityScheduler"]

#: analytics-cluster and DTN uplink capacities, as fractions of the
#: healthy backbone (the simulation side uses the live router aggregate)
ANALYTICS_INGEST_FRACTION = 0.35
DTN_INGEST_FRACTION = 0.20

#: slack past the last arrival before a default horizon censors the run
DEFAULT_HORIZON_TAIL = 12 * HOUR

#: a phase is drained when its remaining volume falls under this floor,
#: or when draining the leftover would take under ``_DONE_EPS_S`` at the
#: phase's current rate — float rounding of ``rate * dt`` at day-scale
#: clock values can leave kilobyte residues whose drain time is below
#: the clock's resolution, and a byte floor alone would spin on them
_DONE_EPS_BYTES = 1e-3
_DONE_EPS_S = 1e-6

#: shared empty float vector for idle settle-vector state
_EMPTY_F = np.empty(0)

#: timeline label prefix per fault executor phase
_FAULT_LABELS = {"injected": "fault", "repaired": "repair",
                 "recovered": "recovered"}

#: rate floor used when projecting the next phase-completion time — far
#: below any physical rate, far above the underflow range (see _flush)
_RATE_FLOOR = 1e-200

# -- latency probe calibration ------------------------------------------------
#: probe session length (seconds)
PROBE_DURATION = 300.0
#: one OST-class station carries 1/8 of the backbone, capped at 2 GB/s,
#: and serves with 4 concurrent I/O threads at a 4 ms positioning cost
PROBE_STATION_DIVISOR = 8
PROBE_STATION_CAP = 2 * GB
PROBE_N_SERVERS = 4
PROBE_POSITIONING_S = 0.004
#: the probe session alone drives the station at this utilization
PROBE_UTILIZATION = 0.2
#: mean analytics request size under the default bimodal mix
PROBE_MEAN_REQUEST_BYTES = 1.8 * MiB
#: background stream request size and trace-size ceiling (coarsening
#: past the ceiling preserves the offered utilization by re-deriving the
#: rate from the enlarged request — see _latency_probe)
PROBE_BG_REQUEST_BYTES = 8 * MiB
PROBE_BG_MAX_REQUESTS = 30_000
#: the background replays at this time-weighted percentile of the
#: non-analytics rate (the peak pressure QoS caps shave — the mean is
#: work-conserving and nearly policy-independent)
PROBE_BG_PERCENTILE = 95.0


def _weighted_percentile(samples: list[tuple[float, float]],
                         q: float) -> float:
    """Time-weighted percentile of ``(duration, value)`` samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples, key=lambda s: s[1])
    total = sum(dt for dt, _value in ordered)
    if total <= 0:
        return float(ordered[-1][1])
    threshold = q / 100.0 * total
    acc = 0.0
    for dt, value in ordered:
        acc += dt
        if acc >= threshold:
            return float(value)
    return float(ordered[-1][1])


@dataclass(slots=True)
class _Job:
    """Runtime state of one job (private to the scheduler)."""

    spec: JobSpec
    phase_index: int = 0
    start: float | None = None
    finish: float | None = None
    #: remaining bytes of the current I/O phase — authoritative only
    #: until the phase joins the settle vectors at the next flush;
    #: afterwards the scheduler's remaining vector carries the drained
    #: value (jobs never leave the vectors except by completing)
    remaining: float = 0.0
    #: start time of the current phase
    phase_start: float = 0.0
    #: total time spent in I/O phases
    io_time: float = 0.0
    #: the settle point from which the current I/O phase accrues io_time
    io_enter: float = 0.0
    #: small-int platform code (index into ``list(PlatformClass)``)
    code: int = 0
    #: worst per-phase drain time over its isolated drain
    worst_overrun: float | None = None
    span: object = None

    @property
    def platform(self) -> PlatformClass:
        return self.spec.platform


@dataclass
class _RunState:
    """Mutable per-run accounting, reset by each :meth:`run`."""

    last_settle: float = 0.0
    epoch: int = 0
    n_submitted: int = 0
    n_finished: int = 0
    makespan: float = 0.0
    #: ``(dt, non-analytics allocated rate)`` per settle interval in
    #: which at least one analytics I/O phase was active
    bg_samples: list[tuple[float, float]] = field(default_factory=list)
    timeline: list[tuple[float, float, str]] = field(default_factory=list)


class FacilityScheduler:
    """Runs a job population against one built system.

    Args:
        system: the facility (mutated in place by fault injectors when a
            ``fault_plan`` is given — build a fresh one per run).
        jobs: the arrival-sorted population (see
            :func:`~repro.sched.arrivals.generate_jobs`).
        policy: admission limits and QoS caps.
        horizon: run end in simulated seconds; defaults to the last
            arrival plus :data:`DEFAULT_HORIZON_TAIL`.  Jobs still
            queued or running at the horizon are censored.
        fault_plan: optional chaos campaign to execute under load.
        seed: seeds the latency probe's trace substreams only — job
            shapes are fixed by ``jobs``.
        remediation: optional
            :class:`~repro.resilience.playbooks.RemediationPolicy`; when
            given together with a ``fault_plan``, a
            :class:`~repro.resilience.runner.PlaybookRunner` closes the
            loop on every injected fault (the outcome lands in
            :attr:`remediation_outcome` after :meth:`run`).
        backpressure: optional
            :class:`~repro.network.routing.BackpressureController`; each
            allocation round feeds it the backbone utilization the round
            delivered and lets it flip the arbiter's degraded-mode caps
            (wired automatically when the controller has no arbiter of
            its own).  ``None`` — the default — changes nothing.
    """

    def __init__(
        self,
        system: SpiderSystem,
        jobs: tuple[JobSpec, ...] | list[JobSpec],
        *,
        policy: QosPolicy | None = None,
        horizon: float | None = None,
        fault_plan: FaultPlan | None = None,
        seed: int = 0,
        remediation: "RemediationPolicy | None" = None,
        backpressure: "BackpressureController | None" = None,
    ) -> None:
        self.system = system
        self.jobs = tuple(jobs)
        if not self.jobs:
            raise ValueError("need at least one job")
        self.policy = policy or QosPolicy()
        if horizon is None:
            horizon = max(spec.arrival for spec in self.jobs) + DEFAULT_HORIZON_TAIL
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = float(horizon)
        self.fault_plan = fault_plan
        self.seed = seed
        self.remediation = remediation
        #: the :class:`~repro.resilience.runner.RemediationOutcome` of the
        #: last :meth:`run`, when a policy was supplied (``None`` otherwise)
        self.remediation_outcome: "RemediationOutcome | None" = None
        self._arbiter = BandwidthArbiter(self.policy)
        self._backpressure = backpressure
        if backpressure is not None and backpressure.arbiter is None:
            backpressure.arbiter = self._arbiter
        self._baseline_backbone = float(
            system.aggregate_bandwidth(fs_level=True))
        if self._baseline_backbone <= 0:
            raise ValueError("system delivers no fs-level bandwidth")
        self._router_bw_cap = float(system.spec.router_bw_cap)
        # run state (created fresh by run())
        self._engine: Engine | None = None
        self._state = _RunState()
        self._active_io: dict[str, _Job] = {}
        self._running: dict[PlatformClass, int] = {}
        self._queues: dict[PlatformClass, deque[_Job]] = {}
        self._finished: list[_Job] = []
        self._submitted: list[_Job] = []
        self._faults: FaultExecutor | None = None
        self._epoch: Epoch | None = None
        # settle vectors: the active I/O phases as of the last flush, in
        # _active_io insertion order (jobs added since are appended to
        # _active_io with rate 0 and join the vectors at the next flush)
        self._io_jobs: list[_Job] = []
        self._io_rates = _EMPTY_F
        self._io_remaining = _EMPTY_F
        self._io_codes = np.empty(0, dtype=np.intp)
        self._io_drain_eps = _EMPTY_F
        self._bg_rate_sum = 0.0
        self._ana_count = 0
        self._classes = list(PlatformClass)
        # cumulative delivered bytes per class code — credited per phase
        # at completion (a drained phase delivered its volume) plus a
        # partial-progress credit for phases still active at the horizon
        self._delivered = [0.0] * len(self._classes)
        self._class_code = {cls: i for i, cls in enumerate(self._classes)}
        self._ana_code = self._class_code[PlatformClass.ANALYTICS]
        self._backbone_dirty = True
        self._backbone_bw = self._baseline_backbone
        self._ingest_caps: dict[PlatformClass, float] = {}
        self._isolated_caps: dict[PlatformClass, float] = {}
        self._refresh_capacity()
        # The *isolated* capacity per class is frozen at the healthy
        # system: the machine-exclusive baseline does not degrade when a
        # fault campaign later hurts the shared instance.
        self._isolated_caps = {
            cls: min(self._ingest_caps.get(cls, math.inf),
                     self._baseline_backbone)
            for cls in PlatformClass
        }

    # -- capacity ------------------------------------------------------------

    def _refresh_capacity(self) -> None:
        """Recompute the backbone and per-class ingest caps from the live
        system (called lazily, only after a fault or repair)."""
        self._backbone_bw = float(
            self.system.aggregate_bandwidth(fs_level=True))
        if self.system.routers:
            n_live = sum(
                1 for router in self.system.routers
                if self.system.lnet.router_online(router.name))
            sim_ingest = n_live * self._router_bw_cap
        else:
            sim_ingest = math.inf
        self._ingest_caps = {
            PlatformClass.SIMULATION: sim_ingest,
            PlatformClass.ANALYTICS:
                ANALYTICS_INGEST_FRACTION * self._baseline_backbone,
            PlatformClass.DATA_TRANSFER:
                DTN_INGEST_FRACTION * self._baseline_backbone,
        }
        self._backbone_dirty = False

    # -- job lifecycle -------------------------------------------------------

    def _submit(self, job: _Job) -> None:
        engine = self._engine
        assert engine is not None
        self._state.n_submitted += 1
        self._submitted.append(job)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("sched.submitted",
                              job.platform.value).add(1.0)
        cls = job.platform
        if self._running.get(cls, 0) < self.policy.limit_of(cls):
            self._start_job(job)
        else:
            self._queues.setdefault(cls, deque()).append(job)
        self._resolve(f"submit:{job.spec.name}")

    def _start_job(self, job: _Job) -> None:
        engine = self._engine
        assert engine is not None
        cls = job.platform
        self._running[cls] = self._running.get(cls, 0) + 1
        job.start = engine.now
        job.span = get_tracer().open(
            f"job:{job.spec.name}", "sched", platform=cls.value)
        self._begin_phase(job)

    def _begin_phase(self, job: _Job) -> None:
        engine = self._engine
        assert engine is not None
        phase = job.spec.phases[job.phase_index]
        job.phase_start = engine.now
        if phase.kind == "compute":
            engine.call_after(phase.duration,
                              lambda j=job: self._compute_done(j))
        else:
            job.remaining = float(phase.volume)
            # io_time accrues from the settle point active when the phase
            # joined (the settles partition time, so the accrued span is
            # completion minus this mark).
            job.io_enter = self._state.last_settle
            self._active_io[job.spec.name] = job
            if job.code == self._ana_code:
                self._ana_count += 1
            # The arbiter's flow table mirrors _active_io add-for-add and
            # remove-for-remove, so its rate array stays aligned with
            # this dict's insertion order.
            self._arbiter.add(job.spec.name, job.platform, phase.demand)

    def _compute_done(self, job: _Job) -> None:
        self._advance(job)
        self._resolve(f"phase:{job.spec.name}")

    def _advance(self, job: _Job) -> None:
        """Move to the next phase, or finish the job."""
        job.phase_index += 1
        if job.phase_index >= len(job.spec.phases):
            self._finish_job(job)
        else:
            self._begin_phase(job)

    def _complete_io_phase(self, job: _Job) -> None:
        engine = self._engine
        assert engine is not None
        phase = job.spec.phases[job.phase_index]
        del self._active_io[job.spec.name]
        self._arbiter.remove(job.spec.name)
        self._delivered[job.code] += phase.volume
        job.io_time += engine.now - job.io_enter
        if job.code == self._ana_code:
            self._ana_count -= 1
        drain = engine.now - job.phase_start
        isolated = phase.volume / min(
            phase.demand, self._isolated_caps[job.platform])
        if isolated > 0:
            overrun = drain / isolated
            if job.worst_overrun is None or overrun > job.worst_overrun:
                job.worst_overrun = overrun
        self._advance(job)

    def _finish_job(self, job: _Job) -> None:
        engine = self._engine
        assert engine is not None
        job.finish = engine.now
        self._state.n_finished += 1
        self._state.makespan = max(self._state.makespan, engine.now)
        self._finished.append(job)
        cls = job.platform
        self._running[cls] = self._running.get(cls, 1) - 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("sched.finished", cls.value).add(1.0)
            if job.start is not None:
                iso = job.spec.isolated_runtime(self._isolated_caps[cls])
                if iso > 0:
                    telemetry.histogram("sched.slowdown").observe(
                        (job.finish - job.start) / iso)
        get_tracer().end(job.span, finished=True)
        job.span = None
        queue = self._queues.get(cls)
        while (queue and self._running.get(cls, 0) < self.policy.limit_of(cls)):
            self._start_job(queue.popleft())

    # -- fault composition ---------------------------------------------------

    def _fault_changed(self, fault, injector, phase: str) -> None:
        """Executor hook: a fault changed the live system, so recompute
        the backbone at the next allocation round."""
        self._backbone_dirty = True
        self._resolve(f"{_FAULT_LABELS[phase]}:{fault.label}")

    # -- the allocation loop -------------------------------------------------

    def _settle(self, now: float) -> None:
        """Account fluid progress since the previous settle point.

        Pure vector work over the settle vectors: rates are constant
        between flushes, so the drained volume is one ``minimum`` over
        the active phases.  Per-job io_time is not touched here — it
        accrues at phase completion from the ``io_enter`` mark, which
        sums the same settle intervals.
        """
        state = self._state
        dt = now - state.last_settle
        state.last_settle = now
        if dt <= 0 or not self._active_io:
            return
        if self._io_jobs:
            remaining = self._io_remaining
            remaining -= np.minimum(self._io_rates * dt, remaining)
        if self._ana_count:
            state.bg_samples.append((dt, self._bg_rate_sum))

    def _resolve(self, label: str) -> None:
        """Request an allocation round for the current tick.

        Routed through the epoch: a burst of same-tick state changes
        collapses into one :meth:`_flush` at end of tick.
        """
        epoch = self._epoch
        assert epoch is not None
        epoch.request(label)

    def _flush(self, label: str) -> None:
        """Settle progress, complete drained phases, re-allocate, and
        schedule the next projected completion (the epoch flush)."""
        engine = self._engine
        assert engine is not None
        state = self._state
        state.epoch += 1
        self._settle(engine.now)
        # Completing a phase can cascade: finish the job, admit a queued
        # one, begin its first I/O phase — all at the current instant,
        # all folded into this one allocation round.
        drained: list[_Job] = []
        io_jobs = self._io_jobs
        keep: np.ndarray | None = None
        if io_jobs:
            # _io_drain_eps = max(byte eps, rate * time eps), precomputed
            # at the last rebuild (rates are constant between flushes).
            mask = self._io_remaining <= self._io_drain_eps
            if mask.any():
                drained = [io_jobs[i]
                           for i in np.flatnonzero(mask).tolist()]
                keep = ~mask
        # Phases that joined after the last flush have rate 0 and drain
        # only if born trivially small.
        if len(self._active_io) > len(io_jobs):
            for job in list(self._active_io.values())[len(io_jobs):]:
                if job.remaining <= _DONE_EPS_BYTES:
                    drained.append(job)
        for job in drained:
            self._complete_io_phase(job)
        if self._backbone_dirty:
            self._refresh_capacity()
        rates = self._arbiter.reallocate(
            backbone_capacity=self._backbone_bw,
            ingest_caps=self._ingest_caps)
        # Rebuild the settle vectors: rates from the solve; remaining and
        # codes carried over from the settled vectors (drained slots
        # dropped) with phases joining now appended.  The surviving old
        # vector entries are exactly the leading entries of _active_io,
        # in order: completions happen only in the drain pass above, and
        # every later add appends behind them.
        active = list(self._active_io.values())
        n_active = len(active)
        assert n_active == len(rates)
        old_remaining = (self._io_remaining if keep is None
                         else self._io_remaining[keep])
        n_surviving = len(old_remaining)
        if n_active > n_surviving:
            tail = active[n_surviving:]
            new_remaining = np.concatenate(
                (old_remaining, [job.remaining for job in tail]))
            codes = np.concatenate(
                (self._io_codes[keep] if keep is not None
                 else self._io_codes,
                 np.asarray([job.code for job in tail], dtype=np.intp)))
        else:
            new_remaining = old_remaining
            codes = self._io_codes[keep] if keep is not None else self._io_codes
        class_rates = np.bincount(codes, weights=rates,
                                  minlength=len(self._classes))
        total = float(class_rates.sum())
        bg_sum = total - float(class_rates[self._ana_code])
        if self._backpressure is not None:
            # Feed the round's backbone utilization to the controller and
            # let it debounce; a degraded-mode flip lands as new caps at
            # the *next* round (the one-round control lag a real shed
            # path would have).
            controller = self._backpressure
            util = total / self._backbone_bw if self._backbone_bw > 0 else 0.0
            controller.feed.observe(BACKBONE_COMPONENT, util, engine.now)
            controller.update(engine.now)
        if n_active:
            self._io_drain_eps = np.maximum(_DONE_EPS_BYTES,
                                            rates * _DONE_EPS_S)
            if total > 0.0:
                # Flooring the rates keeps stalled phases (rate 0) out of
                # the minimum without building an inf-filled out array —
                # their quotients land around 1e212, never the min of a
                # mix that contains at least one flowing phase.
                next_dt = float(
                    (new_remaining / np.maximum(rates, _RATE_FLOOR)).min())
            else:
                next_dt = math.inf
        else:
            next_dt = math.inf
            self._io_drain_eps = _EMPTY_F
        self._io_jobs = active
        self._io_rates = rates
        self._io_remaining = new_remaining
        self._io_codes = codes
        self._bg_rate_sum = bg_sum
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("sched.resolves").add(1.0)
        state.timeline.append((engine.now, total, label))
        # One wakeup for the earliest projected completion; the epoch
        # guard voids it if any state change re-solves first.
        if math.isfinite(next_dt):
            epoch = state.epoch
            engine.call_at(engine.now + max(_DONE_EPS_S, next_dt),
                           lambda e=epoch: self._wakeup(e))

    def _wakeup(self, epoch: int) -> None:
        if epoch != self._state.epoch:
            return
        self._resolve("progress")

    # -- execution -----------------------------------------------------------

    @property
    def solve_counts(self) -> dict[str, int]:
        """Cumulative arbiter re-solve counts by resolve path.

        Keys are the :data:`~repro.core.flow.RESOLVE_COUNTERS` suffixes
        (``full`` / ``delta`` / ``cached``).  Every arbiter flow crosses
        the shared backbone, so each ``delta`` re-fills the whole network.
        The benchmark regression gate asserts a ceiling on ``full`` — see
        ``docs/PERFORMANCE.md``.
        """
        return self._arbiter.solve_counts

    def run(self) -> SchedResult:
        """Execute the population to the horizon and return the
        :class:`~repro.sched.metrics.SchedResult`."""
        engine = self._engine = Engine()
        instrument_engine(engine, get_telemetry(), get_tracer())
        self._epoch = Epoch(self._flush, engine=engine)
        self._arbiter.reset()
        self._state = _RunState()
        self._delivered = [0.0] * len(self._classes)
        self._active_io.clear()
        self._io_jobs = []
        self._io_rates = _EMPTY_F
        self._io_remaining = _EMPTY_F
        self._io_codes = np.empty(0, dtype=np.intp)
        self._io_drain_eps = _EMPTY_F
        self._bg_rate_sum = 0.0
        self._ana_count = 0
        self._running = {cls: 0 for cls in PlatformClass}
        self._queues = {cls: deque() for cls in PlatformClass}
        self._finished.clear()
        self._submitted.clear()
        self._backbone_dirty = True
        self.remediation_outcome = None

        runtime_jobs = [_Job(spec, code=self._class_code[spec.platform])
                        for spec in self.jobs]
        for job in runtime_jobs:
            if job.spec.arrival < self.horizon:
                engine.call_at(job.spec.arrival,
                               lambda j=job: self._submit(j))
        self._faults = None
        if self.fault_plan is not None:
            self._faults = FaultExecutor(
                self.system, self.fault_plan, engine=engine,
                changed=self._fault_changed, remediation=self.remediation)
        engine.run(until=self.horizon)
        # Account the tail interval and close censored spans.
        self._settle(self.horizon)
        # Partial delivery credit for phases censored mid-drain (the
        # settle vectors carry their drained state; phases that joined
        # after the last flush never flowed).
        remaining = self._io_remaining.tolist()
        for k, job in enumerate(self._io_jobs):
            phase = job.spec.phases[job.phase_index]
            self._delivered[job.code] += phase.volume - remaining[k]
        tracer = get_tracer()
        for job in runtime_jobs:
            if job.span is not None:
                tracer.end(job.span, finished=False)
                job.span = None
        if self._faults is not None:
            self.remediation_outcome = self._faults.finish()
        return self._result()

    # -- metrics -------------------------------------------------------------

    def _outcome(self, job: _Job) -> JobOutcome:
        spec = job.spec
        isolated = spec.isolated_runtime(self._isolated_caps[job.platform])
        censored = job.finish is None
        slowdown = stretch = satisfaction = None
        if not censored and job.start is not None and isolated > 0:
            slowdown = (job.finish - job.start) / isolated
            stretch = (job.finish - spec.arrival) / isolated
            iso_io = spec.isolated_io_time(self._isolated_caps[job.platform])
            if job.io_time > 0 and iso_io > 0:
                satisfaction = iso_io / job.io_time
        return JobOutcome(
            name=spec.name,
            platform=job.platform.value,
            arrival=spec.arrival,
            start=job.start,
            finish=job.finish,
            censored=censored,
            isolated_runtime=isolated,
            slowdown=slowdown,
            stretch=stretch,
            satisfaction=satisfaction,
            drain_overrun=None if censored else job.worst_overrun,
        )

    def _latency_probe(self) -> LatencyProbe | None:
        """Replay a representative analytics session alone vs against the
        background bandwidth the arbiter delivered during analytics
        activity, scaled to one OST-class station."""
        state = self._state
        if not any(job.platform is PlatformClass.ANALYTICS
                   for job in self._submitted):
            return None
        station_bw = min(PROBE_STATION_CAP,
                         self._baseline_backbone / PROBE_STATION_DIVISOR)
        # Calibrate by service-time utilization: the positioning cost
        # dominates small requests, so byte rates alone misstate load.
        mean_service = (PROBE_POSITIONING_S
                        + PROBE_MEAN_REQUEST_BYTES / station_bw)
        request_rate = PROBE_UTILIZATION * PROBE_N_SERVERS / mean_service
        rng = RngStreams(self.seed)
        primary = analytics_trace(
            AnalyticsApp(name="sched-probe", request_rate=request_rate),
            PROBE_DURATION, rng.get("probe:analytics"))
        if len(primary) == 0:
            return None
        # The background offers the station the same utilization the
        # non-analytics classes put on the backbone at peak.  Coarsening
        # to the request ceiling re-derives the rate from the larger
        # request, so the offered utilization is preserved exactly.
        bg_frac = (_weighted_percentile(state.bg_samples, PROBE_BG_PERCENTILE)
                   / self._baseline_backbone)
        req_bytes = float(PROBE_BG_REQUEST_BYTES)
        bg_service = PROBE_POSITIONING_S + req_bytes / station_bw
        bg_rate = bg_frac * PROBE_N_SERVERS / bg_service
        n_requests = int(bg_rate * PROBE_DURATION)
        if n_requests > PROBE_BG_MAX_REQUESTS:
            factor = int(np.ceil(n_requests / PROBE_BG_MAX_REQUESTS))
            req_bytes *= factor
            bg_service = PROBE_POSITIONING_S + req_bytes / station_bw
            bg_rate = bg_frac * PROBE_N_SERVERS / bg_service
            n_requests = int(bg_rate * PROBE_DURATION)
        times = (np.arange(n_requests) + 0.5) * (PROBE_DURATION
                                                 / max(1, n_requests))
        background = RequestTrace(
            times,
            np.full(n_requests, req_bytes),
            np.ones(n_requests, dtype=bool),
            label="sched-bg")
        alone_results, shared, _merged = isolated_and_shared(
            [primary, background], bandwidth=station_bw,
            n_servers=PROBE_N_SERVERS,
            positioning_time=PROBE_POSITIONING_S,
            alone_sources=(0,))
        alone = alone_results[0]
        alone_p50, alone_p99 = alone.percentiles([50, 99], reads_only=True)
        shared_p50, shared_p99 = shared.percentiles([50, 99],
                                                    reads_only=True, source=0)
        return LatencyProbe(
            station_bandwidth=float(station_bw),
            background_bandwidth=float(bg_rate * req_bytes),
            alone_p50=alone_p50,
            alone_p99=alone_p99,
            shared_p50=shared_p50,
            shared_p99=shared_p99,
        )

    def _result(self) -> SchedResult:
        state = self._state
        outcomes = sorted((self._outcome(job) for job in self._submitted),
                          key=lambda o: o.name)
        by_class: dict[str, list[JobOutcome]] = {}
        for outcome in outcomes:
            by_class.setdefault(outcome.platform, []).append(outcome)
        summaries = tuple(
            (value, ClassSummary.from_outcomes(by_class[value]))
            for value in sorted(by_class))
        satisfactions = [o.satisfaction for o in outcomes
                         if o.satisfaction is not None]
        faults = self._faults
        n_fault_events = (0 if faults is None else faults.n_injected
                          + faults.n_repaired + faults.n_recovered)
        return SchedResult(
            horizon=self.horizon,
            qos_enabled=self.policy.enabled,
            n_jobs=len(self.jobs),
            n_submitted=state.n_submitted,
            n_finished=state.n_finished,
            n_censored=state.n_submitted - state.n_finished,
            n_fault_events=n_fault_events,
            makespan=state.makespan if state.n_finished else self.horizon,
            class_summaries=summaries,
            outcomes=tuple(outcomes),
            timeline=tuple(state.timeline),
            delivered_by_class=tuple(sorted(
                (cls.value, self._delivered[code])
                for cls, code in self._class_code.items())),
            overall_fairness=jains_index(satisfactions),
            latency=self._latency_probe(),
        )
