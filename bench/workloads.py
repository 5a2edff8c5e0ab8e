"""The four study workloads the benchmark times.

Each workload builds its inputs from the seed in :func:`Workload.prepare`
(the set-up, timed separately), hands back one zero-argument callable —
the timed call into the public ``repro`` API — and reduces that call's
result to a flat dict of plain values (:func:`Workload.summarize`) for the
correctness checks.  Sizes are keyword arguments of ``prepare`` so the
smoke test can run every workload in-process at a tiny size; the
benchmark itself always runs the defaults.

Every ``repro`` import happens inside ``prepare``: the import cost is part
of the measured set-up, and importing this module needs no ``repro``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Setup", "Workload", "WORKLOADS"]


class Setup:
    """Accumulates the set-up split: system builds and study objects
    (``build``) versus generated inputs (``inputs``)."""

    def __init__(self) -> None:
        self.seconds = {"build": 0.0, "inputs": 0.0}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: what one unit of ``work`` is, for ``work_per_s``
    work_unit: str
    #: ``prepare(seed, setup, **sizes)`` → the timed zero-argument call
    prepare: Callable[..., Callable[[], object]]
    #: the timed call's result → flat dict of plain values
    summarize: Callable[[object], dict]
    #: summarized outputs → units of work done
    work: Callable[[dict], float]
    #: summarized outputs → ``{invariant name: holds}`` for any seed
    invariants: Callable[[dict], dict[str, bool]]


# -- sched_qos: the A14 caps-off / caps-on pair ------------------------------
# Arbiter add/remove deltas on one persistent FlowNetwork dominate; it
# uses no overlay, no PathBuilder and no metatier.

def _prepare_sched(seed: int, setup: Setup, *, days: float = 28.0):
    from repro.core.spider import build_spider2
    from repro.sched import FacilityScheduler, JobMix, QosPolicy, generate_jobs
    from repro.units import DAY

    schedulers = []
    for policy in (QosPolicy.disabled(), QosPolicy()):
        # Fresh system per arm, as the CLI does: a run mutates its system.
        with setup.phase("build"):
            system = build_spider2(seed=seed, build_clients=False)
        with setup.phase("inputs"):
            jobs = generate_jobs(
                JobMix(), duration=days * DAY, seed=seed,
                reference_bandwidth=system.aggregate_bandwidth(fs_level=True))
        with setup.phase("build"):
            schedulers.append(
                FacilityScheduler(system, jobs, policy=policy, seed=seed))
    return lambda: tuple(s.run() for s in schedulers)


def _summarize_sched(results) -> dict:
    out: dict = {}
    for arm, r in zip(("off", "on"), results):
        out[f"{arm}.jobs"] = r.n_jobs
        out[f"{arm}.finished"] = r.n_finished
        out[f"{arm}.censored"] = r.n_censored
        out[f"{arm}.makespan"] = r.makespan
        out[f"{arm}.fairness"] = r.overall_fairness
        out[f"{arm}.p99_inflation"] = (
            r.latency.p99_inflation if r.latency is not None else None)
        out[f"{arm}.resolves"] = len(r.timeline)
    return out


def _sched_invariants(out: dict) -> dict[str, bool]:
    return {
        f"{arm}: finished + censored == jobs generated":
            out[f"{arm}.finished"] + out[f"{arm}.censored"] == out[f"{arm}.jobs"]
        for arm in ("off", "on")
    }


# -- storm_row: the A19 static / flowlet pair in the scarce-row regime -------
# Overlay scrape and rollup over thousands of link probes, torus path
# enumeration and path rebuilds; no scheduler, no metatier.  The CLI's
# 2-hour timeline is too long for the run budget, so it runs 2,400 s.

def _prepare_storm(seed: int, setup: Setup, *, clients: int = 24,
                   stripe: int = 12, duration: float = 2400.0):
    from dataclasses import replace

    from repro.core.spider import SPIDER2, build_spider2
    from repro.network.storm import run_storm_study
    from repro.units import GB

    # The CLI's scarce-row spec: 0.5 GB/s torus links.
    spec = replace(SPIDER2, torus=replace(SPIDER2.torus, link_bw=0.5 * GB))
    with setup.phase("build"):
        systems = [build_spider2(seed=seed, build_clients=False, spec=spec)
                   for _arm in ("static", "flowlet")]
    factory = iter(systems).__next__
    return lambda: run_storm_study(
        factory, seed=seed, n_storm_clients=clients, stripe=stripe,
        duration=duration, storm_start=duration / 4,
        storm_end=3 * duration / 4)


def _summarize_storm(result) -> dict:
    out: dict = {}
    for arm in (result.static, result.flowlet):
        out[f"{arm.name}.p50"] = arm.latency_p50
        out[f"{arm.name}.p99"] = arm.latency_p99
        out[f"{arm.name}.min_probe_rate"] = arm.min_probe_rate
        out[f"{arm.name}.peak_victim_util"] = arm.peak_victim_util
        out[f"{arm.name}.full_solves"] = arm.full_solves
        out[f"{arm.name}.rehashes"] = arm.rehashes
        out[f"{arm.name}.stale_reads"] = arm.stale_reads
        out[f"{arm.name}.backpressure_engagements"] = (
            arm.backpressure_engagements)
        out[f"{arm.name}.samples"] = len(arm.samples)
    return out


def _storm_invariants(out: dict) -> dict[str, bool]:
    return {"flowlet p99 <= static p99": out["flowlet.p99"] <= out["static.p99"]}


# -- fault_day: a remediated, monitored random fault day ---------------------
# Capacity deltas through PathBuilder.resolve, 149 overlay agents with a
# few probes each, and the only faults and remediation in the benchmark.

def _prepare_fault(seed: int, setup: Setup, *, hours: float = 24.0,
                   n_faults: int = 96):
    from repro.core.spider import build_spider2
    from repro.faults import FaultCampaign, FaultPlan
    from repro.obs.overlay import MonitoringOverlay, OverlayConfig
    from repro.resilience import RemediationPolicy
    from repro.units import HOUR

    duration = hours * HOUR
    with setup.phase("build"):
        system = build_spider2(seed=seed)
    with setup.phase("inputs"):
        plan = FaultPlan.random(system, duration=duration, n_faults=n_faults,
                                seed=seed)
    with setup.phase("build"):
        campaign = FaultCampaign(
            system, plan, duration=duration,
            remediation=RemediationPolicy(seed=seed),
            monitor=MonitoringOverlay(system, OverlayConfig(seed=seed)))
    return campaign.run


def _summarize_fault(result) -> dict:
    overlay = result.overlay
    remediation = result.remediation
    return {
        "hours": result.duration / 3600.0,
        "availability": result.availability,
        "worst_bw": result.worst_bw,
        "final_bw": result.final_bw,
        "time_below_threshold": result.time_below_threshold,
        "timeline_samples": len(result.timeline),
        "unroutable": result.unroutable_flows,
        "injected": result.n_injected,
        "repaired": result.n_repaired,
        "overlay.batches": overlay.n_batches,
        "overlay.lost": overlay.n_lost,
        "overlay.windows": overlay.n_windows,
        "overlay.alerts": len(overlay.alerts),
        "remediation.applied": remediation.n_applied,
        "remediation.escalated": remediation.n_escalated,
        "remediation.mean_mttr": remediation.mean_mttr_seconds,
    }


def _fault_invariants(out: dict) -> dict[str, bool]:
    return {"repaired == injected": out["repaired"] == out["injected"]}


# -- meta_250k: the A18 per-file / aggregated pair at 250k files -------------
# Metatier and the lustre namespace only: no flow, no overlay.  At 250k
# files superlinear costs show; 10^6 files is too long for the budget.

def _prepare_meta(seed: int, setup: Setup, *, n_files: int = 250_000):
    from repro.metatier import MetaStudySpec, run_meta_study

    with setup.phase("inputs"):
        spec = MetaStudySpec(n_files=n_files, seed=seed)
    return lambda: run_meta_study(spec)


def _summarize_meta(result) -> dict:
    out: dict = {"gain": result.throughput_gain}
    for arm, r in (("per_file", result.baseline),
                   ("aggregated", result.aggregated)):
        out[f"{arm}.creates"] = r.n_creates
        out[f"{arm}.reads"] = r.n_reads
        out[f"{arm}.deletes"] = r.n_deletes
        out[f"{arm}.audit_examined"] = r.audit_examined
        out[f"{arm}.purged"] = r.n_purged
        out[f"{arm}.logical_ops"] = r.logical_ops
        out[f"{arm}.mds_ops"] = r.mds_ops
        out[f"{arm}.mds_makespan"] = r.mds_busy_makespan
    out["aggregated.compactions"] = result.aggregated.n_compaction_passes
    out["aggregated.segments"] = result.aggregated.n_segments
    return out


def _meta_invariants(out: dict) -> dict[str, bool]:
    return {"both arms issue equal logical ops":
            out["per_file.logical_ops"] == out["aggregated.logical_ops"]}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sched_qos",
        work_unit="jobs simulated, both arms",
        prepare=_prepare_sched,
        summarize=_summarize_sched,
        work=lambda out: out["off.jobs"] + out["on.jobs"],
        invariants=_sched_invariants,
    ),
    Workload(
        name="storm_row",
        work_unit="probe samples, both arms",
        prepare=_prepare_storm,
        summarize=_summarize_storm,
        work=lambda out: out["static.samples"] + out["flowlet.samples"],
        invariants=_storm_invariants,
    ),
    Workload(
        name="fault_day",
        work_unit="simulated hours",
        prepare=_prepare_fault,
        summarize=_summarize_fault,
        work=lambda out: out["hours"],
        invariants=_fault_invariants,
    ),
    Workload(
        name="meta_250k",
        work_unit="logical metadata ops, both arms",
        prepare=_prepare_meta,
        summarize=_summarize_meta,
        work=lambda out: (out["per_file.logical_ops"]
                          + out["aggregated.logical_ops"]),
        invariants=_meta_invariants,
    ),
)}
