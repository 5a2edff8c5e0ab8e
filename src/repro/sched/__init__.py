"""repro.sched — the center-wide multi-tenant scheduler and QoS arbiter.

The paper's premise is one file system serving every platform in the
center at once; this package models the facility at that level — a
*population* of concurrent jobs arbitrated over the shared backbone:

* :mod:`repro.sched.jobs` — the tenancy model: three
  :class:`PlatformClass` tenants (simulation, analytics, data transfer),
  each job a phase sequence (:class:`Phase`, :class:`JobSpec`);
* :mod:`repro.sched.arrivals` — seed-deterministic Poisson arrival
  generators per class (:class:`JobMix`, :func:`generate_jobs`);
* :mod:`repro.sched.qos` — :class:`QosPolicy` caps/limits and
  the :class:`BandwidthArbiter` that re-solves the flow network at every
  state change;
* :mod:`repro.sched.scheduler` — :class:`FacilityScheduler` drives the
  discrete-event engine, composes with :mod:`repro.faults` to run chaos
  under load, and reports job-visible impact;
* :mod:`repro.sched.metrics` — :class:`JobOutcome`, per-class
  :class:`ClassSummary` with Jain's :func:`jains_index`, the analytics
  :class:`LatencyProbe`, and the deterministic :class:`SchedResult`.

Typical use::

    from repro.core.spider import build_spider2
    from repro.sched import FacilityScheduler, JobMix, generate_jobs

    system = build_spider2(build_clients=False)
    backbone = system.aggregate_bandwidth(fs_level=True)
    jobs = generate_jobs(JobMix(), duration=86_400, seed=42,
                         reference_bandwidth=backbone)
    result = FacilityScheduler(system, jobs, seed=42).run()
    print(result.class_rows(), result.overall_fairness)
"""

from repro.sched.arrivals import JobMix, generate_jobs
from repro.sched.jobs import JobSpec, Phase, PlatformClass
from repro.sched.metrics import (
    ClassSummary,
    JobOutcome,
    LatencyProbe,
    SchedResult,
    jains_index,
)
from repro.sched.qos import BACKBONE_COMPONENT, BandwidthArbiter, QosPolicy
from repro.sched.scheduler import FacilityScheduler

__all__ = [
    "PlatformClass",
    "Phase",
    "JobSpec",
    "JobMix",
    "generate_jobs",
    "QosPolicy",
    "BandwidthArbiter",
    "BACKBONE_COMPONENT",
    "jains_index",
    "JobOutcome",
    "ClassSummary",
    "LatencyProbe",
    "SchedResult",
    "FacilityScheduler",
]
