"""Perf gate: congestion-aware routing must ride along for (almost) free.

The facility scheduler threads a
:class:`~repro.network.routing.BackpressureController` through its
allocation loop: every round feeds the controller the backbone
utilization it delivered and lets it debounce a degraded-mode flip.
That wiring sits on the scheduler's hottest path, so this bench re-runs
the ``BENCH_sched`` 1,000+-job day twice — bare vs. with the controller
attached — and pins three regression gates (see ``docs/PERFORMANCE.md``):

* an overhead ceiling — the controller costs ≤ 10% wall clock;
* the same jobs/s floor the bare scheduler must clear, now demanded of
  the *monitored* run, so routing can never eat the delta-solver's win;
* bit-identity — with QoS disabled the degraded cap has no component to
  bind, so both runs must produce ``==``-equal results (the controller
  observes, it must not perturb).

The record also archives the A19 storm headline (static collapse vs.
flowlet recovery on the scarce-row mini system) so ``BENCH_routing.json``
carries both halves of the routing contract: the win and its price.
Results land in ``BENCH_routing.json`` at the repo root.
"""

from __future__ import annotations

import statistics

from repro.network.routing import BackpressureController, LinkStatsFeed
from repro.sched import BACKBONE_COMPONENT, FacilityScheduler, QosPolicy
from repro.units import HOUR
from tests.test_routing_storm import quick_study

from perfgate import (
    JOB_DAY_SEED,
    JOB_DAY_WINDOW,
    JOBS_PER_S_FLOOR,
    interleaved,
    job_day,
    timed,
)

#: paired trials; more than BENCH_sched's best-of-5 because the gate
#: here is a *ratio* of two small wall clocks, so the statistic is the
#: median over per-pair ratios and the median of nine is stable where a
#: best-of-N difference is not.
_TRIALS = 9

#: ceiling on the controller's wall-clock tax over the bare scheduler.
_LIMIT_FRACTION = 0.10


def _run(system, jobs, *, monitored: bool):
    """One scheduler day, timed around ``run()``.  A fresh controller per
    run — streak state must not leak across trials."""
    backpressure = (BackpressureController(LinkStatsFeed(),
                                           (BACKBONE_COMPONENT,))
                    if monitored else None)
    sched = FacilityScheduler(system, jobs, policy=QosPolicy.disabled(),
                              seed=JOB_DAY_SEED, backpressure=backpressure)
    return timed(sched.run)


def test_routing_backpressure_overhead_within_budget(record):
    # Paired trials, back to back, so each ratio samples one moment of
    # machine state.  The gate statistic is the *median* of the per-pair
    # wall-clock ratios: an arm-wide minimum taken across the whole run
    # soaks up warm-up and frequency-scaling drift as fake overhead,
    # while a paired median is centered on the intrinsic cost ratio and
    # a single loaded pair cannot move it.
    system, jobs = job_day()
    bare, monitored = interleaved(
        [lambda: _run(system, jobs, monitored=False),
         lambda: _run(system, jobs, monitored=True)], _TRIALS)
    overhead = statistics.median(
        on_wall / off_wall
        for (off_wall, _), (on_wall, _) in zip(bare, monitored)) - 1.0
    bare_wall = min(wall for wall, _ in bare)
    monitored_wall = min(wall for wall, _ in monitored)
    bare_result, monitored_result = bare[-1][1], monitored[-1][1]
    jobs_per_s = monitored_result.n_jobs / monitored_wall

    # The storm headline rides in the record: the quick mini study the
    # routing tests pin (scarce-row regime, seed 11), so the JSON carries
    # the win the overhead above pays for.
    study = quick_study()

    record("routing", {
        "workload": (f"FacilityScheduler, {monitored_result.n_jobs} jobs "
                     f"over {JOB_DAY_WINDOW / HOUR:.0f} h on mini, bare vs "
                     f"backpressure-monitored"),
        "n_jobs": monitored_result.n_jobs,
        "trials": _TRIALS,
        "bare_wall_s": bare_wall,
        "monitored_wall_s": monitored_wall,
        "overhead_fraction": overhead,
        "limit_fraction": _LIMIT_FRACTION,
        "jobs_per_second": jobs_per_s,
        "jobs_per_second_floor": JOBS_PER_S_FLOOR,
        "results_identical": monitored_result == bare_result,
        "storm": {
            "study": "A19 mini, scarce-row regime (0.5 GB/s links)",
            "static_p99_s": study.static.latency_p99,
            "flowlet_p99_s": study.flowlet.latency_p99,
            "recovery_factor": study.recovery_factor,
            "rehashes": study.flowlet.rehashes,
            "backpressure_engagements": study.flowlet.backpressure_engagements,
        },
    }, [
        f"jobs scheduled: {monitored_result.n_jobs} "
        f"(finished {monitored_result.n_finished})",
        f"bare wall: {bare_wall:.2f} s, monitored wall: "
        f"{monitored_wall:.2f} s (best of {_TRIALS} paired trials)",
        f"overhead: {overhead:+.1%} median of {_TRIALS} paired ratios "
        f"(limit {_LIMIT_FRACTION:.0%})",
        f"throughput monitored: {jobs_per_s:.0f} jobs/s "
        f"(floor {JOBS_PER_S_FLOOR:.0f})",
        f"storm headline: static p99 {study.static.latency_p99:.2f} s vs "
        f"flowlet {study.flowlet.latency_p99:.2f} s "
        f"({study.recovery_factor:.1f}x recovery)",
    ])

    assert monitored_result == bare_result, (
        "the backpressure controller perturbed scheduling: with QoS "
        "disabled the degraded cap binds nothing, so the monitored run "
        "must be bit-identical to the bare run")
    assert overhead <= _LIMIT_FRACTION, (
        f"backpressure monitoring cost {overhead:.1%} wall clock over "
        f"the bare scheduler (limit {_LIMIT_FRACTION:.0%})")
    assert jobs_per_s >= JOBS_PER_S_FLOOR, (
        f"monitored throughput {jobs_per_s:.0f} jobs/s fell below the "
        f"{JOBS_PER_S_FLOOR:.0f} jobs/s floor the bare scheduler is "
        f"held to")
    assert study.recovery_factor >= 10.0, (
        f"storm recovery {study.recovery_factor:.1f}x fell below the "
        f"10x headline the routing layer is sold on")
