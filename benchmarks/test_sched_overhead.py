"""Perf gate: the facility scheduler must handle a dense job day cheaply.

The scheduler re-solves the flow network on every job start/finish/phase
change, so its cost grows with job count × phase count.  This bench runs
a 1,000+-job three-class mix through ``FacilityScheduler`` on a miniature
deployment and asserts two regression floors that pin the incremental
solver down (see ``docs/PERFORMANCE.md``):

* a jobs/s floor — the delta re-solve path must stay the fast path;
* a full-resolve ceiling — once warm, every re-solve must ride the
  delta/cached paths, never a from-scratch rebuild.

Results land in ``BENCH_sched.json`` at the repo root.
"""

from __future__ import annotations

from repro.sched import FacilityScheduler, QosPolicy
from repro.units import HOUR

from perfgate import (
    JOB_DAY_SEED,
    JOB_DAY_WINDOW,
    JOBS_PER_S_FLOOR,
    interleaved,
    job_day,
    timed,
)

#: best-of-N timing: one wall-clock sample flakes with machine load; the
#: minimum estimates the intrinsic cost, which noise can only inflate.
_TRIALS = 5

#: regression ceiling on from-scratch solves.  The first allocation after
#: a fresh arbiter is necessarily full; everything after must be a delta
#: or cached re-solve.
_MAX_FULL_RESOLVES = 2


def test_sched_thousand_job_day_within_budget(record):
    system, jobs = job_day()

    # As-deployed (caps off): the bench measures scheduler cost, and the
    # base mix oversubscribes the simulation class's QoS cap, which would
    # grow the backlog with the window instead of draining it.
    def run():
        sched = FacilityScheduler(system, jobs,
                                  policy=QosPolicy.disabled(),
                                  seed=JOB_DAY_SEED)
        wall, result = timed(sched.run)
        return wall, (result, dict(sched.solve_counts))

    [samples] = interleaved([run], _TRIALS)
    wall_s = min(wall for wall, _ in samples)
    result, solve_counts = samples[-1][1]
    jobs_per_s = len(jobs) / wall_s

    record("sched", {
        "workload": (f"FacilityScheduler, {len(jobs)} jobs over "
                     f"{JOB_DAY_WINDOW / HOUR:.0f} h on mini"),
        "n_jobs": len(jobs),
        "n_finished": result.n_finished,
        "n_censored": result.n_censored,
        "resolves": len(result.timeline),
        "solve_counts": solve_counts,
        "trials": _TRIALS,
        "wall_s": wall_s,
        "jobs_per_second": jobs_per_s,
        "jobs_per_second_floor": JOBS_PER_S_FLOOR,
    }, [
        f"jobs scheduled: {len(jobs)} (finished {result.n_finished}, "
        f"censored {result.n_censored})",
        f"arbiter re-solves: {len(result.timeline)} "
        f"(counts {solve_counts})",
        f"wall clock: {wall_s:.2f} s best of {_TRIALS}",
        f"throughput: {jobs_per_s:.0f} jobs/s "
        f"(floor {JOBS_PER_S_FLOOR:.0f})",
    ])

    assert result.n_censored == 0, (
        f"{result.n_censored} jobs censored at the horizon; the bench "
        f"window must drain completely")
    assert jobs_per_s >= JOBS_PER_S_FLOOR, (
        f"scheduling throughput {jobs_per_s:.0f} jobs/s fell below the "
        f"{JOBS_PER_S_FLOOR:.0f} jobs/s regression floor")
    assert solve_counts["full"] <= _MAX_FULL_RESOLVES, (
        f"{solve_counts['full']} from-scratch solves; a warm arbiter "
        f"must re-solve incrementally (ceiling {_MAX_FULL_RESOLVES})")
