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

import json
import pathlib
import time

from repro.core.spider import SpiderSystem
from repro.sched import FacilityScheduler, JobMix, QosPolicy, generate_jobs
from repro.units import HOUR
from tests.conftest import mini_spec

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_sched.json"

#: 27 jobs/hour at base rates over 44 h ≈ 1,200 jobs — comfortably past
#: the 1,000-job floor.  Job demands are fractions of the reference
#: bandwidth, so offered utilization is set by the rate scale alone;
#: base rates keep the system drainable within the default horizon tail
#: while the longer window accumulates the job count.
_RATE_SCALE = 1.0
_WINDOW = 44 * HOUR
_MIN_JOBS = 1_000
_SEED = 2014

#: best-of-N timing: a perf gate keyed to a single wall-clock sample
#: flakes with machine load, and the *minimum* over a few trials is the
#: standard variance control — it estimates the code's intrinsic cost,
#: which noise can only inflate, never deflate.
_TRIALS = 5

#: regression floor on throughput.  The incremental solver sustains
#: ~3,500 jobs/s on an unloaded machine (the from-scratch solver managed
#: ~356); the floor sits well above the old ceiling but leaves ~2×
#: headroom for slow or contended CI hosts.
_JOBS_PER_S_FLOOR = 1_500.0

#: regression ceiling on from-scratch solves.  The first allocation after
#: a fresh arbiter is necessarily full; everything after must be a delta
#: or cached re-solve.
_MAX_FULL_RESOLVES = 2


def test_sched_thousand_job_day_within_budget(report):
    system = SpiderSystem(mini_spec(), seed=_SEED, build_clients=False)
    jobs = generate_jobs(
        JobMix().scaled(_RATE_SCALE),
        duration=_WINDOW,
        seed=_SEED,
        reference_bandwidth=system.aggregate_bandwidth(fs_level=True),
    )
    assert len(jobs) >= _MIN_JOBS, (
        f"arrival mix produced only {len(jobs)} jobs; "
        f"raise the rate scale or window")

    # As-deployed (caps off): the bench measures scheduler cost, and the
    # base mix oversubscribes the simulation class's QoS cap, which would
    # grow the backlog with the window instead of draining it.
    walls = []
    result = None
    solve_counts = None
    for _ in range(_TRIALS):
        sched = FacilityScheduler(system, jobs,
                                  policy=QosPolicy.disabled(), seed=_SEED)
        t0 = time.perf_counter()
        result = sched.run()
        walls.append(time.perf_counter() - t0)
        solve_counts = dict(sched.solve_counts)
    wall_s = min(walls)
    jobs_per_s = len(jobs) / wall_s

    payload = {
        "benchmark": "sched_overhead",
        "workload": (f"FacilityScheduler, {len(jobs)} jobs over "
                     f"{_WINDOW / HOUR:.0f} h on mini"),
        "n_jobs": len(jobs),
        "n_finished": result.n_finished,
        "n_censored": result.n_censored,
        "resolves": len(result.timeline),
        "solve_counts": solve_counts,
        "trials": _TRIALS,
        "wall_s": wall_s,
        "jobs_per_second": jobs_per_s,
        "jobs_per_second_floor": _JOBS_PER_S_FLOOR,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    report("BENCH_sched", "\n".join([
        f"jobs scheduled: {len(jobs)} (finished {result.n_finished}, "
        f"censored {result.n_censored})",
        f"arbiter re-solves: {len(result.timeline)} "
        f"(counts {solve_counts})",
        f"wall clock: {wall_s:.2f} s best of {_TRIALS}",
        f"throughput: {jobs_per_s:.0f} jobs/s "
        f"(floor {_JOBS_PER_S_FLOOR:.0f})",
    ]))

    assert result.n_censored == 0, (
        f"{result.n_censored} jobs censored at the horizon; the bench "
        f"window must drain completely")
    assert jobs_per_s >= _JOBS_PER_S_FLOOR, (
        f"scheduling throughput {jobs_per_s:.0f} jobs/s fell below the "
        f"{_JOBS_PER_S_FLOOR:.0f} jobs/s regression floor")
    assert solve_counts["full"] <= _MAX_FULL_RESOLVES, (
        f"{solve_counts['full']} from-scratch solves; a warm arbiter "
        f"must re-solve incrementally (ceiling {_MAX_FULL_RESOLVES})")
