"""Measurement plumbing shared by the ``test_*_overhead.py`` perf gates.

A plain module rather than part of ``conftest.py``: pytest imports a
conftest itself, so a test file importing from one would load it a
second time.  The fixtures built on these helpers (``record`` and
``overhead_gate``) live in ``conftest.py``.
"""

from __future__ import annotations

import time

from repro.core.spider import SpiderSystem
from repro.sched import JobMix, generate_jobs
from repro.units import HOUR
from tests.conftest import mini_spec

#: the dense job day both scheduler gates run.  27 jobs/hour at base
#: rates over 44 h ≈ 1,200 jobs — comfortably past the 1,000-job floor.
#: Job demands are fractions of the reference bandwidth, so offered
#: utilization is set by the rate scale alone; base rates keep the system
#: drainable within the default horizon tail while the longer window
#: accumulates the job count.
JOB_DAY_SEED = 2014
JOB_DAY_WINDOW = 44 * HOUR
_RATE_SCALE = 1.0
_MIN_JOBS = 1_000

#: regression floor on job-day throughput.  The incremental solver
#: sustains ~3,500 jobs/s on an unloaded machine (the from-scratch solver
#: managed ~356); the floor sits well above the old ceiling but leaves
#: ~2× headroom for slow or contended CI hosts.
JOBS_PER_S_FLOOR = 1_500.0


def timed(fn):
    """Call ``fn()`` once; returns ``(wall_s, result)``."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def interleaved(arms, trials: int) -> list[list]:
    """Warm each arm once, then run ``trials`` rounds of every arm in turn.

    Each arm is a zero-argument callable returning ``(wall_s, result)``
    (typically via :func:`timed`, so it can keep setup out of the timed
    region).  Interleaving makes scheduler noise hit every arm alike.
    Returns one list of ``trials`` samples per arm, in arm order.
    """
    for arm in arms:
        arm()  # imports, allocator, caches
    samples = [[] for _ in arms]
    for _ in range(trials):
        for arm, arm_samples in zip(arms, samples):
            arm_samples.append(arm())
    return samples


def job_day() -> tuple[SpiderSystem, list]:
    """The mini system and its 1,000+-job day: ``(system, jobs)``."""
    system = SpiderSystem(mini_spec(), seed=JOB_DAY_SEED, build_clients=False)
    jobs = generate_jobs(
        JobMix().scaled(_RATE_SCALE),
        duration=JOB_DAY_WINDOW,
        seed=JOB_DAY_SEED,
        reference_bandwidth=system.aggregate_bandwidth(fs_level=True),
    )
    assert len(jobs) >= _MIN_JOBS, (
        f"arrival mix produced only {len(jobs)} jobs; "
        f"raise the rate scale or window")
    return system, jobs
