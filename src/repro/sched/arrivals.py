"""Seed-deterministic job-arrival generators per platform class.

Each class draws Poisson arrivals and job shapes from its own named
:class:`~repro.sim.rng.RngStreams` substream, so the three populations
are independently reproducible: changing the analytics rate does not
perturb a single simulation job, and the same ``(mix, duration, seed,
reference_bandwidth)`` tuple always yields an identical job list.

Demands are expressed as fractions of a ``reference_bandwidth`` (the
facility backbone the scheduler will arbitrate), so one mix describes a
proportionally identical population on the 4-SSU test system and on the
full Spider II: simulation checkpoint bursts momentarily out-demand the
whole backbone, analytics sips a few percent, and DTN streams sit in
between — the §II "different data production/consumption rates".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sched.jobs import JobSpec, Phase, PlatformClass
from repro.sim.rng import RngStreams
from repro.units import HOUR, MINUTE

__all__ = ["JobMix", "generate_jobs"]


@dataclass(frozen=True)
class JobMix:
    """Arrival intensities (jobs/hour) and shape ranges per platform class.

    Simulation jobs alternate compute intervals with checkpoint bursts;
    ``sim_demand_*`` and ``dtn_demand_*``/``ana_demand_*`` are fractions
    of the reference bandwidth; ``sim_burst_seconds_*`` sizes each burst
    by its isolated drain time (volume = demand x drain seconds).
    """

    simulation_per_hour: float = 8.0
    analytics_per_hour: float = 14.0
    transfer_per_hour: float = 5.0
    # -- simulation (checkpoint/restart) shape --
    sim_bursts_min: int = 2
    sim_bursts_max: int = 5
    sim_compute_min_s: float = 10 * MINUTE
    sim_compute_max_s: float = 30 * MINUTE
    sim_demand_min: float = 0.8
    sim_demand_max: float = 2.5
    sim_burst_seconds_min: float = 20.0
    sim_burst_seconds_max: float = 90.0
    # -- interactive analytics shape --
    ana_demand_min: float = 0.02
    ana_demand_max: float = 0.08
    ana_active_min_s: float = 10 * MINUTE
    ana_active_max_s: float = 40 * MINUTE
    # -- data-transfer (DTN) shape --
    dtn_demand_min: float = 0.10
    dtn_demand_max: float = 0.30
    dtn_active_min_s: float = 5 * MINUTE
    dtn_active_max_s: float = 20 * MINUTE

    def __post_init__(self) -> None:
        for rate in (self.simulation_per_hour, self.analytics_per_hour,
                     self.transfer_per_hour):
            if rate < 0:
                raise ValueError("arrival rates must be non-negative")
        if not (1 <= self.sim_bursts_min <= self.sim_bursts_max):
            raise ValueError("burst counts must satisfy 1 <= min <= max")
        for lo, hi in (
            (self.sim_compute_min_s, self.sim_compute_max_s),
            (self.sim_demand_min, self.sim_demand_max),
            (self.sim_burst_seconds_min, self.sim_burst_seconds_max),
            (self.ana_demand_min, self.ana_demand_max),
            (self.ana_active_min_s, self.ana_active_max_s),
            (self.dtn_demand_min, self.dtn_demand_max),
            (self.dtn_active_min_s, self.dtn_active_max_s),
        ):
            if not (0 < lo <= hi):
                raise ValueError("shape ranges must satisfy 0 < min <= max")

    def scaled(self, factor: float) -> "JobMix":
        """The same mix with every arrival rate multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return replace(
            self,
            simulation_per_hour=self.simulation_per_hour * factor,
            analytics_per_hour=self.analytics_per_hour * factor,
            transfer_per_hour=self.transfer_per_hour * factor,
        )


def _poisson_arrivals(gen, per_hour: float, duration: float) -> list[float]:
    """Exponential inter-arrival times cut at ``duration``."""
    times: list[float] = []
    if per_hour <= 0:
        return times
    t = float(gen.exponential(HOUR / per_hour))
    while t < duration:
        times.append(t)
        t += float(gen.exponential(HOUR / per_hour))
    return times


def generate_jobs(
    mix: JobMix,
    *,
    duration: float,
    seed: int,
    reference_bandwidth: float,
) -> tuple[JobSpec, ...]:
    """Generate the arrival-sorted job population for one scheduling window.

    Arrivals land in ``[0, duration)``; demands are drawn as fractions of
    ``reference_bandwidth``.  Deterministic: the same arguments always
    produce an identical tuple, and each platform class consumes only its
    own named substream.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if reference_bandwidth <= 0:
        raise ValueError("reference_bandwidth must be positive")
    rng = RngStreams(seed)
    jobs: list[JobSpec] = []

    gen = rng.get("arrivals:simulation")
    for i, arrival in enumerate(_poisson_arrivals(
            gen, mix.simulation_per_hour, duration)):
        n_bursts = int(gen.integers(mix.sim_bursts_min, mix.sim_bursts_max + 1))
        phases: list[Phase] = []
        for _burst in range(n_bursts):
            phases.append(Phase.compute(float(
                gen.uniform(mix.sim_compute_min_s, mix.sim_compute_max_s))))
            demand = float(gen.uniform(
                mix.sim_demand_min, mix.sim_demand_max)) * reference_bandwidth
            drain_s = float(gen.uniform(
                mix.sim_burst_seconds_min, mix.sim_burst_seconds_max))
            phases.append(Phase.io(demand * drain_s, demand))
        jobs.append(JobSpec(f"sim-{i:04d}", PlatformClass.SIMULATION,
                            arrival, tuple(phases)))

    gen = rng.get("arrivals:analytics")
    for i, arrival in enumerate(_poisson_arrivals(
            gen, mix.analytics_per_hour, duration)):
        demand = float(gen.uniform(
            mix.ana_demand_min, mix.ana_demand_max)) * reference_bandwidth
        active_s = float(gen.uniform(mix.ana_active_min_s, mix.ana_active_max_s))
        jobs.append(JobSpec(f"ana-{i:04d}", PlatformClass.ANALYTICS, arrival,
                            (Phase.io(demand * active_s, demand),)))

    gen = rng.get("arrivals:data_transfer")
    for i, arrival in enumerate(_poisson_arrivals(
            gen, mix.transfer_per_hour, duration)):
        demand = float(gen.uniform(
            mix.dtn_demand_min, mix.dtn_demand_max)) * reference_bandwidth
        active_s = float(gen.uniform(mix.dtn_active_min_s, mix.dtn_active_max_s))
        jobs.append(JobSpec(f"dtn-{i:04d}", PlatformClass.DATA_TRANSFER, arrival,
                            (Phase.io(demand * active_s, demand),)))

    jobs.sort(key=lambda j: (j.arrival, j.name))
    return tuple(jobs)
