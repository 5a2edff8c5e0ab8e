"""repro.sched: job model, arrivals, arbitration, scheduling, determinism."""

from __future__ import annotations

import math

import pytest

from repro.core.spider import SpiderSystem
from repro.faults import FaultClass, FaultPlan, PlannedFault
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.trace import Tracer, use_tracer
from repro.sched import (
    BandwidthArbiter,
    FacilityScheduler,
    JobMix,
    JobSpec,
    Phase,
    PlatformClass,
    QosPolicy,
    generate_jobs,
    jains_index,
)
from repro.units import GB, HOUR, MINUTE
from tests.conftest import fresh_system

SIM = PlatformClass.SIMULATION
ANA = PlatformClass.ANALYTICS
DTN = PlatformClass.DATA_TRANSFER


def backbone_of(system: SpiderSystem) -> float:
    return system.aggregate_bandwidth(fs_level=True)


def io_job(name: str, *, demand: float, seconds: float, arrival: float = 0.0,
           platform: PlatformClass = SIM) -> JobSpec:
    """One single-phase I/O job sized to drain in ``seconds`` at ``demand``."""
    return JobSpec(name, platform, arrival,
                   (Phase.io(demand * seconds, demand),))


class TestJobModel:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase("nap", duration=1.0)
        with pytest.raises(ValueError):
            Phase.compute(0.0)
        with pytest.raises(ValueError):
            Phase.io(0.0, 1.0)
        with pytest.raises(ValueError):
            Phase.io(1.0, 0.0)

    def test_jobspec_validation(self):
        with pytest.raises(ValueError):
            JobSpec("j", SIM, -1.0, (Phase.compute(1.0),))
        with pytest.raises(ValueError):
            JobSpec("j", SIM, 0.0, ())

    def test_isolated_runtime(self):
        job = JobSpec("j", SIM, 0.0,
                      (Phase.compute(100.0), Phase.io(200.0, 4.0)))
        # demand 4 against capacity 2: the io phase drains at 2
        assert job.isolated_runtime(2.0) == pytest.approx(200.0)
        assert job.isolated_io_time(2.0) == pytest.approx(100.0)
        assert job.isolated_runtime(8.0) == pytest.approx(150.0)
        assert job.total_io_bytes == pytest.approx(200.0)
        with pytest.raises(ValueError):
            job.isolated_runtime(0.0)


class TestArrivals:
    def test_same_args_identical(self):
        kwargs = dict(duration=2 * HOUR, seed=3, reference_bandwidth=10 * GB)
        assert generate_jobs(JobMix(), **kwargs) == \
            generate_jobs(JobMix(), **kwargs)

    def test_seed_changes_population(self):
        a = generate_jobs(JobMix(), duration=2 * HOUR, seed=3,
                          reference_bandwidth=10 * GB)
        b = generate_jobs(JobMix(), duration=2 * HOUR, seed=4,
                          reference_bandwidth=10 * GB)
        assert a != b

    def test_sorted_and_in_window(self):
        jobs = generate_jobs(JobMix(), duration=2 * HOUR, seed=3,
                             reference_bandwidth=10 * GB)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 2 * HOUR for a in arrivals)
        assert {j.platform for j in jobs} == {SIM, ANA, DTN}

    def test_demands_scale_with_reference(self):
        jobs = generate_jobs(JobMix(), duration=2 * HOUR, seed=3,
                             reference_bandwidth=10 * GB)
        mix = JobMix()
        for job in jobs:
            if job.platform is ANA:
                for phase in job.phases:
                    assert mix.ana_demand_min * 10 * GB <= phase.demand
                    assert phase.demand <= mix.ana_demand_max * 10 * GB

    def test_scaled_rates(self):
        none = generate_jobs(JobMix().scaled(0.0), duration=2 * HOUR, seed=3,
                             reference_bandwidth=10 * GB)
        assert none == ()
        more = generate_jobs(JobMix().scaled(4.0), duration=2 * HOUR, seed=3,
                             reference_bandwidth=10 * GB)
        base = generate_jobs(JobMix(), duration=2 * HOUR, seed=3,
                             reference_bandwidth=10 * GB)
        assert len(more) > len(base)

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            JobMix(simulation_per_hour=-1.0)
        with pytest.raises(ValueError):
            JobMix(sim_demand_min=0.5, sim_demand_max=0.4)
        with pytest.raises(ValueError):
            JobMix().scaled(-2.0)


class TestQosPolicy:
    def test_defaults_reserve_headroom(self):
        policy = QosPolicy()
        capped = sum(policy.cap_of(c) for c in (SIM, DTN))
        assert capped < 1.0
        assert policy.cap_of(ANA) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QosPolicy(cap_fraction={SIM: 0.0})
        with pytest.raises(ValueError):
            QosPolicy(max_concurrent={SIM: 0})

    def test_disabled(self):
        assert not QosPolicy.disabled().enabled


class TestArbiter:
    def test_single_flow_bounded_by_backbone(self):
        arbiter = BandwidthArbiter(QosPolicy.disabled())
        rates = arbiter.allocate([("a", SIM, 20.0)], backbone_capacity=10.0,
                                 ingest_caps={})
        assert rates[0] == pytest.approx(10.0)

    def test_cap_binds_when_enabled(self):
        policy = QosPolicy(cap_fraction={SIM: 0.5})
        capped = BandwidthArbiter(policy).allocate(
            [("a", SIM, 20.0)], backbone_capacity=10.0, ingest_caps={})
        assert capped[0] == pytest.approx(5.0)
        free = BandwidthArbiter(QosPolicy.disabled()).allocate(
            [("a", SIM, 20.0)], backbone_capacity=10.0, ingest_caps={})
        assert free[0] == pytest.approx(10.0)

    def test_cap_shared_within_class(self):
        policy = QosPolicy(cap_fraction={SIM: 0.5})
        rates = BandwidthArbiter(policy).allocate(
            [("a", SIM, 20.0), ("b", SIM, 20.0)],
            backbone_capacity=10.0, ingest_caps={})
        assert sum(rates) == pytest.approx(5.0)

    def test_ingest_cap_binds(self):
        rates = BandwidthArbiter(QosPolicy.disabled()).allocate(
            [("a", ANA, 20.0)], backbone_capacity=10.0,
            ingest_caps={ANA: 2.0})
        assert rates[0] == pytest.approx(2.0)

    def test_small_demands_satisfied_under_contention(self):
        rates = BandwidthArbiter(QosPolicy.disabled()).allocate(
            [("storm", SIM, 100.0), ("sip", ANA, 1.0)],
            backbone_capacity=10.0, ingest_caps={})
        assert rates[1] == pytest.approx(1.0)
        assert rates[0] == pytest.approx(9.0)

    def test_empty_requests(self):
        rates = BandwidthArbiter(QosPolicy()).allocate(
            [], backbone_capacity=10.0, ingest_caps={})
        assert len(rates) == 0


class TestJainsIndex:
    def test_equal_shares(self):
        assert jains_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_hot(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jains_index([]) == 1.0
        assert jains_index([0.0, 0.0]) == 1.0


class TestScheduler:
    def test_single_job_runs_at_isolated_speed(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        job = io_job("solo", demand=0.5 * bw, seconds=30.0)
        result = FacilityScheduler(system, [job],
                                   policy=QosPolicy.disabled()).run()
        outcome = result.outcomes[0]
        assert result.n_finished == 1
        assert outcome.slowdown == pytest.approx(1.0, rel=1e-3)
        assert outcome.satisfaction == pytest.approx(1.0, rel=1e-3)
        assert result.makespan == pytest.approx(30.0, rel=1e-3)

    def test_contention_halves_rates(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        jobs = [io_job("a", demand=bw, seconds=30.0),
                io_job("b", demand=bw, seconds=30.0)]
        result = FacilityScheduler(system, jobs,
                                   policy=QosPolicy.disabled()).run()
        for outcome in result.outcomes:
            assert outcome.slowdown == pytest.approx(2.0, rel=1e-3)
            assert outcome.satisfaction == pytest.approx(0.5, rel=1e-3)
            assert outcome.drain_overrun == pytest.approx(2.0, rel=1e-3)
        assert result.overall_fairness == pytest.approx(1.0)

    def test_qos_cap_throttles(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        job = io_job("burst", demand=bw, seconds=30.0)
        result = FacilityScheduler(system, [job], policy=QosPolicy()).run()
        expected = 1.0 / QosPolicy().cap_of(SIM)
        assert result.outcomes[0].slowdown == pytest.approx(expected,
                                                            rel=1e-3)

    def test_admission_limit_queues_fifo(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        policy = QosPolicy(enabled=False, max_concurrent={SIM: 1})
        jobs = [io_job("a", demand=0.5 * bw, seconds=30.0),
                io_job("b", demand=0.5 * bw, seconds=30.0)]
        result = FacilityScheduler(system, jobs, policy=policy).run()
        queued = next(o for o in result.outcomes if o.name == "b")
        assert queued.start == pytest.approx(30.0, rel=1e-3)
        assert queued.slowdown == pytest.approx(1.0, rel=1e-3)
        assert queued.stretch == pytest.approx(2.0, rel=1e-3)
        assert queued.stretch > queued.slowdown

    def test_compute_phases_cost_no_bandwidth(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        job = JobSpec("mixed", SIM, 0.0,
                      (Phase.compute(10 * MINUTE),
                       Phase.io(0.5 * bw * 30.0, 0.5 * bw)))
        result = FacilityScheduler(system, [job],
                                   policy=QosPolicy.disabled()).run()
        assert result.outcomes[0].slowdown == pytest.approx(1.0, rel=1e-3)
        assert result.makespan == pytest.approx(10 * MINUTE + 30.0, rel=1e-3)

    def test_horizon_censors(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        job = io_job("long", demand=0.5 * bw, seconds=4000.0)
        result = FacilityScheduler(system, [job], horizon=100.0).run()
        outcome = result.outcomes[0]
        assert result.n_censored == 1
        assert outcome.censored
        assert outcome.finish is None
        assert outcome.slowdown is None and outcome.stretch is None

    def test_latency_probe_absent_without_analytics(self):
        system = fresh_system(build_clients=False)
        bw = backbone_of(system)
        result = FacilityScheduler(
            system, [io_job("solo", demand=0.5 * bw, seconds=30.0)],
            policy=QosPolicy.disabled()).run()
        assert result.latency is None
        with pytest.raises(KeyError):
            result.summary_of(ANA)

    def test_fault_under_load_slows_jobs(self):
        def run(with_fault: bool):
            system = fresh_system(build_clients=False)
            bw = backbone_of(system)
            job = io_job("victim", demand=bw, seconds=60.0)
            plan = None
            if with_fault:
                plan = FaultPlan((PlannedFault(
                    time=0.0, fault=FaultClass.CONTROLLER_FAIL, target=0),))
            return FacilityScheduler(system, [job], fault_plan=plan,
                                     policy=QosPolicy.disabled()).run()

        clean, faulted = run(False), run(True)
        assert faulted.n_fault_events >= 1
        assert clean.n_fault_events == 0
        assert faulted.makespan > clean.makespan
        assert faulted.outcomes[0].slowdown > clean.outcomes[0].slowdown

    def test_router_loss_under_load_lowers_the_simulation_ingest_cap(self):
        # Mini system: 24 routers x 2.8 GB/s against a 19.2 GB/s backbone,
        # so the live-router ingest cap binds once 18 routers are down.
        def run(n_down: int):
            system = fresh_system(build_clients=False)
            bw = backbone_of(system)
            job = io_job("victim", demand=bw, seconds=60.0)
            plan = FaultPlan(tuple(
                PlannedFault(time=0.0, fault=FaultClass.ROUTER_FAIL,
                             target=router.name)
                for router in system.routers[:n_down]))
            result = FacilityScheduler(system, [job], fault_plan=plan,
                                       policy=QosPolicy.disabled()).run()
            live = len(system.routers) - n_down
            return result, bw / (live * system.spec.router_bw_cap)

        (clean, _), (faulted, expected) = run(0), run(18)
        assert faulted.n_fault_events == 18
        assert expected > 1.0
        assert clean.outcomes[0].slowdown == pytest.approx(1.0, rel=1e-3)
        assert faulted.outcomes[0].slowdown \
            == pytest.approx(expected, rel=1e-3)

    def test_rejects_bad_inputs(self):
        system = fresh_system(build_clients=False)
        with pytest.raises(ValueError):
            FacilityScheduler(system, [])
        with pytest.raises(ValueError):
            FacilityScheduler(system, [io_job("a", demand=1.0, seconds=1.0)],
                              horizon=0.0)


def population(policy: QosPolicy, seed: int = 11):
    """The two-hour mini-system job population run under ``policy``."""
    system = fresh_system(build_clients=False)
    jobs = generate_jobs(JobMix(), duration=2 * HOUR, seed=seed,
                         reference_bandwidth=backbone_of(system))
    return FacilityScheduler(system, jobs, policy=policy, seed=seed).run()


def caps_pair(seed: int = 11):
    """The same population with QoS caps off, then on."""
    return (population(QosPolicy.disabled(), seed),
            population(QosPolicy(), seed))


@pytest.fixture(scope="module")
def paired_runs():
    return caps_pair()


class TestPopulationRuns:
    def test_job_spans_and_finished_counter_match_the_run(self, paired_runs):
        _off, on = paired_runs
        telemetry, tracer = Telemetry(enabled=True), Tracer(enabled=True)
        with use_telemetry(telemetry), use_tracer(tracer):
            population(QosPolicy())
        spans = [s for s in tracer.spans if s.name.startswith("job:")]
        assert len(spans) == on.n_submitted
        finished = [c for c in telemetry.counters()
                    if c.name == "sched.finished"]
        assert sum(c.value for c in finished) == on.n_finished

    def test_every_submitted_job_is_accounted(self, paired_runs):
        off, _on = paired_runs
        assert off.n_submitted == off.n_finished + off.n_censored
        assert len(off.outcomes) == off.n_submitted
        assert [o.name for o in off.outcomes] == \
            sorted(o.name for o in off.outcomes)
        assert all(n >= 0 for _cls, n in off.delivered_by_class)

    def test_analytics_p99_degrades_and_qos_recovers_it(self, paired_runs):
        off, on = paired_runs
        # Co-scheduling with checkpoint-heavy jobs inflates analytics
        # read p99; the per-class demand caps win most of it back.
        assert off.latency.shared_p99 > 1.5 * off.latency.alone_p99
        assert on.latency.shared_p99 < off.latency.shared_p99
        assert on.latency.p99_inflation < off.latency.p99_inflation

    def test_caps_trade_simulation_for_analytics(self, paired_runs):
        off, on = paired_runs
        # Max-min already protects analytics *bandwidth* (small demands
        # fill first), so its satisfaction barely moves; the caps' win is
        # the latency recovery above.  What they cost is checkpoint
        # throughput: the capped simulation class drains no faster.
        assert on.summary_of(ANA).mean_satisfaction == pytest.approx(
            off.summary_of(ANA).mean_satisfaction, abs=0.05)
        assert on.summary_of(SIM).mean_satisfaction <= \
            off.summary_of(SIM).mean_satisfaction + 0.05
        assert on.qos_enabled and not off.qos_enabled
