"""repro.faults: taxonomy, plans, injectors, and campaign determinism."""

from __future__ import annotations

import math

import pytest

from repro.faults import (
    INJECTORS,
    FaultCampaign,
    FaultClass,
    FaultPlan,
    PlannedFault,
    cable_failure_scenario,
    incident_2010_scenario,
    injector_for,
)
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.trace import Tracer, read_chrome_trace, use_tracer
from repro.sched.jobs import JobSpec, Phase, PlatformClass
from repro.sched.scheduler import FacilityScheduler
from tests.conftest import fresh_system


def run_random(*, n_faults=6, seed=11, duration=40_000.0):
    system = fresh_system()
    plan = FaultPlan.random(system, duration=duration,
                            n_faults=n_faults, seed=seed)
    return FaultCampaign(system, plan, duration=duration).run()


class TestPlannedFault:
    def test_rejects_negative_time_and_zero_duration(self):
        with pytest.raises(ValueError):
            PlannedFault(time=-1.0, fault=FaultClass.DISK_FAIL, target=0)
        with pytest.raises(ValueError):
            PlannedFault(time=0.0, fault=FaultClass.DISK_FAIL, target=0,
                         duration=0.0)

    def test_label_and_repair_time(self):
        f = PlannedFault(time=10.0, fault=FaultClass.CABLE_FAIL,
                         target="oss00a", duration=50.0)
        assert f.label == "cable_fail:oss00a"
        assert f.repair_time == 60.0

    def test_permanent_fault_never_repairs(self):
        f = PlannedFault(time=0.0, fault=FaultClass.CONTROLLER_FAIL, target=0)
        assert math.isinf(f.repair_time)


class TestFaultPlan:
    def test_random_is_seed_deterministic(self):
        system = fresh_system()
        p1 = FaultPlan.random(system, duration=86_400, n_faults=8, seed=3)
        p2 = FaultPlan.random(system, duration=86_400, n_faults=8, seed=3)
        p3 = FaultPlan.random(system, duration=86_400, n_faults=8, seed=4)
        assert p1 == p2
        assert p1 != p3

    def test_random_is_sorted_and_sized(self):
        plan = FaultPlan.random(fresh_system(), duration=86_400,
                                n_faults=8, seed=3)
        assert len(plan) == 8
        times = [f.time for f in plan]
        assert times == sorted(times)
        assert all(0 <= f.time <= 86_400 for f in plan)

    def test_compose_and_shift(self):
        system = fresh_system()
        cable = cable_failure_scenario(system)
        shifted = cable.shift(1000.0)
        assert shifted.end == cable.end + 1000.0
        both = cable + shifted
        assert len(both) == len(cable) + len(shifted)
        assert [f.time for f in both] == sorted(f.time for f in both)

    def test_random_rejects_non_finite_duration(self):
        with pytest.raises(ValueError):
            FaultPlan.random(fresh_system(), duration=math.nan,
                             n_faults=1, seed=0)

    def test_scenarios_build(self):
        system = fresh_system()
        assert len(cable_failure_scenario(system)) == 2
        assert len(incident_2010_scenario(system)) == 3


class TestInjectors:
    def test_registry_covers_every_fault_class(self):
        assert set(INJECTORS) == set(FaultClass)
        for cls, injector in INJECTORS.items():
            assert injector.fault_class is cls

    def test_disk_fail_roundtrip_restores_bandwidth(self):
        system = fresh_system()
        before = system.aggregate_bandwidth(fs_level=True)
        fault = PlannedFault(time=0.0, fault=FaultClass.DISK_FAIL, target=0)
        injector = injector_for(fault)
        token = injector.inject(system, fault)
        assert system.aggregate_bandwidth(fs_level=True) <= before
        followup = injector.repair(system, fault, token)
        assert followup is not None
        delay, finish = followup
        assert delay > 0
        finish()  # rebuild completes
        assert system.aggregate_bandwidth(fs_level=True) == pytest.approx(before)

    def test_controller_fail_halves_couplet_cap(self):
        system = fresh_system()
        couplet = system.ssus[0].couplet
        healthy = couplet.bw_cap(fs_level=True)
        fault = PlannedFault(time=0.0, fault=FaultClass.CONTROLLER_FAIL,
                             target=0)
        injector = injector_for(fault)
        token = injector.inject(system, fault)
        assert couplet.bw_cap(fs_level=True) < healthy
        injector.repair(system, fault, token)
        assert couplet.bw_cap(fs_level=True) == pytest.approx(healthy)

    def test_router_fail_goes_offline_and_back(self):
        system = fresh_system()
        name = system.routers[0].name
        fault = PlannedFault(time=0.0, fault=FaultClass.ROUTER_FAIL,
                             target=name)
        injector = injector_for(fault)
        token = injector.inject(system, fault)
        assert not system.lnet.router_online(name)
        injector.repair(system, fault, token)
        assert system.lnet.router_online(name)


class TestCampaign:
    def test_metrics_are_sane(self):
        result = run_random()
        assert result.n_injected == 6
        assert result.n_repaired <= result.n_injected
        assert 0 < result.worst_bw <= result.baseline_bw
        assert 0 < result.availability <= 1.0
        assert result.timeline[0][2] == "baseline"
        assert 0.0 <= result.below_threshold_fraction() <= 1.0

    def test_cable_scenario_degrades_then_recovers(self):
        system = fresh_system()
        result = FaultCampaign(system, cable_failure_scenario(system)).run()
        assert result.worst_bw < result.baseline_bw
        assert result.final_bw == pytest.approx(result.baseline_bw)
        assert result.recovery_times  # both classes measured

    def test_every_injected_fault_reaches_the_health_checker(self):
        system = fresh_system()
        plan = FaultPlan.random(system, duration=40_000.0,
                                n_faults=6, seed=11)
        campaign = FaultCampaign(system, plan, duration=40_000.0)
        campaign.run()
        details = {e.detail for e in campaign.health.events}
        missing = [f.label for f in plan if f.label not in details]
        assert not missing
        # Blackout-class faults also produce a correlated incident.
        assert campaign.health.incidents()

    def test_spans_and_counters_reach_the_exported_trace(self, tmp_path):
        telemetry, tracer = Telemetry(), Tracer()
        with use_telemetry(telemetry), use_tracer(tracer):
            result = run_random()
        fault_spans = [s for s in tracer.spans if s.cat == "faults"]
        assert len(fault_spans) == result.n_injected
        assert all(s.name.startswith("fault:") for s in fault_spans)
        injected = [c for c in telemetry.counters()
                    if c.name == "faults.injected"]
        assert sum(c.value for c in injected) == result.n_injected

        path = tmp_path / "chaos.json"
        tracer.write_chrome_trace(path, telemetry=telemetry)
        data = read_chrome_trace(path)
        names = {e["name"] for e in data["traceEvents"]
                 if e.get("cat") == "faults"}
        assert any(n.startswith("fault:") for n in names)
        snapshot_names = {c["name"] for c in data["telemetry"]["counters"]}
        assert {"faults.injected", "faults.repaired"} <= snapshot_names

    def test_rejects_clientless_system(self):
        system = fresh_system(build_clients=False)
        plan = FaultPlan(())
        with pytest.raises(ValueError):
            FaultCampaign(system, plan, duration=10.0)

    def test_rejects_bad_threshold(self):
        system = fresh_system()
        with pytest.raises(ValueError):
            FaultCampaign(system, FaultPlan(()), duration=10.0, threshold=1.5)


class TestHorizonRule:
    def test_fault_at_the_horizon_fires_and_is_censored(self):
        # The campaign and the scheduler both run to the horizon
        # inclusive: a fault planned exactly there is injected, and its
        # span closes censored.
        horizon = 5_000.0
        plan = FaultPlan((PlannedFault(
            time=horizon, fault=FaultClass.DISK_SLOW, target=0,
            duration=100.0, magnitude=0.5),))

        def fault_spans(run):
            tracer = Tracer(enabled=True)
            with use_tracer(tracer):
                result = run()
            return result, [s for s in tracer.spans if s.cat == "faults"]

        campaign, spans = fault_spans(lambda: FaultCampaign(
            fresh_system(), plan, duration=horizon).run())
        assert (campaign.n_injected, campaign.n_repaired) == (1, 0)
        assert [s.args["repaired"] for s in spans] == [False]

        job = JobSpec("sim-0", PlatformClass.SIMULATION, 0.0,
                      (Phase.io(1e9, 1e9),))
        sched, spans = fault_spans(lambda: FacilityScheduler(
            fresh_system(build_clients=False), [job], horizon=horizon,
            fault_plan=plan).run())
        assert sched.n_fault_events == 1
        assert [s.args["repaired"] for s in spans] == [False]
