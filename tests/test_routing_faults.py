"""Routing under faults: flap dampening against the PR-2 injectors,
dimension-ordered routing under partial router-module failure, and the
scripted router-fault scenarios."""

import pytest

from repro.core.path import PathBuilder, Transfer
from repro.faults import (
    FaultClass,
    flapping_router_scenario,
    injector_for,
)
from repro.lustre.client import Client
from repro.network.lnet import FineGrainedRouting
from repro.network.routing import FlowletRouting, FlowletSpec
from repro.obs.instruments import Telemetry, use_telemetry


def make_transfers(system, n_clients=3, n_osts=6):
    dims = system.torus.dims
    clients = [Client(f"c{i}", coord=(i % dims[0], 0, i % dims[2]))
               for i in range(n_clients)]
    osts = tuple(range(0, n_osts))
    return [Transfer(c.name, c, osts, write=False) for c in clients]


def drive_flaps(system, policy, plan, *, tick=30.0, until=2000.0):
    """Replay ``plan`` through the real injector while sampling the
    refresh/resolve loop on a fixed cadence; returns the builder."""
    builder = PathBuilder(system, policy=policy, include_torus=True)
    transfers = make_transfers(system)
    events = sorted(
        [(f.time, "inject", f) for f in plan.faults]
        + [(f.repair_time, "repair", f) for f in plan.faults])
    t = 0.0
    while t <= until:
        while events and events[0][0] <= t:
            _when, kind, fault = events.pop(0)
            if kind == "inject":
                injector_for(fault).inject(system, fault)
            else:
                injector_for(fault).repair(system, fault, None)
        if isinstance(policy, FlowletRouting):
            policy.refresh(t)
        builder.resolve(transfers)
        t += tick
    return builder


class TestFlapDampening:
    def test_undampened_policy_rebuilds_every_flap(self, mini_system):
        plan = flapping_router_scenario(mini_system, cycles=5, period=120.0,
                                        start=300.0)
        policy = FineGrainedRouting(mini_system.lnet)
        builder = drive_flaps(mini_system, policy, plan)
        # One initial build plus one per transition: 5 downs + 5 ups.
        assert builder.solve_counts["full"] == 11

    def test_flowlet_dampening_bounds_rebuilds(self, mini_system):
        plan = flapping_router_scenario(mini_system, cycles=5, period=120.0,
                                        start=300.0)
        # Flaps bounce every 60 s; the dampener wants 180 s of stability,
        # so no transition ever commits into the resolve fingerprint.
        policy = FlowletRouting(
            mini_system.lnet, spec=FlowletSpec(reroute_dwell_s=180.0))
        builder = drive_flaps(mini_system, policy, plan)
        assert builder.solve_counts["full"] == 1
        assert policy.reroute_commits == 0

    def test_flowlet_commits_once_when_the_router_stays_dead(self, mini_system):
        plan = flapping_router_scenario(mini_system, cycles=1, period=4000.0,
                                        start=300.0)
        policy = FlowletRouting(
            mini_system.lnet, spec=FlowletSpec(reroute_dwell_s=180.0))
        builder = drive_flaps(mini_system, policy, plan, until=1500.0)
        # Down at 300 s and held: exactly one commit, one extra rebuild.
        assert policy.reroute_commits == 1
        assert builder.solve_counts["full"] == 2

    def test_delta_path_carries_the_interim(self, mini_system):
        # Between flap and commit the dampened policy must still see the
        # outage: the dead router's IB cable reads zero on the delta
        # path, so its flows deliver nothing without any rebuild.
        policy = FlowletRouting(
            mini_system.lnet, spec=FlowletSpec(reroute_dwell_s=10_000.0))
        builder = PathBuilder(mini_system, policy=policy, include_torus=True)
        transfers = make_transfers(mini_system)
        result = builder.resolve(transfers)
        victim = max(builder.router_usage(), key=builder.router_usage().get)
        baseline = sum(builder.transfer_rates(result, transfers).values())
        fault = flapping_router_scenario(
            mini_system, router_name=victim, cycles=1).faults[0]
        injector_for(fault).inject(mini_system, fault)
        policy.refresh(fault.time)
        degraded = builder.resolve(transfers)
        assert builder.solve_counts["full"] == 1  # no rebuild happened
        assert sum(builder.transfer_rates(
            degraded, transfers).values()) < baseline


class TestDorPartialModuleFailure:
    """Static dimension-ordered FGR when a router module half-dies."""

    def leaf_and_routers(self, system):
        oss = system.oss_of_ost(0)
        routers = system.lnet.routers_for_leaf(oss.leaf)
        assert len(routers) >= 2
        return oss.leaf, routers

    def transfers_to_ost0(self, system):
        client = Client("c0", coord=(0, 0, 0))
        return [Transfer("c0", client, (0,), write=False)]

    def test_partial_failure_reroutes_within_the_module(self, mini_system):
        _leaf, routers = self.leaf_and_routers(mini_system)
        policy = FineGrainedRouting(mini_system.lnet)
        builder = PathBuilder(mini_system, policy=policy, include_torus=True)
        transfers = self.transfers_to_ost0(mini_system)
        for r in routers[:-1]:  # all but one slot of the module fails
            mini_system.lnet.set_router_online(r.name, False)
        result = builder.resolve(transfers)
        assert builder.unroutable_flows == 0
        rates = builder.transfer_rates(result, transfers)
        assert rates["c0"] > 0
        survivor = routers[-1].name
        assert builder.router_usage() == {survivor: 1}

    def test_total_failure_counts_unroutable_flows(self, mini_system):
        leaf, routers = self.leaf_and_routers(mini_system)
        policy = FineGrainedRouting(mini_system.lnet)
        builder = PathBuilder(mini_system, policy=policy, include_torus=True)
        transfers = self.transfers_to_ost0(mini_system)
        telemetry = Telemetry(enabled=True)
        with use_telemetry(telemetry):
            for r in routers:
                mini_system.lnet.set_router_online(r.name, False)
            result = builder.resolve(transfers)
        assert builder.unroutable_flows == 1
        assert telemetry.counter("flow.unroutable").value == 1.0
        assert builder.transfer_rates(result, transfers)["c0"] == 0.0

    def test_repair_recovers_the_path(self, mini_system):
        leaf, routers = self.leaf_and_routers(mini_system)
        policy = FineGrainedRouting(mini_system.lnet)
        builder = PathBuilder(mini_system, policy=policy, include_torus=True)
        transfers = self.transfers_to_ost0(mini_system)
        for r in routers:
            mini_system.lnet.set_router_online(r.name, False)
        builder.resolve(transfers)
        assert builder.unroutable_flows == 1
        mini_system.lnet.set_router_online(routers[0].name, True)
        result = builder.resolve(transfers)  # fingerprint moved: rebuild
        assert builder.unroutable_flows == 0
        assert builder.transfer_rates(result, transfers)["c0"] > 0


class TestScenarioShapes:
    def test_flapping_scenario_layout(self, mini_system):
        plan = flapping_router_scenario(mini_system, cycles=3, period=100.0,
                                        start=50.0)
        assert [f.time for f in plan.faults] == [50.0, 150.0, 250.0]
        assert all(f.fault is FaultClass.ROUTER_FAIL for f in plan.faults)
        assert all(f.duration == 50.0 for f in plan.faults)
        names = {f.target for f in plan.faults}
        assert names == {mini_system.routers[0].name}

    def test_flapping_scenario_validation(self, mini_system):
        with pytest.raises(ValueError):
            flapping_router_scenario(mini_system, cycles=0)
        with pytest.raises(ValueError):
            flapping_router_scenario(mini_system, period=0.0)
