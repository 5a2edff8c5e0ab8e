"""End-to-end path construction tests on the mini system."""

import copy
import math

import numpy as np
import pytest

from repro.core.path import PathBuilder, Transfer
from repro.network.lnet import FineGrainedRouting, RoundRobinRouting
from repro.network.routing import FlowletRouting, FlowletSpec
from repro.network.torus import AXIS_ORDERS, Torus3D
from repro.units import GB


def transfer_for(system, ost_index=0, demand=1 * GB, client_idx=0, name="t0",
                 osts=None):
    return Transfer(
        name=name,
        client=system.clients[client_idx],
        ost_indices=osts or (ost_index,),
        demand=demand,
    )


class TestTransfer:
    def test_validation(self, mini_system):
        with pytest.raises(ValueError):
            Transfer("x", mini_system.clients[0], ())
        with pytest.raises(ValueError):
            Transfer("x", mini_system.clients[0], (0,), demand=0.0)


class TestBuild:
    def test_flow_per_ost(self, mini_system):
        builder = PathBuilder(mini_system)
        net = builder.build([transfer_for(mini_system, osts=(0, 1, 2))])
        assert net.n_flows == 3

    def test_path_crosses_all_layers(self, mini_system):
        builder = PathBuilder(mini_system)
        t = transfer_for(mini_system)
        net = builder.build([t])
        res = net.solve()
        flow_name = res.flow_names[0]
        assert flow_name == "t0->ost0"
        # The delivered rate respects every layer on the path.
        ost_cap = mini_system.ost_flow_capacities(fs_level=True)[0]
        assert res.rates[0] <= min(t.demand, ost_cap) + 1e-6

    def test_router_usage_tracked(self, mini_system):
        builder = PathBuilder(mini_system)
        builder.build([transfer_for(mini_system)])
        usage = builder.router_usage()
        assert sum(usage.values()) == 1

    def test_block_level_skips_obdfilter(self, mini_system):
        fs_builder = PathBuilder(mini_system, fs_level=True)
        blk_builder = PathBuilder(mini_system, fs_level=False)
        t = [transfer_for(mini_system, demand=math.inf)]
        fs_rate = fs_builder.solve(t).total
        blk_rate = blk_builder.solve(t).total
        assert blk_rate > fs_rate

    def test_include_torus_adds_links(self, mini_system):
        plain = PathBuilder(mini_system, include_torus=False)
        torus = PathBuilder(mini_system, include_torus=True)
        t = [transfer_for(mini_system)]
        n_plain = plain.build(t).n_components
        n_torus = torus.build(t).n_components
        assert n_torus > n_plain

    def test_policy_override(self, mini_system):
        builder = PathBuilder(
            mini_system, policy=RoundRobinRouting(mini_system.lnet))
        res = builder.solve([transfer_for(mini_system)])
        assert res.total > 0

    def test_node_sharing_caps_colocated_transfers(self, mini_system):
        """Two transfers on the same client share its stack cap."""
        client = mini_system.clients[0]
        builder = PathBuilder(mini_system)
        transfers = [
            Transfer("a", client, (0,), demand=client.bw_cap),
            Transfer("b", client, (1,), demand=client.bw_cap),
        ]
        res = builder.solve(transfers)
        rates = builder.transfer_rates(res, transfers)
        assert rates["a"] + rates["b"] <= client.bw_cap * (1 + 1e-6)

    def test_transfer_rates_aggregate_stripes(self, mini_system):
        builder = PathBuilder(mini_system)
        t = transfer_for(mini_system, osts=(0, 1), demand=0.5 * GB)
        res = builder.solve([t])
        rates = builder.transfer_rates(res, [t])
        assert rates["t0"] == pytest.approx(0.5 * GB, rel=1e-6)


class TestSaturation:
    def test_couplet_binds_under_heavy_load(self, mini_system):
        """Enough demand saturates the fs-level couplet caps — the
        pre-upgrade 320 GB/s mechanism in miniature."""
        builder = PathBuilder(mini_system)
        fs = list(mini_system.filesystems.values())[0]
        transfers = []
        for i, client in enumerate(mini_system.clients[:64]):
            ost = fs.osts[i % len(fs.osts)].index
            transfers.append(Transfer(f"w{i}", client, (ost,), demand=math.inf))
        res = builder.solve(transfers)
        saturated = res.saturated_components()
        assert any(c.startswith("couplet:") for c in saturated)
        # Total equals the namespace couplet budget.
        ns_ssus = {o.ssu_index for o in fs.osts}
        budget = sum(mini_system.ssus[s].couplet.bw_cap(fs_level=True)
                     for s in ns_ssus)
        assert res.total == pytest.approx(budget, rel=0.01)


class TestIncrementalResolve:
    """PathBuilder.resolve: delta re-solves must match a fresh builder."""

    def _transfers(self, system):
        fs = list(system.filesystems.values())[0]
        return [
            Transfer(f"p{i}", system.clients[(i * 7) % len(system.clients)],
                     (fs.osts[i % len(fs.osts)].index,), demand=1 * GB)
            for i in range(8)
        ]

    @staticmethod
    def _rates_by_name(result):
        return dict(zip(result.flow_names, result.rates))

    def _assert_matches_fresh(self, system, builder, transfers):
        incremental = builder.resolve(transfers)
        fresh = PathBuilder(system, fs_level=True).solve(transfers)
        got = self._rates_by_name(incremental)
        want = self._rates_by_name(fresh)
        assert set(got) == set(want)
        for name, rate in want.items():
            assert got[name] == pytest.approx(rate, rel=1e-9), name

    def test_capacity_faults_ride_the_delta_path(self, mini_system):
        transfers = self._transfers(mini_system)
        builder = PathBuilder(mini_system, fs_level=True)
        self._assert_matches_fresh(mini_system, builder, transfers)
        solves_before = builder._net.solve_counts["full"]
        # Capacity-only faults: cable degradation and controller failover
        # must not rebuild the network.
        mini_system.fabric.degrade_cable(mini_system.osses[0].name, 0.3)
        self._assert_matches_fresh(mini_system, builder, transfers)
        mini_system.ssus[0].couplet.fail_controller(0)
        self._assert_matches_fresh(mini_system, builder, transfers)
        mini_system.ssus[0].couplet.restore_controller(0)
        mini_system.fabric.repair_cable(mini_system.osses[0].name)
        self._assert_matches_fresh(mini_system, builder, transfers)
        assert builder._net.solve_counts["full"] == solves_before

    def test_router_change_rebuilds_and_matches(self, mini_system):
        transfers = self._transfers(mini_system)
        builder = PathBuilder(mini_system, fs_level=True)
        self._assert_matches_fresh(mini_system, builder, transfers)
        first_net = builder._net
        name = mini_system.routers[0].name
        mini_system.lnet.set_router_online(name, False)
        mini_system.fabric.fail_cable(name)
        self._assert_matches_fresh(mini_system, builder, transfers)
        assert builder._net is first_net  # network kept: re-routed in place
        mini_system.lnet.set_router_online(name, True)
        mini_system.fabric.repair_cable(name)
        self._assert_matches_fresh(mini_system, builder, transfers)

    def test_different_transfer_list_rebuilds(self, mini_system):
        transfers = self._transfers(mini_system)
        builder = PathBuilder(mini_system, fs_level=True)
        builder.resolve(transfers)
        first_net = builder._net
        builder.resolve(list(transfers))  # equal content, different object
        assert builder._net is not first_net


class TestLinkUtilizations:
    """PathBuilder.link_utilizations: one array read, element for element
    the scalar FlowResult.utilization (0.0 for an unknown component)."""

    @staticmethod
    def _scalar(result, components):
        out = []
        for comp in components:
            try:
                out.append(result.utilization(comp))
            except KeyError:
                out.append(0.0)
        return out

    def _transfers(self, system, first_client):
        return [
            Transfer(f"s{i}", system.clients[first_client + i], (i,),
                     qos_class="bulk")
            for i in range(4)
        ]

    def test_zeros_before_any_resolve(self, mini_system):
        builder = PathBuilder(mini_system)
        assert builder.link_utilizations(("a", "b")).tolist() == [0.0, 0.0]

    def test_matches_scalar_utilization(self, mini_system):
        # A failed cable is a zero-capacity component; the uncapped
        # ``qos:bulk`` class is an infinite-capacity one.
        mini_system.fabric.fail_cable(mini_system.osses[0].name)
        builder = PathBuilder(mini_system, include_torus=True)
        result = builder.resolve(self._transfers(mini_system, 0))
        caps = result.component_capacity
        assert any(cap == 0 for cap in caps.values())
        assert math.isinf(caps["qos:bulk"])
        comps = tuple(caps) + ("no-such-component",)
        assert builder.link_utilizations(comps).tolist() \
            == self._scalar(result, comps)

    def test_flow_result_covers_every_branch(self):
        from repro.core.flow import FlowResult

        names = ["zero-busy", "zero-idle", "inf", "half"]
        result = FlowResult(
            np.zeros(0), [], names, {n: i for i, n in enumerate(names)},
            np.array([3.0, 0.0, 5.0, 2.0]),
            np.array([0.0, 0.0, math.inf, 4.0]), {}, 0, ())
        ids = np.array([0, 1, 2, 3, -1, 7])
        assert result.utilizations(ids).tolist() \
            == [1.0, 0.0, 0.0, 0.5, 0.0, 0.0]
        assert result.component_ids(names + ["unknown"]).tolist() \
            == [0, 1, 2, 3, -1]
        assert result.utilizations(ids[:4]).tolist() \
            == [result.utilization(n) for n in names]

    def test_index_cache_follows_a_rebuilt_network(self, mini_system):
        builder = PathBuilder(mini_system, include_torus=True)
        first = builder.resolve(self._transfers(mini_system, 0))
        second_transfers = self._transfers(mini_system, 5)
        # Both networks' components, in a fixed order.
        probe = PathBuilder(mini_system, include_torus=True)
        comps = tuple(sorted(
            set(first.component_capacity)
            | set(probe.build(second_transfers).component_names())))
        assert builder.link_utilizations(comps).tolist() \
            == self._scalar(first, comps)
        second = builder.resolve(second_transfers)  # new list: rebuild
        assert (first.component_ids(comps)
                != second.component_ids(comps)).any()
        assert builder.link_utilizations(comps).tolist() \
            == self._scalar(second, comps)


class TestRerouteOracle:
    """A router flip re-routes the kept network in place; after every
    resolve the builder must equal a freshly built one, exactly (``==``),
    on rates, routes, bottlenecks, watched-link utilizations and the
    cumulative solve census."""

    @staticmethod
    def _transfers(system, rng):
        # No flow reaches leaf 3, so flipping one of its routers moves no
        # route (the fingerprint still changes).
        reachable = [i for i in range(len(system.osts))
                     if system.oss_of_ost(i).leaf != 3]
        transfers = []
        for i in range(36):
            client = system.clients[int(rng.integers(len(system.clients)))]
            k = int(rng.integers(1, 4))
            osts = tuple(int(o) for o in rng.choice(reachable, k,
                                                    replace=False))
            demand = math.inf if rng.random() < 0.3 else float(
                rng.uniform(0.1, 3.0)) * GB
            transfers.append(Transfer(f"t{i}", client, osts, demand=demand))
        return transfers

    @staticmethod
    def _watched(system):
        """Every router and every torus link any client could cross."""
        links = set()
        for router in system.routers:
            for client in system.clients:
                for order in AXIS_ORDERS:
                    links.update(system.torus.route_links_ordered(
                        client.coord, router.coord, order))
        comps = {f"router:{router.name}" for router in system.routers}
        comps.update(Torus3D.link_component(link) for link in links)
        return tuple(sorted(comps))

    def _run(self, system, policy, *, include_torus, seed, steps=40):
        rng = np.random.default_rng(seed)
        transfers = self._transfers(system, rng)
        watched = self._watched(system)
        builder = PathBuilder(system, policy=policy,
                              include_torus=include_torus)
        expected = {"full": 0, "delta": 0, "cached": 0}
        routers = [router.name for router in system.routers]
        leaf0 = [r.name for r in system.routers if r.leaf == 0]
        last_fp = None
        moved_none = moved_some = 0
        last_routes = None

        def routes():  # (router, axis order) of every (transfer, OST) pair
            return [route and (route[0].name, route[1])
                    for route in builder._routes]

        for step in range(steps):
            cap_moved = False
            if step == 12:  # a whole leaf goes dark: flows become unroutable
                for name in leaf0:
                    system.lnet.set_router_online(name, False)
            elif step == 16:
                for name in leaf0:
                    system.lnet.set_router_online(name, True)
            elif step and rng.random() < 0.7:
                for _flip in range(int(rng.integers(1, 3))):
                    name = routers[int(rng.integers(len(routers)))]
                    system.lnet.set_router_online(
                        name, not system.lnet.router_online(name))
            if step and rng.random() < 0.2:
                oss = system.osses[int(rng.integers(len(system.osses)))]
                if system.fabric.cable_of(oss.name).healthy:
                    system.fabric.degrade_cable(oss.name, 0.4)
                else:
                    system.fabric.repair_cable(oss.name)
                cap_moved = True
            if isinstance(policy, FlowletRouting):
                # Hot links push flowlets onto other routers and axis
                # orders; two refreshes commit online-bit changes (the
                # dwell is zero).
                now = 10.0 * step
                if rng.random() < 0.5:
                    for comp in rng.choice(watched, 6,
                                           replace=False).tolist():
                        policy.feed.observe(comp, 1.0, now)
                policy.refresh(now)
                policy.refresh(now)
            snapshot = copy.deepcopy(policy, {id(policy.config): policy.config})

            result = builder.resolve(transfers)
            fp = policy.fingerprint()
            if last_fp is None or fp != last_fp:
                expected["full"] += 1
            elif cap_moved:
                expected["delta"] += 1
            else:
                expected["cached"] += 1
            if last_fp is not None and fp != last_fp:
                if routes() == last_routes:
                    moved_none += 1
                else:
                    moved_some += 1
            last_fp, last_routes = fp, routes()

            fresh = PathBuilder(system, policy=snapshot,
                                include_torus=include_torus)
            want = fresh.resolve(transfers)
            assert result.flow_names == want.flow_names, step
            assert result.rates.tolist() == want.rates.tolist(), step
            assert result.bottlenecks == want.bottlenecks, step
            assert builder.router_usage() == fresh.router_usage(), step
            assert builder._flow_routes == fresh._flow_routes, step
            assert builder.unroutable_flows == fresh.unroutable_flows, step
            assert (builder.link_utilizations(watched).tolist()
                    == fresh.link_utilizations(watched).tolist()), step
            assert builder.solve_counts == expected, step
        return moved_none, moved_some

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fgr_reroutes_match_fresh_builds(self, mini_system, seed):
        moved_none, moved_some = self._run(
            mini_system, FineGrainedRouting(mini_system.lnet),
            include_torus=False, seed=seed)
        assert moved_none and moved_some

    @pytest.mark.parametrize("seed", [0, 1])
    def test_flowlet_torus_reroutes_match_fresh_builds(self, mini_system,
                                                      seed):
        policy = FlowletRouting(mini_system.lnet, spec=FlowletSpec(
            min_dwell_s=0.0, reroute_dwell_s=0.0))
        moved_none, moved_some = self._run(
            mini_system, policy, include_torus=True, seed=seed)
        assert moved_none and moved_some
