"""End-to-end path construction tests on the mini system."""

import math

import numpy as np
import pytest

from repro.core.path import PathBuilder, Transfer
from repro.network.lnet import RoundRobinRouting
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
        assert builder._net is not first_net  # fingerprint forced a rebuild
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
