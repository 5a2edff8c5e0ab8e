"""Max-min flow solver tests: exact small cases and structure."""

import math

import numpy as np
import pytest

from repro.core.flow import FlowNetwork


def simple_net(cap, flows):
    net = FlowNetwork()
    net.add_component("c", cap)
    for i, demand in enumerate(flows):
        net.add_flow(f"f{i}", ["c"], demand=demand)
    return net


class TestBasics:
    def test_equal_split(self):
        res = simple_net(12.0, [math.inf] * 3).solve()
        assert np.allclose(res.rates, 4.0)
        assert res.total == pytest.approx(12.0)

    def test_demand_bound_respected(self):
        res = simple_net(12.0, [1.0, math.inf, math.inf]).solve()
        assert sorted(res.rates.tolist()) == pytest.approx([1.0, 5.5, 5.5])

    def test_all_demands_satisfiable(self):
        res = simple_net(100.0, [5.0, 10.0, 15.0]).solve()
        assert res.rates.tolist() == pytest.approx([5.0, 10.0, 15.0])
        assert res.saturated_components() == []

    def test_zero_demand_flow(self):
        res = simple_net(10.0, [0.0, math.inf]).solve()
        assert res.rates.tolist() == pytest.approx([0.0, 10.0])

    def test_zero_capacity_component(self):
        res = simple_net(0.0, [math.inf]).solve()
        assert res.rates.tolist() == pytest.approx([0.0])


class TestTopologies:
    def test_two_bottlenecks(self):
        """The classic max-min example: one flow crosses both links."""
        net = FlowNetwork()
        net.add_component("l1", 10.0)
        net.add_component("l2", 4.0)
        net.add_flow("long", ["l1", "l2"])
        net.add_flow("a", ["l1"])
        net.add_flow("b", ["l2"])
        res = net.solve()
        # l2 saturates first at 2 each; 'a' then grows to fill l1.
        assert res.rate_of("long") == pytest.approx(2.0)
        assert res.rate_of("b") == pytest.approx(2.0)
        assert res.rate_of("a") == pytest.approx(8.0)

    def test_layered_path_min_rules(self):
        net = FlowNetwork()
        for name, cap in [("client", 5.0), ("router", 3.0), ("ost", 10.0)]:
            net.add_component(name, cap)
        net.add_flow("f", ["client", "router", "ost"])
        res = net.solve()
        assert res.rate_of("f") == pytest.approx(3.0)
        assert "router" in res.saturated_components()

    def test_infinite_capacity_never_binds(self):
        net = FlowNetwork()
        net.add_component("inf", math.inf)
        net.add_component("cap", 2.0)
        net.add_flow("f", ["inf", "cap"])
        res = net.solve()
        assert res.rate_of("f") == pytest.approx(2.0)

    def test_unbounded_flow_reports_inf(self):
        net = FlowNetwork()
        net.add_component("inf", math.inf)
        net.add_flow("f", ["inf"])
        res = net.solve()
        assert math.isinf(res.rate_of("f"))

    def test_empty_path_with_demand(self):
        net = FlowNetwork()
        net.add_flow("f", [], demand=7.0)
        assert net.solve().rate_of("f") == pytest.approx(7.0)

    def test_duplicate_components_collapse(self):
        net = FlowNetwork()
        net.add_component("c", 6.0)
        net.add_flow("f", ["c", "c", "c"])
        assert net.solve().rate_of("f") == pytest.approx(6.0)


class TestResultApi:
    def test_load_accounting(self):
        net = FlowNetwork()
        net.add_component("c", 9.0)
        net.add_flow("a", ["c"])
        net.add_flow("b", ["c"], demand=1.0)
        res = net.solve()
        assert res.component_load["c"] == pytest.approx(9.0)
        assert res.utilization("c") == pytest.approx(1.0)
        assert "c" in res.bottlenecks

    def test_utilization_of_infinite_component(self):
        net = FlowNetwork()
        net.add_component("inf", math.inf)
        net.add_flow("f", ["inf"], demand=5.0)
        res = net.solve()
        assert res.utilization("inf") == 0.0


class TestValidation:
    def test_unknown_component(self):
        net = FlowNetwork()
        with pytest.raises(KeyError):
            net.add_flow("f", ["missing"])

    def test_duplicate_flow_name(self):
        net = FlowNetwork()
        net.add_component("c", 1.0)
        net.add_flow("f", ["c"])
        with pytest.raises(ValueError):
            net.add_flow("f", ["c"])

    def test_bad_weight_and_demand(self):
        net = FlowNetwork()
        net.add_component("c", 1.0)
        with pytest.raises(ValueError):
            net.add_flow("g", ["c"], demand=-1.0)

    def test_negative_capacity(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_component("c", -1.0)

    def test_empty_path_unbounded_demand_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_flow("f", [])

    def test_nan_capacity_rejected_naming_the_component(self):
        net = FlowNetwork()
        net.add_component("link", 10.0)
        net.add_flow("f", ["link"])
        with pytest.raises(ValueError, match="'fresh'"):
            net.add_component("fresh", math.nan)
        for call in (lambda: net.set_capacity("link", math.nan),
                     lambda: net.add_component("link", math.nan)):
            with pytest.raises(ValueError, match="'link'"):
                call()
        # The rejected values left the network solvable as it was.
        assert net.capacity_of("link") == 10.0
        assert net.solve().rates.tolist() == [10.0]

    def test_nan_demand_rejected_naming_the_flow(self):
        net = FlowNetwork()
        net.add_component("link", 10.0)
        net.add_flow("small", ["link"], demand=3.0)
        with pytest.raises(ValueError, match="'greedy'"):
            net.add_flow("greedy", ["link"], demand=math.nan)
        assert net.flow_names() == ["small"]
        with pytest.raises(ValueError, match="'small'"):
            net.set_demand("small", math.nan)
        assert net.solve().rates.tolist() == [3.0]

    def test_set_path_validates_like_add_flow(self):
        net = FlowNetwork()
        net.add_component("a", 4.0)
        net.add_flow("bounded", ["a"], demand=1.0)
        net.add_flow("unbounded", ["a"])
        with pytest.raises(KeyError, match="'bounded'"):
            net.set_path("bounded", ["a", "missing"])
        with pytest.raises(ValueError, match="'unbounded'"):
            net.set_path("unbounded", [])
        with pytest.raises(KeyError):
            net.set_path("no-such-flow", ["a"])
        net.set_path("bounded", [])  # limited by its demand alone
        assert net.solve().rates.tolist() == [1.0, 4.0]


class TestSetPath:
    def test_reroute_keeps_slot_and_dirties_both_paths(self):
        net = FlowNetwork()
        for name, cap in (("a", 10.0), ("b", 4.0), ("spare", 100.0)):
            net.add_component(name, cap)
        net.add_flow("x", ["a"])
        net.add_flow("y", ["a"])
        net.add_flow("z", ["spare"], demand=1.0)
        assert net.solve().rates.tolist() == [5.0, 5.0, 1.0]
        net.set_path("x", ["b", "b"])
        result = net.solve()
        assert result.flow_names == ["x", "y", "z"]
        assert result.rates.tolist() == [4.0, 10.0, 1.0]
        assert net.flow_spec("x") == (["b"], math.inf)
        assert net.solve_counts == {"full": 1, "delta": 1, "cached": 0}

    def test_unchanged_path_is_a_noop(self):
        net = FlowNetwork()
        net.add_component("a", 10.0)
        net.add_flow("x", ["a"])
        net.solve()
        net.set_path("x", ["a", "a"])
        net.solve()
        assert net.solve_counts == {"full": 1, "delta": 0, "cached": 1}

    def test_invalidate_forces_a_full_fill(self):
        net = FlowNetwork()
        net.add_component("a", 10.0)
        net.add_flow("x", ["a"])
        first = net.solve()
        net.invalidate()
        again = net.solve()
        assert again is not first
        assert again.rates.tolist() == first.rates.tolist()
        assert net.solve_counts == {"full": 2, "delta": 0, "cached": 0}
