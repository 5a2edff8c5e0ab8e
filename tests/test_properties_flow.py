"""Property-based tests of the max-min solver: feasibility, demand
boundedness, and the max-min (bottleneck) characterization on random
networks."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.flow import FlowNetwork

_EPS = 1e-6


@st.composite
def random_network(draw):
    n_comp = draw(st.integers(1, 8))
    caps = [draw(st.floats(0.5, 100.0)) for _ in range(n_comp)]
    n_flows = draw(st.integers(1, 12))
    flows = []
    for i in range(n_flows):
        path_len = draw(st.integers(1, min(4, n_comp)))
        path = draw(st.permutations(range(n_comp)))[:path_len]
        demand = draw(st.one_of(st.just(math.inf), st.floats(0.1, 50.0)))
        flows.append((f"f{i}", list(path), demand))
    return caps, flows


def build(caps, flows):
    net = FlowNetwork()
    for i, c in enumerate(caps):
        net.add_component(str(i), c)
    for name, path, demand in flows:
        net.add_flow(name, [str(p) for p in path], demand=demand)
    return net


@given(random_network())
@settings(max_examples=200, deadline=None)
def test_feasibility_and_demand_bounds(nw):
    caps, flows = nw
    res = build(caps, flows).solve()
    # Feasibility: no component overloaded.
    for i, cap in enumerate(caps):
        assert res.component_load[str(i)] <= cap * (1 + _EPS) + _EPS
    # Demand bounds and non-negativity.
    for (name, _path, demand), rate in zip(flows, res.rates):
        assert rate >= -_EPS
        if math.isfinite(demand):
            assert rate <= demand * (1 + _EPS) + _EPS


@given(random_network())
@settings(max_examples=200, deadline=None)
def test_maxmin_every_flow_is_limited(nw):
    """Pareto/max-min: every flow either meets its demand or crosses a
    saturated component — no rate can be raised unilaterally."""
    caps, flows = nw
    res = build(caps, flows).solve()
    saturated = set(res.saturated_components(tol=1e-4))
    for (name, path, demand), rate in zip(flows, res.rates):
        demand_met = math.isfinite(demand) and rate >= demand * (1 - 1e-4) - _EPS
        crosses_saturated = any(str(p) in saturated for p in path)
        assert demand_met or crosses_saturated, (
            f"flow {name} rate {rate} is limited by nothing"
        )


@given(random_network())
@settings(max_examples=100, deadline=None)
def test_deterministic(nw):
    caps, flows = nw
    r1 = build(caps, flows).solve()
    r2 = build(caps, flows).solve()
    assert np.allclose(r1.rates, r2.rates, equal_nan=True)


@given(st.integers(1, 30), st.floats(1.0, 1000.0))
@settings(max_examples=50, deadline=None)
def test_single_bottleneck_exact_fairness(n_flows, cap):
    net = FlowNetwork()
    net.add_component("c", cap)
    for i in range(n_flows):
        net.add_flow(f"f{i}", ["c"])
    res = net.solve()
    assert np.allclose(res.rates, cap / n_flows, rtol=1e-9)


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_total_bounded_by_sum_of_demands(demands):
    net = FlowNetwork()
    net.add_component("c", 1e6)
    for i, d in enumerate(demands):
        net.add_flow(f"f{i}", ["c"], demand=d)
    res = net.solve()
    assert res.total == pytest_approx(sum(demands))


def pytest_approx(x, rel=1e-6):
    import pytest
    return pytest.approx(x, rel=rel)
