"""Incremental-solver equivalence: delta re-solves must match scratch.

The contract under test (DESIGN.md §9, docs/PERFORMANCE.md): a
:class:`FlowNetwork` driven through any sequence of delta operations
(``add_flow`` / ``remove_flow`` / ``set_capacity`` / ``set_demand`` /
``set_path``)
allocates the same rates as a network built from scratch in the current
state — within 1e-9 relative, the float-associativity slack between the
two fill orders.  Plus the :class:`Epoch` batching contract: permuting
the changes inside one batch cannot change the solved rates, the
hot-loop :meth:`FlowNetwork.solve_rates` agreeing with :meth:`solve`, and
the scalar and vector fill kernels agreeing with each other.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import flow
from repro.core.flow import RESOLVE_COUNTERS, Epoch, FlowNetwork
from repro.obs.instruments import Telemetry, use_telemetry
from repro.sim.engine import Engine

#: relative tolerance between delta and scratch rates: the two solvers
#: may freeze flows in different orders, so sums associate differently
_RTOL = 1e-9


def _scratch_clone(net: FlowNetwork) -> FlowNetwork:
    """A from-scratch network in ``net``'s current state, via public API."""
    clone = FlowNetwork()
    for name in net.component_names():
        clone.add_component(name, net.capacity_of(name))
    for name in net.flow_names():
        path, demand = net.flow_spec(name)
        clone.add_flow(name, path, demand=demand)
    return clone


def _assert_rates_match(result, scratch_result) -> None:
    got = dict(zip(result.flow_names, result.rates))
    want = dict(zip(scratch_result.flow_names, scratch_result.rates))
    assert set(got) == set(want)
    for name, rate in want.items():
        if math.isinf(rate):
            assert math.isinf(got[name]), name
        else:
            assert got[name] == pytest.approx(rate, rel=_RTOL, abs=1e-6), name


def _random_path(rng, comps):
    k = int(rng.integers(1, min(4, len(comps)) + 1))
    return list(rng.choice(comps, size=k, replace=False))


def _random_networks(rng, count=1):
    """``count`` identical six-component networks (some uncapped)."""
    comps = [f"c{i}" for i in range(6)]
    nets = [FlowNetwork() for _ in range(count)]
    for name in comps:
        cap = math.inf if rng.random() < 0.2 else float(rng.uniform(0.5, 50.0))
        for net in nets:
            net.add_component(name, cap)
    return comps, nets


def _random_delta(rng, nets, comps, step):
    """Apply one random delta operation to every network in ``nets`` (all
    in the same state), picking its target from the first."""
    op = rng.random()
    flows = nets[0].flow_names()
    if op < 0.4 or not flows:
        demand = (math.inf if rng.random() < 0.2
                  else float(rng.uniform(0.01, 30.0)))
        method, args = "add_flow", (f"f{step}", _random_path(rng, comps),
                                    demand)
    elif op < 0.55:
        method, args = "remove_flow", (flows[int(rng.integers(len(flows)))],)
    elif op < 0.7:
        cap = (math.inf if rng.random() < 0.2
               else float(rng.uniform(0.5, 50.0)))
        method, args = "set_capacity", (comps[int(rng.integers(len(comps)))],
                                        cap)
    elif op < 0.85:
        method, args = "set_demand", (flows[int(rng.integers(len(flows)))],
                                      float(rng.uniform(0.01, 30.0)))
    else:
        name = flows[int(rng.integers(len(flows)))]
        # An empty path is legal for a bounded flow (demand-limited).
        path = ([] if rng.random() < 0.1
                and math.isfinite(nets[0].flow_spec(name)[1])
                else _random_path(rng, comps))
        method, args = "set_path", (name, path)
    for net in nets:
        getattr(net, method)(*args)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_random_delta_sequence_matches_scratch(seed):
    """Property test: random op sequences, delta rates == scratch rates."""
    rng = np.random.default_rng(seed)
    comps, (net,) = _random_networks(rng)
    for step in range(40):
        _random_delta(rng, [net], comps, step)
        _assert_rates_match(net.solve(), _scratch_clone(net).solve())

    counts = net.solve_counts
    assert counts["full"] >= 1
    assert counts["delta"] + counts["cached"] > 0


@pytest.mark.parametrize("seed", [40, 41, 42, 43])
def test_component_load_matches_the_python_loop(seed):
    """The deferred per-component load (one unbuffered ``np.add.at`` over
    the incidence) equals, bit for bit, the flow-then-path python sum it
    replaced — with unbounded flows (infinite rates) left out."""
    rng = np.random.default_rng(seed)
    comps, (net,) = _random_networks(rng)
    for step in range(30):
        _random_delta(rng, [net], comps, step)
    net.add_component("uncapped", math.inf)
    net.add_flow("free", ["uncapped"])
    result = net.solve()  # nnz is small: the scalar kernel defers the load
    rates = result.rates.tolist()
    assert math.isinf(result.rate_of("free"))
    load = dict.fromkeys(net.component_names(), 0.0)
    for name, rate in zip(result.flow_names, rates):
        if rate < math.inf:
            for comp in net.flow_spec(name)[0]:
                load[comp] += rate
    assert result.component_load == load


@pytest.mark.parametrize("scalar_nnz_max", [flow._SCALAR_NNZ_MAX, 0])
@pytest.mark.parametrize("telemetry_on", [False, True])
def test_solve_rates_matches_solve(telemetry_on, scalar_nnz_max, monkeypatch):
    """``solve_rates()`` and ``solve()`` share one dispatch: over one random
    op sequence they return identical rates and count identical resolve
    paths — on either kernel, with telemetry off or on."""
    monkeypatch.setattr(flow, "_SCALAR_NNZ_MAX", scalar_nnz_max)
    rng = np.random.default_rng(20)
    comps, (by_result, by_rates) = _random_networks(rng, count=2)
    telemetry = Telemetry(enabled=telemetry_on)
    with use_telemetry(telemetry):
        for step in range(60):
            if rng.random() < 0.8:  # otherwise re-solve: the cached path
                _random_delta(rng, [by_result, by_rates], comps, step)
            want = by_result.solve().rates
            assert np.array_equal(by_rates.solve_rates(), want)
            assert by_rates.solve_counts == by_result.solve_counts
    counts = by_rates.solve_counts
    assert min(counts.values()) > 0  # every resolve path was taken
    for counter in RESOLVE_COUNTERS:
        # both networks count into the one registry
        expected = 2 * counts[counter.rpartition(".")[2]] if telemetry_on else 0
        assert telemetry.counter(counter).value == expected


@pytest.mark.parametrize("seed", [30, 31, 32, 33])
def test_scalar_and_vector_kernels_agree(seed, monkeypatch):
    """The two fill kernels solve the same networks to within ``_RTOL``:
    one random op sequence replayed with every subproblem on the scalar
    kernel and with every subproblem on the vector kernel."""
    rng = np.random.default_rng(seed)
    comps, nets = _random_networks(rng, count=2)
    for step in range(60):
        _random_delta(rng, nets, comps, step)
        results = []
        for net, nnz_max in zip(nets, (flow._SCALAR_NNZ_MAX, 0)):
            monkeypatch.setattr(flow, "_SCALAR_NNZ_MAX", nnz_max)
            results.append(net.solve())
        _assert_rates_match(*results)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_batched_deltas_match_scratch(seed):
    """Several ops between solves (the epoch-batched shape) still match."""
    rng = np.random.default_rng(seed)
    comps = [f"c{i}" for i in range(5)]
    net = FlowNetwork()
    for name in comps:
        net.add_component(name, float(rng.uniform(1.0, 20.0)))
    for i in range(6):
        net.add_flow(f"f{i}", _random_path(rng, comps),
                     demand=float(rng.uniform(0.1, 10.0)))
    _assert_rates_match(net.solve(), _scratch_clone(net).solve())
    for _round in range(10):
        for _ in range(int(rng.integers(2, 5))):  # a same-tick burst
            if rng.random() < 0.5:
                net.set_capacity(comps[int(rng.integers(len(comps)))],
                                 float(rng.uniform(1.0, 20.0)))
            else:
                flows = net.flow_names()
                net.set_demand(flows[int(rng.integers(len(flows)))],
                               float(rng.uniform(0.1, 10.0)))
        _assert_rates_match(net.solve(), _scratch_clone(net).solve())


def test_epoch_permutation_determinism():
    """Permuting one batch's same-tick changes yields identical rates.

    The changes commute as state mutations (distinct targets), so the
    epoch contract says the one flush after the batch must solve the same
    allocation regardless of application order — bit-identical rates
    (demands are tie-free, making the fill order unique).
    """
    changes = [
        ("cap", "a", 7.0),
        ("cap", "c", 3.0),
        ("dem", "f0", 2.5),
        ("dem", "f2", 0.75),
    ]

    def run(order):
        net = FlowNetwork()
        for name, cap in [("a", 10.0), ("b", 6.0), ("c", 9.0)]:
            net.add_component(name, cap)
        specs = [("f0", ["a", "b"], 4.0), ("f1", ["b", "c"], 3.0),
                 ("f2", ["a", "c"], 1.5), ("f3", ["c"], 5.0)]
        for name, path, demand in specs:
            net.add_flow(name, path, demand=demand)
        net.solve()
        solved: list[np.ndarray] = []
        engine = Engine()
        epoch = Epoch(lambda _label: solved.append(net.solve().rates.copy()),
                      engine=engine)

        def burst():
            for kind, target, value in order:
                if kind == "cap":
                    net.set_capacity(target, value)
                else:
                    net.set_demand(target, value)
                epoch.request(f"{kind}:{target}")

        engine.call_at(1.0, burst)
        engine.run()
        assert epoch.flushes == 1  # the whole burst cost one solve
        return solved[0]

    baseline = run(changes)
    for perm in ([changes[1], changes[3], changes[0], changes[2]],
                 list(reversed(changes))):
        assert np.array_equal(run(perm), baseline)


def test_epoch_batches_labels_and_defers_to_end_of_tick():
    engine = Engine()
    flushed: list[tuple[float, str]] = []
    epoch = Epoch(lambda label: flushed.append((engine.now, label)),
                  engine=engine)

    def one_event():
        epoch.request("a")
        epoch.request("b")
        epoch.request("a")  # duplicates collapse
        assert flushed == []  # deferred to the end of the tick

    engine.call_at(1.0, one_event)
    engine.call_at(2.0, lambda: epoch.request("solo"))
    engine.run()
    assert flushed == [(1.0, "a+b"), (2.0, "solo")]
    assert epoch.flushes == 2


def test_add_component_readd_with_new_capacity_invalidates():
    """Regression: re-adding a component must act as a capacity change.

    The old behaviour silently kept the stale capacity bookkeeping, so a
    caller re-registering a component with a new capacity (the idiom of
    rebuild-style callers) solved against the old value.
    """
    net = FlowNetwork()
    net.add_component("link", 10.0)
    net.add_flow("f", ["link"], demand=math.inf)
    assert net.solve().rates[0] == pytest.approx(10.0)
    net.add_component("link", 4.0)  # re-add: must dirty, not no-op
    result = net.solve()
    assert result.rates[0] == pytest.approx(4.0)
    assert result.bottlenecks["link"] == pytest.approx(4.0)


def test_solve_counts_classify_the_resolve_paths():
    net = FlowNetwork()
    net.add_component("shared", 10.0)
    net.add_component("spare", 100.0)
    net.add_flow("f0", ["shared"], demand=8.0)
    net.add_flow("f1", ["spare"], demand=2.0)
    net.solve()
    assert net.solve_counts == {"full": 1, "delta": 0, "cached": 0}
    net.solve()  # nothing dirty
    assert net.solve_counts["cached"] == 1
    net.set_capacity("spare", 90.0)  # slack region: restricted re-fill
    _assert_rates_match(net.solve(), _scratch_clone(net).solve())
    assert net.solve_counts["delta"] == 1
    net.set_capacity("shared", 6.0)  # contended region: restricted re-fill
    _assert_rates_match(net.solve(), _scratch_clone(net).solve())
    assert net.solve_counts == {"full": 1, "delta": 2, "cached": 1}
