"""System-level property tests: solver monotonicity, namespace operation
sequences, and routing-policy invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.flow import FlowNetwork
from repro.lustre.namespace import Namespace, NamespaceError, StripeLayout
from repro.network.infiniband import FabricSpec, InfinibandFabric
from repro.network.lnet import FineGrainedRouting, LnetConfig, RouterInfo
from repro.network.torus import Torus3D, TorusSpec


class TestFlowMonotonicity:
    @st.composite
    def network_and_bump(draw):
        n_comp = draw(st.integers(1, 6))
        caps = [draw(st.floats(1.0, 50.0)) for _ in range(n_comp)]
        n_flows = draw(st.integers(1, 8))
        flows = []
        for i in range(n_flows):
            k = draw(st.integers(1, n_comp))
            path = draw(st.permutations(range(n_comp)))[:k]
            flows.append((f"f{i}", list(path)))
        bump_index = draw(st.integers(0, n_comp - 1))
        bump = draw(st.floats(0.5, 20.0))
        return caps, flows, bump_index, bump

    @staticmethod
    def _solve(caps, flows):
        net = FlowNetwork()
        for i, c in enumerate(caps):
            net.add_component(str(i), c)
        for name, path in flows:
            net.add_flow(name, [str(p) for p in path])
        return net.solve()

    @given(network_and_bump())
    @settings(max_examples=150, deadline=None)
    def test_adding_capacity_lexicographically_improves(self, case):
        """Raising one layer's capacity lex-improves the sorted rate
        vector (the max-min optimality theorem).

        Note the *total* is deliberately NOT asserted monotone: max-min
        fairness trades efficiency for fairness, and hypothesis finds
        counterexamples where extra capacity lowers aggregate throughput
        (e.g. caps [1,3,3,1], flows [1], [1,2,3], [2], bumping the last
        cap: total 5.0 → 4.5).  The fairness-efficiency tension is real
        in production PFS schedulers too.
        """
        caps, flows, bump_index, bump = case
        before = np.sort(self._solve(caps, flows).rates)
        bumped = list(caps)
        bumped[bump_index] += bump
        after = np.sort(self._solve(bumped, flows).rates)
        # Lexicographic comparison with float slack.
        for b, a in zip(before, after):
            if a > b + 1e-6:
                break  # strictly better at the first difference
            assert a >= b - 1e-6

    @given(network_and_bump())
    @example((
        [2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
        [("f0", [3]), ("f1", [2, 3]), ("f2", [0, 1, 2]), ("f3", [0]),
         ("f4", [0]), ("f5", [1])],
        3, 1.0,
    ))
    @settings(max_examples=100, deadline=None)
    def test_extra_unbounded_flow_saturates_its_only_component(self, case):
        """An unbounded flow crossing one component saturates it: max-min
        fairness freezes a flow only at a saturated component of its path.

        The *total* is not monotone in the flows.  In the pinned example
        the extra flow cuts f1 on component 3.  That frees component 2
        for f2, and f2 (a three-hop flow) then takes more from the
        one-hop flows on components 0 and 1 than it gains.  The total
        drops from 4.5 to 4.333, while component 3 ends at 1.0.
        """
        caps, flows, bump_index, _bump = case
        extra = flows + [("extra", [bump_index])]
        result = self._solve(caps, extra)
        assert result.utilization(str(bump_index)) == pytest.approx(1.0)


class TestNamespaceOperationSequences:
    @given(st.lists(
        st.tuples(st.integers(0, 11), st.booleans()),  # (file id, delete?)
        min_size=1, max_size=60,
    ))
    @settings(max_examples=150, deadline=None)
    def test_counts_and_membership_consistent(self, ops):
        ns = Namespace()
        layout = StripeLayout(osts=(0,))
        live = set()
        for i, (fid, delete) in enumerate(ops):
            path = f"/f{fid}"
            if delete:
                if path in live:
                    ns.unlink(path)
                    live.discard(path)
                else:
                    with pytest.raises(NamespaceError):
                        ns.unlink(path)
            else:
                if path in live:
                    with pytest.raises(NamespaceError):
                        ns.create(path, layout, now=float(i))
                else:
                    ns.create(path, layout, now=float(i))
                    live.add(path)
            assert ns.n_files == len(live)
        walked = {e.path for e in ns.files()}
        assert walked == live

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=10, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_walk_yields_each_entry_once(self, fids):
        ns = Namespace()
        ns.mkdir("/d")
        layout = StripeLayout(osts=(0,))
        for fid in fids:
            ns.create(f"/d/f{fid}", layout)
        paths = [e.path for e in ns.walk()]
        assert len(paths) == len(set(paths))
        assert len(paths) == 2 + len(fids)  # root + /d + files


class TestFgrProperties:
    @st.composite
    def lnet_case(draw):
        dims = draw(st.tuples(st.integers(3, 8), st.integers(3, 8),
                              st.integers(3, 8)))
        n_routers = draw(st.integers(2, 10))
        n_leaves = draw(st.integers(1, 3))
        torus = Torus3D(TorusSpec(dims=dims))
        fabric = InfinibandFabric(FabricSpec(n_leaf_switches=n_leaves))
        routers = []
        for i in range(n_routers):
            coord = tuple(draw(st.integers(0, d - 1)) for d in dims)
            leaf = draw(st.integers(0, n_leaves - 1))
            routers.append(RouterInfo(f"r{i}", coord, leaf))
        for r in routers:
            fabric.attach_host(r.name, r.leaf)
        # Ensure every leaf has at least one router.
        present = {r.leaf for r in routers}
        client = tuple(draw(st.integers(0, d - 1)) for d in dims)
        leaf = draw(st.sampled_from(sorted(present)))
        slack = draw(st.integers(0, 6))
        return LnetConfig(torus, fabric, routers), client, leaf, slack

    @given(lnet_case())
    @settings(max_examples=150, deadline=None)
    def test_selection_is_leaf_matched_and_within_slack(self, case):
        config, client, leaf, slack = case
        policy = FineGrainedRouting(config, slack=slack)
        router = policy.select_router(client, leaf)
        assert router.leaf == leaf
        candidates = [r for r in config.routers if r.leaf == leaf]
        best = min(config.torus.distance(client, r.coord)
                   for r in candidates)
        assert config.torus.distance(client, router.coord) <= best + slack

    @given(lnet_case())
    @settings(max_examples=60, deadline=None)
    def test_repeated_selection_balances(self, case):
        """Across many selections for one (client, leaf), no candidate in
        the zone is left idle while another carries 2+ more flows."""
        config, client, leaf, slack = case
        policy = FineGrainedRouting(config, slack=slack)
        for _ in range(24):
            policy.select_router(client, leaf)
        candidates = [i for i, r in enumerate(config.routers)
                      if r.leaf == leaf]
        best = min(config.torus.distance(client, config.routers[i].coord)
                   for i in candidates)
        zone = [i for i in candidates
                if config.torus.distance(client, config.routers[i].coord)
                <= best + slack]
        loads = [int(policy._load[i]) for i in zone]
        assert max(loads) - min(loads) <= 1
