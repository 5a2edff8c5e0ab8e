"""LNET routing policy tests: FGR vs round robin."""

import math

import numpy as np
import pytest

from repro.network.infiniband import FabricSpec, InfinibandFabric
from repro.network.lnet import (
    FineGrainedRouting,
    LnetConfig,
    RouterInfo,
    RoundRobinRouting,
)
from repro.network.routing import FlowletRouting, FlowletSpec
from repro.network.torus import Torus3D, TorusSpec


@pytest.fixture
def config():
    torus = Torus3D(TorusSpec(dims=(8, 8, 8)))
    fabric = InfinibandFabric(FabricSpec(n_leaf_switches=2))
    routers = [
        RouterInfo("r0", (0, 0, 0), leaf=0),
        RouterInfo("r1", (4, 4, 4), leaf=0),
        RouterInfo("r2", (0, 4, 0), leaf=1),
        RouterInfo("r3", (4, 0, 4), leaf=1),
    ]
    for r in routers:
        fabric.attach_host(r.name, r.leaf)
    return LnetConfig(torus, fabric, routers)


class TestLnetConfig:
    def test_routers_for_leaf(self, config):
        assert [r.name for r in config.routers_for_leaf(0)] == ["r0", "r1"]
        assert [r.name for r in config.routers_for_leaf(1)] == ["r2", "r3"]

    def test_empty_routers_rejected(self, config):
        with pytest.raises(ValueError):
            LnetConfig(config.torus, config.fabric, [])


class TestFgr:
    def test_leaf_affinity(self, config):
        fgr = FineGrainedRouting(config, slack=0)
        router = fgr.select_router((0, 0, 1), dst_leaf=1)
        assert router.leaf == 1

    def test_picks_nearest_with_zero_slack(self, config):
        fgr = FineGrainedRouting(config, slack=0)
        assert fgr.select_router((0, 0, 1), dst_leaf=0).name == "r0"
        assert fgr.select_router((4, 4, 3), dst_leaf=0).name == "r1"

    def test_load_spreading_within_slack(self, config):
        # Every router of leaf 0 is within slack of a central client, so
        # repeated selections alternate rather than piling on one.
        fgr = FineGrainedRouting(config, slack=12)
        picks = [fgr.select_router((2, 2, 2), dst_leaf=0).name for _ in range(10)]
        assert picks.count("r0") == 5
        assert picks.count("r1") == 5

    def test_unknown_leaf_raises(self, config):
        fgr = FineGrainedRouting(config)
        with pytest.raises(LookupError):
            fgr.select_router((0, 0, 0), dst_leaf=9)

    def test_negative_slack_rejected(self, config):
        with pytest.raises(ValueError):
            FineGrainedRouting(config, slack=-1)


class TestRoundRobin:
    def test_cycles_all_routers_ignoring_leaf(self, config):
        rr = RoundRobinRouting(config)
        picks = [rr.select_router((0, 0, 0), dst_leaf=0).name for _ in range(8)]
        assert picks == ["r0", "r1", "r2", "r3"] * 2
        # Half the picks land on the wrong leaf — the FGR-vs-naive cost.
        rr2 = RoundRobinRouting(config)
        wrong = sum(rr2.select_router((0, 0, 0), dst_leaf=0).leaf != 0
                    for _ in range(8))
        assert wrong == 4


class TestPolicyComparison:
    def test_fgr_shorter_torus_paths_than_rr(self, config):
        """FGR's selections are never farther than round robin's on
        average — the locality half of Lesson 14."""
        rng = np.random.default_rng(3)
        clients = [tuple(rng.integers(0, 8, size=3)) for _ in range(60)]
        fgr = FineGrainedRouting(config)
        rr = RoundRobinRouting(config)
        d_fgr = np.mean([
            config.torus.distance(c, fgr.select_router(c, 0).coord)
            for c in clients
        ])
        d_rr = np.mean([
            config.torus.distance(c, rr.select_router(c, 0).coord)
            for c in clients
        ])
        assert d_fgr <= d_rr

    def test_fgr_always_intra_leaf_rr_often_not(self, config):
        fgr = FineGrainedRouting(config)
        rr = RoundRobinRouting(config)
        fgr_crossings = [
            config.fabric.crossings(fgr.select_router((1, 1, 1), 1).name, "r2")
            for _ in range(8)
        ]
        assert all(c == 1 for c in fgr_crossings)  # r2/r3 share leaf 1


class TestTieBreakOrderInvariance:
    """FGR ties break by explicit (load, distance, name) key, so selection
    is invariant under the insertion order of the router inventory —
    list-position tie-breaking would silently re-route whole client
    populations whenever enumeration order changed."""

    def make_config(self, order):
        torus = Torus3D(TorusSpec(dims=(8, 8, 8)))
        fabric = InfinibandFabric(FabricSpec(n_leaf_switches=2))
        # Two exact ties on leaf 0: equidistant from the client below and
        # always equally loaded when selections alternate.
        routers = {
            "ra": RouterInfo("ra", (2, 0, 0), leaf=0),
            "rb": RouterInfo("rb", (0, 2, 0), leaf=0),
            "rc": RouterInfo("rc", (4, 4, 4), leaf=1),
        }
        ordered = [routers[name] for name in order]
        for r in ordered:
            fabric.attach_host(r.name, r.leaf)
        return LnetConfig(torus, fabric, ordered)

    @pytest.mark.parametrize("order", [
        ("ra", "rb", "rc"),
        ("rb", "ra", "rc"),
        ("rc", "rb", "ra"),
    ])
    def test_selection_sequence_is_order_invariant(self, order):
        fgr = FineGrainedRouting(self.make_config(order), slack=4)
        picks = [fgr.select_router((0, 0, 0), dst_leaf=0).name
                 for _ in range(6)]
        # Pure tie at every step: the name key alternates a-b-a-b...,
        # never whichever happened to be inserted first.
        assert picks == ["ra", "rb"] * 3


def uncached_zone(config, client, leaf, slack):
    """The near zone recomputed from scratch: online routers of ``leaf``
    within ``slack`` hops of the nearest, as sorted (dist, name, index)."""
    live = [(config.torus.distance(client, r.coord), r.name, i)
            for i, r in enumerate(config.routers)
            if r.leaf == leaf and config.router_online(r.name)]
    if not live:
        raise LookupError(leaf)
    nearest = min(d for d, _n, _i in live)
    return sorted(z for z in live if z[0] <= nearest + slack)


class TestZoneCacheOracle:
    """The cached zone, the FGR picks and the flowlet zone against an
    uncached reference over random router flips, including no-op flips
    to the current value."""

    @pytest.fixture
    def config(self):
        rng = np.random.default_rng(5)
        torus = Torus3D(TorusSpec(dims=(6, 5, 4)))
        fabric = InfinibandFabric(FabricSpec(n_leaf_switches=3))
        routers = [RouterInfo(f"r{i:02d}", tuple(int(c) for c in
                                                 rng.integers(0, (6, 5, 4))),
                              leaf=i % 3)
                   for i in range(15)]
        for r in routers:
            fabric.attach_host(r.name, r.leaf)
        return LnetConfig(torus, fabric, routers)

    def test_cached_zone_and_picks_match_uncached_reference(self, config):
        rng = np.random.default_rng(11)
        fgr = FineGrainedRouting(config, slack=2)
        flowlet = FlowletRouting(config, spec=FlowletSpec(slack=2))
        load = [0] * len(config.routers)
        clients = [(0, 0, 0), (3, 2, 1), (5, 4, 3), (2, 0, 3)]
        noop_flips = 0
        for _ in range(600):
            if rng.random() < 0.3:
                router = config.routers[int(rng.integers(len(config.routers)))]
                online = bool(rng.random() < 0.6)
                noop_flips += config.router_online(router.name) == online
                config.set_router_online(router.name, online)
            client = clients[int(rng.integers(len(clients)))]
            leaf = int(rng.integers(3))
            for slack in (0, 2, math.inf):
                try:
                    expected = uncached_zone(config, client, leaf, slack)
                except LookupError:
                    with pytest.raises(LookupError):
                        config.near_zone(client, leaf, slack)
                    continue
                assert config.near_zone(client, leaf, slack) == expected
                assert flowlet._zone(client, leaf, slack=slack) == [
                    i for _d, _n, i in expected]
            try:
                zone = uncached_zone(config, client, leaf, 2)
            except LookupError:
                with pytest.raises(LookupError):
                    fgr.select_router(client, leaf)
                continue
            _l, _d, _n, want = min((load[i], d, n, i) for d, n, i in zone)
            load[want] += 1
            assert fgr.select_router(client, leaf) is config.routers[want]
        assert noop_flips > 0

    def test_noop_flip_keeps_the_cache(self, config):
        zone = config.near_zone((0, 0, 0), 0, 4)
        config.set_router_online(config.routers[0].name, True)
        assert config.near_zone((0, 0, 0), 0, 4) is zone
        config.set_router_online(config.routers[0].name, False)
        assert config.near_zone((0, 0, 0), 0, 4) is not zone
