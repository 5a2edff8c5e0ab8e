"""The A19 storm study: static collapse, flowlet recovery, determinism.

The mini system runs the study in the scarce-row-bandwidth regime (torus
links at 0.5 GB/s — the same ``--link-bw`` dial the CLI exposes), which
is what makes a clustered all-to-one read burst a *network* problem: the
probe's delivered rate is then bounded by its share of saturated row
links, not by its private OST.
"""

from dataclasses import replace

import pytest

from tests.conftest import mini_spec
from repro.core.spider import SpiderSystem
from repro.network.storm import (
    StormStudyResult,
    _make_clients,
    _probe_coord,
    _watched_components,
    run_storm_study,
)
from repro.network.torus import AXIS_ORDERS, Torus3D
from repro.units import GB


def storm_factory(seed=7):
    base = mini_spec()
    spec = replace(base, torus=replace(base.torus, link_bw=0.5 * GB))
    return lambda: SpiderSystem(spec, seed=seed)


def quick_study(**kw):
    defaults = dict(seed=11, duration=3600.0, storm_start=600.0,
                    storm_end=3000.0)
    defaults.update(kw)
    return run_storm_study(storm_factory(), **defaults)


class TestProbePlacement:
    def test_probe_never_sits_on_a_router_node(self, mini_system):
        coord = _probe_coord(mini_system)
        assert coord not in {r.coord for r in mini_system.routers}

    def test_probe_rides_the_storm_row(self, mini_system):
        dims = mini_system.torus.dims
        _x, y, z = _probe_coord(mini_system)
        assert (y, z) == (dims[1] // 2, dims[2] // 2)


class TestStormHeadline:
    @pytest.fixture(scope="class")
    def study(self):
        return run_storm_study(storm_factory(), seed=11)

    def test_static_arm_collapses(self, study):
        # The probe's tail latency under static routing is an order of
        # magnitude past its median: the row links saturated and max-min
        # sharing squeezed the probe to a sliver.
        assert study.static.latency_p99 > 10 * study.static.latency_p50
        assert study.static.peak_victim_util == pytest.approx(1.0)

    def test_flowlet_recovers_at_least_10x(self, study):
        assert study.recovery_factor >= 10.0

    def test_adaptive_machinery_actually_ran(self, study):
        assert study.flowlet.rehashes > 0
        assert study.flowlet.backpressure_engagements >= 1
        assert study.static.rehashes == 0
        assert study.static.backpressure_engagements == 0

    def test_flowlet_pays_rebuilds_static_does_not(self, study):
        # Each committed re-hash batch is one rebuild; static resolves
        # on the fast path all storm long.
        assert study.static.full_solves <= 3
        assert study.flowlet.full_solves > study.static.full_solves

    def test_rows_are_renderable(self, study):
        assert all(len(r) == 3 for r in study.rows())


class TestDeterminism:
    # Same-seed equality, seed sensitivity and telemetry invariance run
    # in tests/test_reproducibility.py (``storm_study``).

    def test_result_is_a_plain_value(self):
        study = quick_study()
        assert isinstance(study, StormStudyResult)
        assert study.flowlet.samples[0].time >= 0.0


class TestValidation:
    def test_bad_storm_window_rejected(self):
        with pytest.raises(ValueError):
            quick_study(storm_start=3000.0, storm_end=600.0)
        with pytest.raises(ValueError):
            quick_study(storm_end=4000.0)  # past the duration

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            quick_study(sample_interval=0.0)
        with pytest.raises(ValueError):
            quick_study(request_bytes=0.0)
        with pytest.raises(ValueError):
            quick_study(shed_fraction=0.0)


class TestWatchedComponents:
    def test_equals_brute_force_union(self):
        system = storm_factory()()
        probe, storm = _make_clients(system, 24)
        clients = [probe] + storm
        want = set()
        for router in system.routers:
            want.add(f"router:{router.name}")
            for client in clients:
                for order in AXIS_ORDERS:
                    for link in system.torus.route_links_ordered(
                            client.coord, router.coord, order):
                        want.add(Torus3D.link_component(link))
        assert _watched_components(system, clients) == tuple(sorted(want))
