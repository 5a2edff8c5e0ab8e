"""SSU building-block tests."""

import numpy as np
import pytest

from repro.hardware.disk import DiskPopulation
from repro.hardware.raid import RaidState
from repro.hardware.ssu import Ssu, SsuSpec
from repro.sim.rng import RngStreams
from repro.units import GB, TB


@pytest.fixture
def ssu():
    spec = SsuSpec()
    pop = DiskPopulation(spec.n_disks, spec.disk, rng=RngStreams(1),
                         block_slow_fraction=0.0, fs_slow_fraction=0.0,
                         healthy_sigma=0.0)
    return Ssu(spec, pop, 0)


class TestSpec:
    def test_spider2_ssu_arithmetic(self):
        spec = SsuSpec()
        assert spec.n_disks == 560
        assert spec.n_groups == 56
        assert spec.usable_capacity == 56 * 8 * 2 * TB

    def test_nominal_bandwidth_is_couplet_bound(self):
        spec = SsuSpec()
        raw = spec.n_groups * 8 * spec.disk.seq_bw
        assert spec.nominal_block_bandwidth() == pytest.approx(
            min(raw, 2 * spec.controller.block_bw_cap))
        assert spec.nominal_block_bandwidth() == pytest.approx(29 * GB)

    def test_indivisible_raid_rejected(self):
        with pytest.raises(ValueError):
            SsuSpec(n_enclosures=3, disks_per_enclosure=7)


class TestSsu:
    def test_disk_range(self, ssu):
        idx = ssu.disk_indices()
        assert idx[0] == 0 and idx[-1] == 559

    def test_range_outside_population_rejected(self):
        spec = SsuSpec()
        pop = DiskPopulation(100, spec.disk, rng=RngStreams(0))
        with pytest.raises(ValueError):
            Ssu(spec, pop, 0)

    def test_group_bandwidths_couplet_capped(self, ssu):
        bw = ssu.group_streaming_bandwidths()
        assert bw.shape == (56,)
        share = ssu.couplet.group_share_caps(fs_level=False)
        assert (bw <= share + 1e-6).all()
        # With uniform healthy disks the couplet is the binding layer.
        assert ssu.aggregate_bandwidth() == pytest.approx(
            ssu.couplet.bw_cap(fs_level=False), rel=1e-6)

    def test_fs_level_below_block_level(self, ssu):
        assert ssu.aggregate_bandwidth(fs_level=True) < ssu.aggregate_bandwidth()

    def test_enclosure_outage_erases_one_member_per_group(self, ssu):
        ssu.apply_enclosure_outage(3)
        for group in ssu.groups:
            assert len(group.erased) == 1
            assert group.state is RaidState.DEGRADED

    def test_restore_puts_members_in_rebuild(self, ssu):
        ssu.apply_enclosure_outage(3)
        ssu.restore_enclosure(3)
        for group in ssu.groups:
            assert not group.erased
            assert len(group.rebuilding) == 1
            assert group.state is RaidState.REBUILDING

    def test_five_enclosure_geometry_loses_two(self):
        spec = SsuSpec(n_enclosures=5, disks_per_enclosure=56)
        pop = DiskPopulation(spec.n_disks, spec.disk, rng=RngStreams(2))
        five = Ssu(spec, pop, 0)
        five.apply_enclosure_outage(0)
        assert all(len(g.erased) == 2 for g in five.groups)


def walked_state_factors(ssu):
    """The per-group state factors by walking every group's state."""
    return np.array([
        0.0 if g.state is RaidState.FAILED
        else (0.6 if g.state in (RaidState.DEGRADED, RaidState.REBUILDING)
              else 1.0)
        for g in ssu.groups
    ])


class TestUncleanCountOracle:
    """``Ssu.n_unclean`` (and what reads it) against a walk over every
    group's state after random RAID state changes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_count_matches_walk(self, ssu, seed):
        rng = np.random.default_rng(seed)
        width = ssu.spec.raid.width
        disk_bw = ssu.population.bandwidths()
        for _ in range(400):
            op = rng.integers(5)
            group = ssu.groups[int(rng.integers(4))]
            pos = int(rng.integers(width))
            if op == 0:
                group.erase_member(pos)
            elif op == 1:
                group.restore_member(pos, rebuilt=bool(rng.integers(2)))
            elif op == 2:
                group.finish_rebuild(pos)
            elif op == 3 and rng.random() < 0.1:
                ssu.apply_enclosure_outage(int(rng.integers(
                    ssu.spec.n_enclosures)))
            elif op == 4 and rng.random() < 0.1:
                ssu.restore_enclosure(int(rng.integers(
                    ssu.spec.n_enclosures)))
            assert ssu.n_unclean == sum(
                g.state is not RaidState.CLEAN for g in ssu.groups)
            walked = walked_state_factors(ssu)
            assert (ssu.group_state_factors() == walked).all()
            per_member = disk_bw[ssu.members_matrix]
            for g, grp in enumerate(ssu.groups):
                per_member[g, list(grp.erased)] = np.inf
            raw = ssu.spec.raid.n_data * per_member.min(axis=1)
            assert (ssu.group_raw_bandwidths(disk_bw)
                    == np.where(walked > 0.0, raw * walked, 0.0)).all()
        assert any(g.data_lost for g in ssu.groups)

    def test_clean_ssu_short_circuit_equals_walk(self, ssu):
        assert ssu.n_unclean == 0
        assert (ssu.group_state_factors() == walked_state_factors(ssu)).all()
        ssu.apply_enclosure_outage(0)
        ssu.restore_enclosure(0)
        assert ssu.n_unclean == ssu.n_groups
        for g in ssu.groups:
            for pos in list(g.rebuilding):
                g.finish_rebuild(pos)
        assert ssu.n_unclean == 0
        assert (ssu.group_state_factors() == np.ones(ssu.n_groups)).all()
