"""LustreFilesystem tests: allocation, QOS behaviour, accounting."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults.events import FaultClass, PlannedFault
from repro.faults.injectors import OstFillInjector
from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.ost import Ost, OstSpec
from repro.sim.rng import RngStreams
from repro.units import GiB, MiB, TB


def make_fs(n_osts=8, capacity=16 * TB, **kwargs):
    osts = [Ost(i, OstSpec(capacity_bytes=capacity)) for i in range(n_osts)]
    return LustreFilesystem("testfs", osts, **kwargs)


class TestAllocation:
    def test_round_robin_when_balanced(self):
        fs = make_fs()
        first = fs.choose_osts(2)
        second = fs.choose_osts(2)
        assert first != second  # the cursor advances

    def test_qos_prefers_empty_osts_when_imbalanced(self):
        fs = make_fs(n_osts=4, capacity=1000)
        fs.osts[0].allocate(900)
        fs.osts[1].allocate(900)
        chosen = fs.choose_osts(2)
        assert set(chosen) == {2, 3}

    def test_stripe_count_clamped_to_ost_count(self):
        fs = make_fs(n_osts=2)
        assert len(fs.choose_osts(16)) == 2

    def test_explicit_osts_validated(self):
        fs = make_fs(n_osts=2)
        with pytest.raises(KeyError):
            fs.layout_for(osts=(99,))


class TestKeptFills:
    """``Ost.allocate`` and ``Ost.release`` keep every pool's fill list;
    it must read what scanning the OSTs reads, and ``choose_osts`` must
    choose what it chose when it scanned them."""

    @staticmethod
    def scanned_choice(pool, stripe_count: int, balanced_picks: int):
        """The scanning ``choose_osts``, given how many balanced picks the
        pool made before; returns the choice and whether it was one."""
        n = len(pool.osts)
        stripe_count = min(stripe_count, n)
        fills = [o.fill_fraction for o in pool.osts]
        if max(fills) - min(fills) <= pool.qos_threshold:
            start = balanced_picks % n
            return tuple(pool.osts[(start + i) % n].index
                         for i in range(stripe_count)), True
        order = np.argsort(np.array(fills))
        return tuple(pool.osts[i].index for i in order[:stripe_count]), False

    @pytest.mark.parametrize("seed", range(4))
    def test_kept_fills_equal_the_scanned_fills(self, seed):
        rng = RngStreams(seed).get("test.fills")
        capacity = 10_000
        osts = [Ost(i, OstSpec(capacity_bytes=capacity)) for i in range(6)]
        # OST 3 belongs to both pools
        pools = [LustreFilesystem("a", osts[:4]),
                 LustreFilesystem("b", osts[3:])]
        system = SimpleNamespace(osts=osts)
        injector = OstFillInjector()
        fills_in_force: dict[int, tuple[PlannedFault, int]] = {}
        balanced_picks = [0, 0]
        paths_taken = set()
        for _step in range(400):
            op = int(rng.integers(5))
            index = int(rng.integers(len(osts)))
            ost = osts[index]
            if op == 0:
                room = capacity - ost.used_bytes
                if room:
                    ost.allocate(int(rng.integers(0, room + 1)),
                                 new_object=bool(rng.integers(2)))
            elif op == 1:
                ost.release(int(rng.integers(0, capacity // 2)))
            elif op == 2 and index not in fills_in_force:
                fault = PlannedFault(0.0, FaultClass.OST_FILL, index,
                                     magnitude=float(rng.uniform(0.3, 1.0)))
                fills_in_force[index] = (
                    fault, injector.inject(system, fault))
            elif op == 3 and fills_in_force:
                key = sorted(fills_in_force)[
                    int(rng.integers(len(fills_in_force)))]
                fault, token = fills_in_force.pop(key)
                injector.repair(system, fault, token)
            elif op == 4:
                for p, pool in enumerate(pools):
                    stripes = int(rng.integers(1, 4))
                    expected, balanced = self.scanned_choice(
                        pool, stripes, balanced_picks[p])
                    assert pool.choose_osts(stripes) == expected
                    balanced_picks[p] += balanced
                    paths_taken.add(balanced)
            for pool in pools:
                assert pool._fills == [o.fill_fraction for o in pool.osts]
        assert paths_taken == {True, False}


class TestFileOps:
    def test_create_charges_osts(self):
        fs = make_fs()
        fs.create_file("/f", now=0.0, size=4 * MiB, stripe_count=4)
        assert fs.used_bytes == 4 * MiB
        entry = fs.namespace.get("/f")
        assert entry.layout.stripe_count == 4

    def test_append_charges_only_delta(self):
        fs = make_fs()
        fs.create_file("/f", now=0.0, size=2 * MiB, stripe_count=2)
        fs.append("/f", 2 * MiB, now=1.0)
        assert fs.used_bytes == 4 * MiB
        assert fs.namespace.get("/f").size == 4 * MiB

    def test_unlink_releases_capacity(self):
        fs = make_fs()
        fs.create_file("/f", now=0.0, size=8 * MiB)
        fs.unlink("/f")
        assert fs.used_bytes == 0
        assert "/f" not in fs.namespace

    def test_read_records_ost_traffic(self):
        fs = make_fs()
        fs.create_file("/f", now=0.0, size=2 * MiB, stripe_count=1,
                       osts=(3,))
        fs.read_file("/f", now=1.0)
        assert fs.ost(3).read_bytes_total == 2 * MiB

    def test_mkdir_parents(self):
        fs = make_fs()
        fs.mkdir("/a/b/c", now=0.0)
        assert "/a/b" in fs.namespace

    def test_stat_charges_mds_per_stripe(self):
        fs = make_fs()
        fs.create_file("/wide", now=0.0, stripe_count=8)
        fs.create_file("/narrow", now=0.0, stripe_count=1)
        before = fs.mds.busy_seconds
        fs.stat("/wide")
        wide_cost = fs.mds.busy_seconds - before
        before = fs.mds.busy_seconds
        fs.stat("/narrow")
        narrow_cost = fs.mds.busy_seconds - before
        assert wide_cost > 2 * narrow_cost

    def test_du_walks_everything(self):
        fs = make_fs()
        fs.mkdir("/p", now=0.0)
        fs.create_file("/p/a", now=0.0, size=100)
        fs.create_file("/p/b", now=0.0, size=200)
        before = fs.mds.busy_seconds
        total = fs.du("/p")
        assert total == 300
        assert fs.mds.busy_seconds > before

    def test_fill_fraction(self):
        fs = make_fs(n_osts=2, capacity=1000)
        fs.create_file("/f", now=0.0, size=500, stripe_count=2,
                       stripe_size=250)
        assert fs.fill_fraction == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LustreFilesystem("x", [])
        with pytest.raises(ValueError):
            make_fs(default_stripe_count=0)
