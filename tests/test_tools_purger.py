"""Purge engine tests: the 14-day policy and its invariants."""

from functools import partial

import pytest

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.ost import Ost, OstSpec
from repro.metatier.shards import ShardedFilesystem
from repro.tools.purger import Purger
from repro.units import DAY, MiB, TB

#: the same OSTs and stripe count, with the namespace over three MDTs
SHARDED = partial(ShardedFilesystem, n_shards=3, default_stripe_count=4)


def _scratch(make=LustreFilesystem):
    osts = [Ost(i, OstSpec(capacity_bytes=1 * TB)) for i in range(4)]
    fs = make("scratch", osts)
    fs.mkdir("/u", now=0.0)
    return fs


@pytest.fixture
def fs():
    return _scratch()


class TestEligibility:
    def test_old_untouched_file_is_eligible(self, fs):
        fs.create_file("/u/old", now=0.0, size=MiB)
        purger = Purger(fs)
        assert purger.eligible(fs.namespace.get("/u/old"), now=15 * DAY)

    def test_recent_create_protected(self, fs):
        fs.create_file("/u/new", now=10 * DAY, size=MiB)
        purger = Purger(fs)
        assert not purger.eligible(fs.namespace.get("/u/new"), now=15 * DAY)

    def test_recent_read_protects(self, fs):
        """'not created, modified, or accessed within a contiguous 14 day
        range' — a read resets the clock."""
        fs.create_file("/u/f", now=0.0, size=MiB)
        fs.read_file("/u/f", now=10 * DAY)
        purger = Purger(fs)
        assert not purger.eligible(fs.namespace.get("/u/f"), now=20 * DAY)
        assert purger.eligible(fs.namespace.get("/u/f"), now=25 * DAY)

    def test_recent_write_protects(self, fs):
        fs.create_file("/u/f", now=0.0, size=MiB)
        fs.append("/u/f", MiB, now=13 * DAY)
        assert not Purger(fs).eligible(fs.namespace.get("/u/f"), now=20 * DAY)

    def test_exemption(self, fs):
        fs.create_file("/u/keep", now=0.0, size=MiB, project="pinned")
        purger = Purger(fs, exempt=lambda e: e.project == "pinned")
        assert not purger.eligible(fs.namespace.get("/u/keep"), now=30 * DAY)

    def test_directories_never_eligible(self, fs):
        assert not Purger(fs).eligible(fs.namespace.get("/u"), now=100 * DAY)


class TestSweep:
    def test_sweep_removes_and_reclaims(self, fs):
        fs.create_file("/u/old", now=0.0, size=10 * MiB)
        fs.create_file("/u/new", now=20 * DAY, size=10 * MiB)
        report = Purger(fs).sweep(now=21 * DAY)
        assert report.files_purged == 1
        assert report.bytes_purged == 10 * MiB
        assert "/u/old" not in fs.namespace
        assert "/u/new" in fs.namespace
        assert report.fill_after < report.fill_before

    def test_dry_run_deletes_nothing(self, fs):
        fs.create_file("/u/old", now=0.0, size=MiB)
        report = Purger(fs).sweep(now=30 * DAY, dry_run=True)
        assert report.files_purged == 1
        assert "/u/old" in fs.namespace
        assert Purger(fs).total_purged_bytes() == 0

    def test_never_deletes_recently_touched(self, fs):
        """Safety invariant: no file touched within the window is removed."""
        for i in range(50):
            fs.create_file(f"/u/f{i}", now=float(i) * DAY, size=MiB)
        now = 40 * DAY
        Purger(fs).sweep(now=now)
        for entry in fs.namespace.files():
            assert now - entry.last_touched() <= 14 * DAY

    def test_repeated_sweeps_accumulate(self, fs):
        fs.create_file("/u/a", now=0.0, size=MiB)
        fs.create_file("/u/b", now=20 * DAY, size=MiB)
        purger = Purger(fs)
        purger.sweep(now=15 * DAY)
        purger.sweep(now=40 * DAY)
        assert purger.total_purged_bytes() == 2 * MiB
        assert len(purger.reports) == 2

    def test_validation(self, fs):
        with pytest.raises(ValueError):
            Purger(fs, age_limit=0)
        with pytest.raises(ValueError):
            Purger(fs, batch_size=0)


class TestStreamingSweep:
    """The batched sweep must be invisible in the reports: any batch size
    (including mid-walk drains) yields the identical PurgeReport and final
    namespace as the collect-everything-first behaviour."""

    make_fs = LustreFilesystem

    def _populate(self, fs, n=137):
        # Mix of eligible (old), protected (fresh), and exempt-by-test files
        # spread over several directories so drains happen mid-directory
        # and across directory boundaries.
        for d in range(7):
            fs.mkdir(f"/u/d{d}", now=0.0)
        for i in range(n):
            d = f"/u/d{i % 7}"
            age = 0.0 if i % 3 else 20 * DAY
            fs.create_file(f"{d}/f{i:03d}", now=age, size=(i + 1) * MiB)

    def _make(self, batch_size):
        fs = _scratch(self.make_fs)
        self._populate(fs)
        return fs, Purger(fs, batch_size=batch_size)

    def test_batch_size_does_not_change_report_or_namespace(self):
        fs_ref, ref_purger = self._make(batch_size=10**9)  # one giant batch
        ref = ref_purger.sweep(now=21 * DAY)
        for batch_size in (1, 3, 10, 137):
            fs, purger = self._make(batch_size=batch_size)
            report = purger.sweep(now=21 * DAY)
            assert report == ref
            assert sorted(e.path for e in fs.namespace.files()) == sorted(
                e.path for e in fs_ref.namespace.files())
            assert fs.used_bytes == fs_ref.used_bytes

    def test_dry_run_report_matches_real_run(self):
        """Dry run must predict exactly what a real run would do."""
        fs_dry, purger_dry = self._make(batch_size=5)
        dry = purger_dry.sweep(now=21 * DAY, dry_run=True)
        fs_real, purger_real = self._make(batch_size=5)
        real = purger_real.sweep(now=21 * DAY)
        assert dry.files_examined == real.files_examined
        assert dry.files_purged == real.files_purged
        assert dry.bytes_purged == real.bytes_purged
        assert dry.fill_before == real.fill_before
        # Dry run must not touch the namespace or capacity.
        assert dry.fill_after == dry.fill_before
        assert len(list(fs_dry.namespace.files())) == dry.files_examined

    def test_mid_walk_drain_preserves_safety_invariant(self):
        fs, purger = self._make(batch_size=2)
        now = 21 * DAY
        purger.sweep(now=now)
        for entry in fs.namespace.files():
            assert now - entry.last_touched() <= purger.age_limit


class _OnShards:
    """Reruns a test class on the sharded file system."""

    make_fs = SHARDED

    @pytest.fixture
    def fs(self):
        return _scratch(self.make_fs)


class TestEligibilityOnShards(_OnShards, TestEligibility):
    pass


class TestSweepOnShards(_OnShards, TestSweep):
    pass


class TestStreamingSweepOnShards(_OnShards, TestStreamingSweep):
    pass
