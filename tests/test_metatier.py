"""Tests for repro.metatier: needles, shards, warm tier, paired study."""

import pytest

from repro.lustre.mds import OpMix
from repro.lustre.namespace import NamespaceError
from repro.lustre.ost import Ost, OstSpec
from repro.metatier import (
    F4_EC,
    RAID6_REPLICATED,
    AgeMigrationPolicy,
    AggregatedTier,
    EncodingScheme,
    HaystackDirectory,
    MetaFault,
    MetaStudySpec,
    NeedleCache,
    PerFileTier,
    SegmentSpec,
    SegmentStore,
    ShardedFilesystem,
    ShardedNamespace,
    TinyFileSizes,
    UntarStorm,
    WarmTier,
    run_meta_study,
    shard_key,
    tradeoff_rows,
)
from repro.metatier.needles import NEEDLE_HEADER_BYTES
from repro.lustre.filesystem import LustreFilesystem
from repro.obs.instruments import Telemetry, use_telemetry
from repro.sim.engine import Engine
from repro.units import GB, KiB, MiB, TB
from tests.conftest import assert_same_seed_equal, assert_seed_sensitive


def make_fs(n_osts: int = 4, capacity: int = 100 * GB) -> LustreFilesystem:
    osts = [Ost(i, OstSpec(capacity_bytes=capacity)) for i in range(n_osts)]
    return LustreFilesystem("t", osts, default_stripe_count=1)


def make_sharded(n_osts: int = 4, n_shards: int = 3,
                 capacity: int = 100 * GB) -> ShardedFilesystem:
    osts = [Ost(i, OstSpec(capacity_bytes=capacity)) for i in range(n_osts)]
    return ShardedFilesystem("t", osts, n_shards=n_shards,
                             default_stripe_count=1)


def small_spec(**kw) -> SegmentSpec:
    base = dict(segment_bytes=1 * MiB, compact_threshold=0.5)
    base.update(kw)
    base.setdefault("max_needle_bytes", min(256 * KiB, base["segment_bytes"]))
    return SegmentSpec(**base)


class TestSegmentStore:
    def test_write_read_delete_roundtrip(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec())
        n = store.write("/a/f1", 1000, now=1.0)
        assert n.offset == 0
        assert n.length == 1000
        assert n.framed_bytes == NEEDLE_HEADER_BYTES + 1000
        assert "/a/f1" in store
        assert len(store) == 1
        got = store.read("/a/f1", now=2.0)
        assert got == n
        store.delete("/a/f1", now=3.0)
        assert "/a/f1" not in store
        with pytest.raises(KeyError):
            store.read("/a/f1", now=4.0)
        with pytest.raises(KeyError):
            store.delete("/a/f1", now=4.0)

    def test_needles_pack_sequentially_into_one_segment(self):
        store = SegmentStore(make_fs(), spec=small_spec())
        n1 = store.write("k1", 100, now=0.0)
        n2 = store.write("k2", 200, now=0.0)
        assert n1.segment_index == n2.segment_index == 0
        assert n2.offset == n1.framed_bytes

    def test_segment_seals_and_rolls_at_capacity(self):
        store = SegmentStore(make_fs(), spec=small_spec(segment_bytes=4096))
        store.write("k1", 2100, now=0.0)
        store.write("k2", 2100, now=0.0)  # does not fit with framing
        assert len(store.segments) == 2
        assert store.segments[0].sealed
        assert not store.segments[1].sealed

    def test_one_mds_create_per_segment_not_per_needle(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=4096))
        before = fs.mds.ops_served
        for i in range(20):
            store.write(f"k{i}", 1000, now=0.0)
        # 20 needles → 5-ish segments; MDS ops are segment creates (plus
        # the one mkdir), nowhere near one per needle.
        created = fs.mds.ops_served - before
        assert created == store.counters.segment_creates + 1
        assert created < 10

    def test_oversized_and_duplicate_writes_rejected(self):
        store = SegmentStore(make_fs(), spec=small_spec())
        with pytest.raises(ValueError):
            store.write("big", 512 * KiB, now=0.0)
        with pytest.raises(ValueError):
            store.write("zero", 0, now=0.0)
        store.write("k", 100, now=0.0)
        with pytest.raises(KeyError):
            store.write("k", 100, now=0.0)

    def test_read_charges_exactly_one_ost(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec())
        needle = store.write("k", 5000, now=0.0)
        reads_before = [o.read_bytes_total for o in fs.osts]
        store.read("k", now=1.0)
        deltas = [o.read_bytes_total - b
                  for o, b in zip(fs.osts, reads_before)]
        assert sorted(deltas)[-1] == needle.framed_bytes
        assert sum(1 for d in deltas if d) == 1

    def test_delete_tombstones_until_compaction(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=8192))
        for i in range(10):
            store.write(f"k{i}", 1500, now=float(i))
        used_before = fs.used_bytes
        for i in range(0, 10, 2):
            store.delete(f"k{i}", now=20.0)
        # Tombstones: logical deletes reclaim nothing until compaction.
        assert fs.used_bytes == used_before
        report = store.compact(now=30.0)
        assert report.segments_compacted >= 1
        assert report.bytes_reclaimed > 0
        assert fs.used_bytes < used_before
        # Every survivor still readable, with its original written_at.
        for i in range(1, 10, 2):
            needle = store.read(f"k{i}", now=31.0)
            assert needle.written_at == float(i)

    def test_compaction_unlinks_retired_segments(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=4096))
        for i in range(6):
            store.write(f"k{i}", 1500, now=0.0)
        first = store.segments[0]
        for needle in list(store.index.values()):
            if needle.segment_index == first.index:
                store.delete(needle.key, now=1.0)
        store.compact(now=2.0)
        assert first.retired
        assert first.path not in fs.namespace
        # A fully-dead segment is rewritten-as-nothing, not moved.
        assert first.n_live == 0

    def test_store_counters_track_physical_ops(self):
        store = SegmentStore(make_fs(), spec=small_spec())
        store.write("a", 100, now=0.0)
        store.write("b", 100, now=0.0)
        store.read("a", now=1.0)
        store.delete("b", now=2.0)
        c = store.counters
        assert (c.writes, c.reads, c.deletes) == (2, 1, 1)
        assert c.bytes_written == 2 * (NEEDLE_HEADER_BYTES + 100)

    def test_telemetry_counters_emitted_when_enabled(self):
        telemetry = Telemetry(enabled=True)
        with use_telemetry(telemetry):
            store = SegmentStore(make_fs(), spec=small_spec())
            store.write("a", 100, now=0.0)
            store.read("a", now=1.0)
        names = {c.name for c in telemetry.counters()}
        assert "metatier.needle_writes" in names
        assert "metatier.needle_reads" in names


class TestDirectoryAndCache:
    def test_directory_roundtrip_and_memory(self):
        store = SegmentStore(make_fs(), spec=small_spec())
        directory = HaystackDirectory([store])
        needle = store.write("/x/1", 100, now=0.0)
        directory.record("/x/1", store, needle)
        assert "/x/1" in directory
        assert directory.locate("/x/1").needle == needle
        assert directory.memory_bytes() == 48
        directory.forget("/x/1")
        assert len(directory) == 0
        with pytest.raises(KeyError):
            directory.locate("/x/1")

    def test_multi_store_writes_are_seeded_and_balanced(self):
        fs = make_fs()
        stores = [SegmentStore(fs, name=f"s{i}", spec=small_spec())
                  for i in range(3)]
        d1 = HaystackDirectory(stores, seed=7)
        picks1 = [d1.store_for_write().name for _ in range(60)]
        fs2 = make_fs()
        stores2 = [SegmentStore(fs2, name=f"s{i}", spec=small_spec())
                   for i in range(3)]
        d2 = HaystackDirectory(stores2, seed=7)
        picks2 = [d2.store_for_write().name for _ in range(60)]
        assert picks1 == picks2           # seeded determinism
        assert len(set(picks1)) == 3      # all stores used

    def test_duplicate_store_names_rejected(self):
        fs = make_fs()
        stores = [SegmentStore(fs, name="dup", spec=small_spec())
                  for _ in range(2)]
        with pytest.raises(ValueError):
            HaystackDirectory(stores)

    def test_cache_hit_rate_converges_and_is_seeded(self):
        c1 = NeedleCache(0.8, seed=3)
        outcomes1 = [c1.lookup() for _ in range(2000)]
        c2 = NeedleCache(0.8, seed=3)
        outcomes2 = [c2.lookup() for _ in range(2000)]
        assert outcomes1 == outcomes2
        assert abs(c1.observed_hit_rate - 0.8) < 0.05
        assert NeedleCache(0.0).observed_hit_rate == 0.0
        with pytest.raises(ValueError):
            NeedleCache(1.5)


def _ops(sns: ShardedNamespace) -> int:
    return sum(server.ops_served for server in sns.servers)


class TestShardedNamespace:
    def test_shard_key_is_stable_and_colocates_siblings(self):
        assert shard_key("/a/b/f1", 4) == shard_key("/a/b/f2", 4)
        assert shard_key("/a/b/f1", 4) == shard_key("/a/b/f1", 4)
        assert 0 <= shard_key("/x", 1) < 1

    def test_create_charges_owning_shard_only(self):
        sns = ShardedNamespace("t", n_shards=3)
        sns.mkdir("/proj", 0.0)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        before = [s.busy_seconds for s in sns.servers]
        sns.create("/proj/f", layout, 1.0)
        deltas = [s.busy_seconds - b for s, b in zip(sns.servers, before)]
        owner = sns.shard_of("/proj/f")
        assert deltas[owner] > 0
        assert all(d == 0.0 for i, d in enumerate(deltas) if i != owner)

    def test_listdir_sees_files_and_replicated_subdirs(self):
        sns = ShardedNamespace("t", n_shards=4)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        sns.mkdir("/d", 0.0)
        sns.mkdir("/d/sub", 0.0)
        for i in range(5):
            sns.create(f"/d/f{i}", layout, 0.0)
        names = sns.listdir("/d")
        assert names == sorted(["/d/sub"] + [f"/d/f{i}" for i in range(5)])

    def test_same_shard_rename_is_one_transaction(self):
        sns = ShardedNamespace("t", n_shards=4)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        sns.mkdir("/d", 0.0)
        sns.create("/d/a", layout, 0.0)
        ops_before = _ops(sns)
        sns.rename("/d/a", "/d/b", 1.0)
        assert sns.cross_shard_renames == 0
        assert _ops(sns) - ops_before == 1
        assert "/d/b" in sns and "/d/a" not in sns

    def test_cross_shard_rename_pays_the_dne_transaction(self):
        n = 4
        sns = ShardedNamespace("t", n_shards=n)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        # Find two directories on different shards.
        dirs = [f"/d{i}" for i in range(16)]
        src_dir = dirs[0]
        src_shard = shard_key(f"{src_dir}/x", n)
        dst_dir = next(d for d in dirs
                       if shard_key(f"{d}/x", n) != src_shard)
        sns.mkdir(src_dir, 0.0)
        sns.mkdir(dst_dir, 0.0)
        sns.create(f"{src_dir}/f", layout, 1.0)
        ops_before = _ops(sns)
        moved = sns.rename(f"{src_dir}/f", f"{dst_dir}/f", 2.0)
        assert sns.cross_shard_renames == 1
        # link + unlink + create + rename bookkeeping: 4 ops, two shards.
        assert _ops(sns) - ops_before == 4
        assert moved.path == f"{dst_dir}/f"
        assert f"{src_dir}/f" not in sns
        # atime/mtime survive the move (it is a rename, not a rewrite).
        assert moved.atime == 1.0 and moved.mtime == 1.0

    def test_rename_rejects_directories(self):
        sns = ShardedNamespace("t", n_shards=4)
        sns.mkdir("/d", 0.0)
        with pytest.raises(NamespaceError):
            sns.rename("/d", "/e", 1.0)

    def test_cross_shard_hard_link(self):
        n = 4
        sns = ShardedNamespace("t", n_shards=n)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        dirs = [f"/d{i}" for i in range(16)]
        home_dir = dirs[0]
        home = shard_key(f"{home_dir}/x", n)
        other_dir = next(d for d in dirs if shard_key(f"{d}/x", n) != home)
        sns.mkdir(home_dir, 0.0)
        sns.mkdir(other_dir, 0.0)
        sns.create(f"{home_dir}/t", layout, 0.0, size=1000)
        link = sns.link(f"{home_dir}/t", f"{other_dir}/l", 1.0)
        assert sns.cross_shard_links == 1
        assert link.size == 0  # dentry only; capacity stays with target
        assert sns.link_targets[f"{other_dir}/l"] == f"{home_dir}/t"

    def test_failed_rmdir_leaves_every_shard_unchanged(self):
        sns = ShardedNamespace("t", n_shards=4)
        from repro.lustre.namespace import StripeLayout
        sns.mkdir("/d", 0.0)
        sns.create("/d/f", StripeLayout(osts=(0,)), 0.0)
        assert sns.shard_of("/d/f") == 3  # after shards 0-2 in unlink order
        with pytest.raises(NamespaceError, match="not empty"):
            sns.unlink("/d")
        assert all("/d" in ns for ns in sns.shards)
        assert [ns.n_dirs for ns in sns.shards] == [2] * 4
        assert "/d" in sns and "/d/f" in sns and sns.n_dirs == 2

    def test_files_iteration_has_no_duplicates(self):
        sns = ShardedNamespace("t", n_shards=3)
        from repro.lustre.namespace import StripeLayout
        layout = StripeLayout(osts=(0,))
        for d in range(4):
            sns.mkdir(f"/d{d}", 0.0)
            for f in range(5):
                sns.create(f"/d{d}/f{f}", layout, 0.0)
        paths = [e.path for e in sns.files()]
        assert len(paths) == len(set(paths)) == 20
        assert sns.n_files == 20

    def test_parallel_busy_is_max_and_balance_in_range(self):
        fs = make_sharded(n_shards=3)
        tier = AggregatedTier(fs, [SegmentStore(fs, spec=small_spec())])
        sns = fs.namespace
        ops_before = tier.metadata_ops()
        sns.servers[0].service_time(OpMix(creates=100))
        sns.servers[1].service_time(OpMix(creates=300))
        busy = [s.busy_seconds for s in sns.servers]
        assert tier.metadata_busy_makespan() == max(busy) == busy[1]
        assert tier.metadata_busy_total() == sum(busy)
        assert tier.metadata_ops() - ops_before == 400
        assert 0.0 < sns.balance() <= 1.0
        empty = ShardedNamespace("e", n_shards=3)
        assert empty.balance() == 1.0


class TestShardedFilesystem:
    def test_capacity_accounting_matches_per_file(self):
        fs = make_sharded()
        fs.mkdir("/d", 0.0)
        fs.create_file("/d/a", 0.0, size=10 * MiB)
        assert fs.used_bytes == 10 * MiB
        fs.append("/d/a", 2 * MiB, 1.0)
        assert fs.used_bytes == 12 * MiB
        fs.unlink("/d/a")
        assert fs.used_bytes == 0

    def test_unlinking_a_link_dentry_keeps_capacity(self):
        fs = make_sharded()
        fs.mkdir("/d", 0.0)
        fs.create_file("/d/a", 0.0, size=4 * MiB)
        fs.namespace.link("/d/a", "/d/l", 1.0)
        used = fs.used_bytes
        fs.unlink("/d/l")
        assert fs.used_bytes == used
        fs.unlink("/d/a")
        assert fs.used_bytes == 0

    def test_renamed_link_dentry_keeps_its_link_record(self):
        fs = make_sharded(n_shards=4)
        fs.mkdir("/d", 0.0)
        fs.mkdir("/e", 0.0)
        fs.create_file("/d/a", 0.0, size=4 * MiB)
        fs.namespace.link("/d/a", "/d/l", 1.0)
        fs.rename("/d/l", "/d/l1", 2.0)       # same shard
        assert fs.namespace.shard_of("/e/l2") != fs.namespace.shard_of("/d/l1")
        fs.rename("/d/l1", "/e/l2", 3.0)      # cross shard
        assert fs.namespace.link_targets == {"/e/l2": "/d/a"}
        ost = fs.ost(fs.namespace.get("/d/a").layout.osts[0])
        used, objects = fs.used_bytes, ost.n_objects
        fs.unlink("/e/l2")
        assert (fs.used_bytes, ost.n_objects) == (used, objects) == (4 * MiB, 1)

    def test_scan_cost_is_parallel_across_shards(self):
        sharded = make_sharded(n_shards=4)
        single = make_fs()
        n = 100_000
        t_sharded = sharded.scan_cost(n, server_scan_speedup=10.0)
        t_single = single.scan_cost(n, server_scan_speedup=10.0)
        # 4 shards scan in parallel: makespan ~ 1/4 of the single MDS.
        assert t_sharded < t_single / 3.0
        # And every shard was charged its share.
        assert all(s.busy_seconds > 0 for s in sharded.mds_servers)

    def test_du_spreads_stats_over_shards(self):
        fs = make_sharded(n_shards=3)
        for d in range(6):
            fs.mkdir(f"/d{d}", 0.0)
            fs.create_file(f"/d{d}/f", 0.0, size=1024)
        total = fs.du("/")
        assert total == 6 * 1024
        assert sum(s.ops_served for s in fs.namespace.servers) >= 6


class TestWarmTier:
    def test_scheme_presets_match_published_multipliers(self):
        assert F4_EC.storage_multiplier == 2.1
        assert RAID6_REPLICATED.storage_multiplier == 2.5
        assert F4_EC.raw_bytes(100 * TB) == int(210 * TB)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            EncodingScheme("bad", 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            EncodingScheme("bad", 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            EncodingScheme("bad", 2.0, 1.0, 0.5)

    def test_rebuild_tradeoff_ec_cheaper_at_rest_dearer_in_crisis(self):
        raid = RAID6_REPLICATED
        ec = F4_EC
        logical = 10 * TB
        assert ec.raw_bytes(logical) < raid.raw_bytes(logical)
        assert (ec.rebuild_seconds(1 * TB, 1 * GB)
                > raid.rebuild_seconds(1 * TB, 1 * GB))

    def test_tradeoff_rows_shape(self):
        rows = tradeoff_rows()
        assert len(rows) == 2
        assert rows[0][0] == "raid6+replica"
        assert rows[1][0] == "f4-ec(10,4)"
        assert all(len(r) == 4 for r in rows)

    def test_migration_moves_only_sealed_cold_segments(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=4096))
        for i in range(8):
            store.write(f"k{i}", 1500, now=float(i))
        warm = WarmTier()
        policy = AgeMigrationPolicy(age_threshold=100.0)
        # Nothing is old enough yet.
        assert policy.eligible(store, now=50.0) == []
        report = policy.sweep(store, warm, now=200.0)
        sealed = [s for s in store.segments if s.sealed]
        assert report.segments_migrated == len(sealed) > 0
        assert all(s.migrated for s in sealed)
        # The open segment stays hot.
        assert not store.segments[-1].migrated
        assert warm.n_segments == len(sealed)
        assert warm.logical_bytes == sum(s.live_bytes for s in sealed)

    def test_migration_releases_hot_capacity_and_saves_raw_bytes(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=4096))
        for i in range(8):
            store.write(f"k{i}", 1500, now=0.0)
        used_before = fs.used_bytes
        report = AgeMigrationPolicy(10.0).sweep(store, WarmTier(), now=100.0)
        assert fs.used_bytes < used_before
        # 2.5x replicated hot bytes out, 2.1x EC warm bytes in: net win.
        assert report.raw_bytes_saved > 0

    def test_reads_of_migrated_needles_skip_hot_osts(self):
        fs = make_fs()
        store = SegmentStore(fs, spec=small_spec(segment_bytes=4096))
        for i in range(4):
            store.write(f"k{i}", 1500, now=0.0)
        AgeMigrationPolicy(10.0).sweep(store, WarmTier(), now=100.0)
        migrated_key = next(
            n.key for n in store.index.values()
            if store.segments[n.segment_index].migrated)
        reads_before = sum(o.read_bytes_total for o in fs.osts)
        store.read(migrated_key, now=101.0)
        assert sum(o.read_bytes_total for o in fs.osts) == reads_before

    def test_warm_read_seconds_applies_read_factor(self):
        warm = WarmTier(read_bandwidth=1 * GB)
        t = warm.read_seconds(1 * GB)
        assert t == pytest.approx(1.0 / F4_EC.read_factor)
        assert warm.reads_served == 1


class TestScenariosAndStudy:
    def small(self, **kw) -> MetaStudySpec:
        base = dict(n_files=2_000, files_per_dir=200, n_epochs=1,
                    segment_bytes=4 * MiB)
        base.update(kw)
        return MetaStudySpec(**base)

    def test_untar_storm_builds_manifest_minus_temps(self):
        engine = Engine()
        tier = PerFileTier(make_fs())
        storm = UntarStorm(n_files=1000, files_per_dir=100,
                           temp_fraction=0.25,
                           sizes=TinyFileSizes(seed=5), duration=100.0)
        storm.install(engine, tier)
        engine.run(until=200.0)
        assert tier.logical_creates == 1000
        assert tier.logical_deletes == 250
        assert len(storm.manifest) == 750
        assert tier.fs.namespace.n_files == 750

    def test_tiny_file_sizes_are_seeded_and_bounded(self):
        a = TinyFileSizes(seed=9)
        b = TinyFileSizes(seed=9)
        draws = [a.draw() for _ in range(500)]
        assert draws == [b.draw() for _ in range(500)]
        assert all(256 <= d <= 512 * KiB for d in draws)

    def test_meta_fault_validation(self):
        with pytest.raises(ValueError):
            MetaFault(time=0.0, kind="disk-on-fire")
        with pytest.raises(ValueError):
            MetaFault(time=-1.0, kind="ost-fill")

    def seeded_study(self, seed: int):
        return run_meta_study(self.small(seed=seed))

    def test_study_same_seed_is_equal(self):
        assert_same_seed_equal(self.seeded_study, 1)

    def test_study_different_seed_differs(self):
        assert_seed_sensitive(self.seeded_study, 1)

    def test_study_counts_needle_writes(self):
        telemetry = Telemetry(enabled=True)
        with use_telemetry(telemetry):
            run_meta_study(self.small())
        names = {c.name for c in telemetry.counters()}
        assert "metatier.needle_writes" in names

    def test_aggregated_tier_beats_baseline_by_10x(self):
        result = run_meta_study(self.small(with_faults=False))
        assert result.throughput_gain >= 10.0
        assert (result.aggregated.mds_busy_makespan
                < result.baseline.mds_busy_makespan)
        # Both arms replay the same logical workload.
        assert result.aggregated.logical_ops == result.baseline.logical_ops
        assert result.aggregated.n_purged == result.baseline.n_purged

    def test_study_exercises_the_whole_tier(self):
        result = run_meta_study(self.small())
        agg = result.aggregated
        assert agg.n_segments and agg.n_segments > 0
        assert agg.n_segments_migrated and agg.n_segments_migrated > 0
        assert agg.observed_cache_hit_rate == pytest.approx(0.8, abs=0.1)
        assert agg.warm_logical_bytes and agg.warm_logical_bytes > 0
        assert agg.shard_balance and 0.0 < agg.shard_balance <= 1.0
        # The purge removed the day-old untar output in both arms.
        assert result.baseline.n_purged > 0

    def test_faults_hit_both_arms(self):
        quiet = run_meta_study(self.small(with_faults=False))
        noisy = run_meta_study(self.small(with_faults=True))
        assert (noisy.baseline.mds_busy_makespan
                > quiet.baseline.mds_busy_makespan)
        assert (noisy.aggregated.mds_busy_makespan
                > quiet.aggregated.mds_busy_makespan)


class TestAggregatedTierUnit:
    def test_read_path_cache_hits_skip_the_store(self):
        fs = make_sharded()
        store = SegmentStore(fs, spec=small_spec())
        tier = AggregatedTier(fs, [store], cache_hit_rate=1.0)
        tier.mkdir("/d", 0.0)
        tier.create("/d/f", 1000, 0.0)
        reads_before = store.counters.reads
        for _ in range(10):
            tier.read("/d/f", 1.0)
        assert store.counters.reads == reads_before  # all hits
        tier2_fs = make_sharded()
        store2 = SegmentStore(tier2_fs, spec=small_spec())
        tier2 = AggregatedTier(tier2_fs, [store2], cache_hit_rate=0.0)
        tier2.mkdir("/d", 0.0)
        tier2.create("/d/f", 1000, 0.0)
        for _ in range(10):
            tier2.read("/d/f", 1.0)
        assert store2.counters.reads == 10  # all misses

    def test_creates_cost_no_mds_ops(self):
        fs = make_sharded()
        store = SegmentStore(fs, spec=small_spec())
        tier = AggregatedTier(fs, [store])
        tier.mkdir("/d", 0.0)
        ops_after_setup = tier.metadata_ops()
        for i in range(50):
            tier.create(f"/d/f{i}", 1000, 0.0)
        # Segment-level ops only (the store-root mkdir + one segment
        # create; all 50 needles fit one 1 MiB segment).
        assert tier.metadata_ops() - ops_after_setup <= 2
