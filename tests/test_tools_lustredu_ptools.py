"""LustreDU and parallel-tool tests: the Lesson 19 cost asymmetries."""

from functools import partial

import pytest

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.ost import Ost, OstSpec
from repro.metatier.shards import ShardedFilesystem
from repro.tools.lustredu import LustreDu, client_du_cost
from repro.tools.ptools import ParallelTool, SerialTool, ToolComparison
from repro.units import DAY, MiB, TB

#: the same OSTs and stripe count, with the namespace over three MDTs
SHARDED = partial(ShardedFilesystem, n_shards=3, default_stripe_count=4)


def _populated(make=LustreFilesystem):
    osts = [Ost(i, OstSpec(capacity_bytes=16 * TB)) for i in range(8)]
    fs = make("testfs", osts)
    fs.mkdir("/projA", now=0.0)
    fs.mkdir("/projB", now=0.0)
    for i in range(200):
        proj = "projA" if i % 2 == 0 else "projB"
        fs.create_file(f"/{proj}/f{i:03d}", now=float(i), size=(i + 1) * MiB,
                       owner=f"user{i % 3}", project=proj)
    return fs


@pytest.fixture
def fs():
    return _populated()


class TestLustreDu:
    def test_sweep_totals_match_namespace(self, fs):
        du = LustreDu(fs)
        snap = du.sweep(now=DAY)
        assert snap.n_files == 200
        total = sum(snap.bytes_by_project.values())
        assert total == fs.namespace.total_bytes()

    def test_query_by_project_owner_dir(self, fs):
        du = LustreDu(fs)
        du.sweep(now=DAY)
        a = du.query(project="projA")
        b = du.query(project="projB")
        assert a + b == du.query()
        assert du.query(top_dir="/projA") == a
        by_owner = sum(du.query(owner=f"user{i}") for i in range(3))
        assert by_owner == du.query()

    def test_query_before_sweep_fails(self, fs):
        with pytest.raises(RuntimeError):
            LustreDu(fs).query()

    def test_staleness(self, fs):
        du = LustreDu(fs)
        assert du.staleness(now=0.0) == float("inf")
        du.sweep(now=100.0)
        assert du.staleness(now=250.0) == 150.0

    def test_sweep_cheaper_than_client_du(self, fs):
        """The Lesson 19 asymmetry: server-side sweep MDS cost is orders of
        magnitude below a client-side per-file stat storm."""
        du = LustreDu(fs)
        snap = du.sweep(now=0.0)
        _total, client_cost = client_du_cost(fs)
        assert client_cost > 50 * snap.sweep_mds_seconds

    def test_queries_cost_no_mds_time(self, fs):
        du = LustreDu(fs)
        du.sweep(now=0.0)
        before = [server.busy_seconds for server in fs.mds_servers]
        du.query(project="projA")
        assert [server.busy_seconds for server in fs.mds_servers] == before

    def test_validation(self, fs):
        with pytest.raises(ValueError):
            LustreDu(fs, sweep_interval=0)


class TestLustreDuOnShards(TestLustreDu):
    """The sweep and query checks on the sharded file system."""

    @pytest.fixture
    def fs(self):
        return _populated(SHARDED)

    # client_du_cost reads the single ``fs.mds``
    test_sweep_cheaper_than_client_du = None


class TestParallelTools:
    def test_serial_copy_accounts_walk_latency_stream(self, fs):
        run = SerialTool(fs).copy("/projA")
        assert run.n_files == 100
        assert run.total_bytes == fs.namespace.total_bytes("/projA")
        assert run.wall_seconds > 0

    def test_parallel_copy_speedup(self, fs):
        serial = SerialTool(fs).copy("/projA")
        parallel = ParallelTool(fs, n_workers=16).copy("/projA")
        cmp = ToolComparison(serial, parallel)
        assert cmp.speedup > 4.0

    def test_speedup_saturates_at_pfs_bandwidth(self, fs):
        """More workers stop helping once they outrun the file system —
        the crossover E13 reports."""
        slow_pfs = 2 * 10**9  # 2 GB/s aggregate
        t16 = ParallelTool(fs, 16, pfs_aggregate_bw=slow_pfs).copy("/projA")
        t256 = ParallelTool(fs, 256, pfs_aggregate_bw=slow_pfs).copy("/projA")
        assert t256.wall_seconds > 0.5 * t16.wall_seconds  # sub-linear now

    def test_find_speedup_is_latency_bound(self, fs):
        serial = SerialTool(fs).find("/")
        parallel = ParallelTool(fs, n_workers=8).find("/")
        assert ToolComparison(serial, parallel).speedup > 4.0
        assert parallel.total_bytes == 0

    def test_archive_mirrors_copy(self, fs):
        t = SerialTool(fs)
        assert t.archive("/projA").wall_seconds > t.copy("/projA").wall_seconds

    def test_makespan_greedy_vs_single(self, fs):
        p1 = ParallelTool(fs, n_workers=1)
        p8 = ParallelTool(fs, n_workers=8)
        assert p8.copy("/").wall_seconds < p1.copy("/").wall_seconds

    def test_comparison_row(self, fs):
        cmp = ToolComparison(SerialTool(fs).find("/"),
                             ParallelTool(fs, 8).find("/"))
        row = cmp.row()
        assert row[0].startswith("dfind")

    def test_validation(self, fs):
        with pytest.raises(ValueError):
            ParallelTool(fs, n_workers=0)


class TestSweepOrderingDeterminism:
    """DuSnapshot must not depend on file-creation order: the sweep walks
    the namespace in sorted order, so even the *iteration order* of the
    aggregation dicts is pinned (same first-seen sequence)."""

    def _build(self, order, make=LustreFilesystem):
        osts = [Ost(i, OstSpec(capacity_bytes=16 * TB)) for i in range(4)]
        fs = make("perm", osts)
        for proj in ("projA", "projB", "projC"):
            fs.mkdir(f"/{proj}", now=0.0)
        for i in order:
            proj = f"proj{'ABC'[i % 3]}"
            fs.create_file(f"/{proj}/f{i:03d}", now=float(i),
                           size=(i + 1) * MiB, owner=f"user{i % 2}",
                           project=proj)
        return fs

    def test_snapshot_identical_across_insertion_permutations(self):
        base = list(range(30))
        orders = (list(reversed(base)), base[1::2] + base[0::2],
                  base[15:] + base[:15])
        for make in (LustreFilesystem, SHARDED):
            ref = LustreDu(self._build(base, make)).sweep(now=DAY)
            for order in orders:
                snap = LustreDu(self._build(order, make)).sweep(now=DAY)
                assert snap == ref
                # Insertion-order-sensitive surface: dict iteration order.
                assert (list(snap.bytes_by_top_dir)
                        == list(ref.bytes_by_top_dir))
                assert list(snap.bytes_by_owner) == list(ref.bytes_by_owner)
                assert (list(snap.bytes_by_project)
                        == list(ref.bytes_by_project))
