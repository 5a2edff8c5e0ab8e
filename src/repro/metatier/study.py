"""The metatier headline experiment: per-file baseline vs aggregated tier.

:func:`run_meta_study` replays the *same* metadata-heavy day — an untar
storm, AI-training shard reads, periodic purge/audit sweeps, an MDS
overload and an OST fill — against two tiers built from the same seed:

* **per-file** — every tiny file is a real namespace entry on a single
  MDS (Spider's §IV-C reality);
* **aggregated** — tiny files are needles in OST-striped segments, the
  residual namespace is DNE-sharded over N MDTs, and cold segments
  migrate to the f4-style warm tier.

Workloads, file sizes, read orders, and fault times are identical across
arms, so the difference in metadata-service busy time is attributable to
the tier design alone.  The headline metric is logical metadata
operations per second of metadata-service makespan; the acceptance bar
(and the test suite's pin) is a ≥10x gain for the aggregated arm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.ost import Ost, OstSpec
from repro.metatier.needles import SegmentSpec, SegmentStore
from repro.metatier.scenarios import (
    AggregatedTier,
    AuditSweep,
    PerFileTier,
    TinyFileSizes,
    TrainingReads,
    UntarStorm,
    default_fault_plan,
)
from repro.metatier.shards import ShardedFilesystem
from repro.obs.trace import get_tracer
from repro.sim.engine import Engine
from repro.units import DAY, HOUR, KiB, MiB, TB

__all__ = ["MetaStudySpec", "ArmResult", "MetaStudyResult", "run_meta_study"]


@dataclass(frozen=True)
class MetaStudySpec:
    """Every knob of the paired study, in one seeded bundle."""

    n_files: int = 20_000
    seed: int = 0
    n_shards: int = 4
    n_osts: int = 8
    ost_capacity: int = 4 * TB
    n_stores: int = 2
    segment_bytes: int = 64 * MiB
    compact_threshold: float = 0.25
    cache_hit_rate: float = 0.8
    mean_file_bytes: int = 32 * KiB
    files_per_dir: int = 1_000
    temp_fraction: float = 0.25
    n_epochs: int = 2
    read_fraction: float = 0.2
    purge_age: float = 1 * DAY
    audit_interval: float = 6 * HOUR
    migrate_age: float = 12 * HOUR
    horizon: float = 2 * DAY
    with_faults: bool = True

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ValueError("n_files must be positive")
        if self.n_shards < 1 or self.n_osts < 1 or self.n_stores < 1:
            raise ValueError("n_shards, n_osts, n_stores must be positive")


@dataclass(frozen=True)
class ArmResult:
    """One arm of the study, reduced to comparable scalars."""

    name: str
    n_creates: int
    n_reads: int
    n_deletes: int
    audit_examined: int
    n_purged: int
    mds_busy_makespan: float
    mds_busy_total: float
    mds_ops: int
    fill_fraction: float
    #: aggregated-arm extras (None on the per-file baseline)
    n_segments: int | None = None
    n_segments_migrated: int | None = None
    n_compaction_passes: int | None = None
    observed_cache_hit_rate: float | None = None
    directory_bytes: int | None = None
    warm_logical_bytes: int | None = None
    shard_balance: float | None = None

    @property
    def logical_ops(self) -> int:
        """Logical metadata operations the workload issued."""
        return (self.n_creates + self.n_reads + self.n_deletes
                + self.audit_examined)

    @property
    def ops_per_mds_second(self) -> float:
        """The headline: logical ops per second of metadata makespan."""
        if self.mds_busy_makespan <= 0:
            return float("inf")
        return self.logical_ops / self.mds_busy_makespan

    def rows(self) -> list[tuple[str, str]]:
        """Key/value rows for the CLI report."""
        rows = [
            ("logical ops (create/read/delete/audit)",
             f"{self.n_creates:,} / {self.n_reads:,} / "
             f"{self.n_deletes:,} / {self.audit_examined:,}"),
            ("files purged", f"{self.n_purged:,}"),
            ("MDS busy (makespan)", f"{self.mds_busy_makespan:,.1f} s"),
            ("MDS ops served", f"{self.mds_ops:,}"),
            ("throughput", f"{self.ops_per_mds_second:,.0f} ops/MDS-s"),
            ("hot-pool fill", f"{self.fill_fraction:.2%}"),
        ]
        if self.n_segments is not None:
            rows.append(("segments (migrated)",
                         f"{self.n_segments:,} ({self.n_segments_migrated:,})"))
            rows.append(("compaction passes",
                         f"{self.n_compaction_passes:,}"))
            rows.append(("cache hit rate",
                         f"{self.observed_cache_hit_rate:.1%}"))
            rows.append(("directory RAM",
                         f"{(self.directory_bytes or 0) / MiB:,.1f} MiB"))
            rows.append(("warm tier",
                         f"{(self.warm_logical_bytes or 0) / MiB:,.0f} MiB logical"))
            rows.append(("shard balance (Jain)",
                         f"{self.shard_balance:.3f}"))
        return rows


@dataclass(frozen=True)
class MetaStudyResult:
    """Per-file baseline vs aggregated tier, one seed, one timeline."""

    spec: MetaStudySpec
    baseline: ArmResult
    aggregated: ArmResult

    @property
    def throughput_gain(self) -> float:
        """Aggregated over baseline logical-ops-per-MDS-second."""
        base = self.baseline.ops_per_mds_second
        if base <= 0:
            return float("inf")
        return self.aggregated.ops_per_mds_second / base

    @property
    def mds_seconds_removed(self) -> float:
        """Metadata makespan seconds the aggregated tier eliminated."""
        return (self.baseline.mds_busy_makespan
                - self.aggregated.mds_busy_makespan)

    def rows(self) -> list[tuple[str, str, str]]:
        """Comparison rows: metric, baseline, aggregated."""
        arms = (self.baseline, self.aggregated)
        return [
            ("MDS busy (makespan)",
             *(f"{a.mds_busy_makespan:,.1f} s" for a in arms)),
            ("MDS ops served", *(f"{a.mds_ops:,}" for a in arms)),
            ("throughput",
             *(f"{a.ops_per_mds_second:,.0f} ops/MDS-s" for a in arms)),
            ("hot-pool fill", *(f"{a.fill_fraction:.2%}" for a in arms)),
        ]


def _make_osts(spec: MetaStudySpec) -> list[Ost]:
    ost_spec = OstSpec(capacity_bytes=spec.ost_capacity)
    return [Ost(i, ost_spec, oss_name=f"oss{i // 2}")
            for i in range(spec.n_osts)]


def _run_arm(tier, spec: MetaStudySpec) -> tuple[int, "AuditSweep"]:
    """Replay the standard timeline against ``tier``; returns the purge
    total and the audit sweep (for report access)."""
    engine = Engine()
    storm = UntarStorm(
        n_files=spec.n_files,
        files_per_dir=spec.files_per_dir,
        temp_fraction=spec.temp_fraction,
        duration=1 * HOUR,
        sizes=TinyFileSizes(spec.mean_file_bytes, seed=spec.seed),
    )
    storm.install(engine, tier)
    reads = TrainingReads(
        storm.manifest,
        n_epochs=spec.n_epochs,
        sample_fraction=spec.read_fraction,
        epoch_duration=1 * HOUR,
        start=2 * HOUR,
        seed=spec.seed,
    )
    reads.install(engine, tier)
    audit = AuditSweep(storm.manifest, max_age=spec.purge_age,
                       interval=spec.audit_interval)
    audit.install(engine, tier)
    if spec.with_faults:
        default_fault_plan().install(engine, tier)
    with get_tracer().span(f"meta:arm:{tier.name}", "metatier",
                           files=spec.n_files):
        engine.run(until=spec.horizon)
    purged = sum(r.purged for r in audit.reports)
    return purged, audit


def run_meta_study(spec: MetaStudySpec | None = None) -> MetaStudyResult:
    """Run both arms on the shared timeline and seed.

    Arms are built and run sequentially (each mutates its own file
    system), so peak memory is one arm's namespace, not two.
    """
    spec = spec or MetaStudySpec()

    # -- arm 1: per-file on a single MDS ----------------------------------
    base_fs = LustreFilesystem("meta-base", _make_osts(spec),
                               default_stripe_count=1)
    base_tier = PerFileTier(base_fs)
    base_purged, _ = _run_arm(base_tier, spec)
    baseline = ArmResult(
        name=base_tier.name,
        n_creates=base_tier.logical_creates,
        n_reads=base_tier.logical_reads,
        n_deletes=base_tier.logical_deletes,
        audit_examined=base_tier.audit_examined,
        n_purged=base_purged,
        mds_busy_makespan=base_tier.metadata_busy_makespan(),
        mds_busy_total=base_tier.metadata_busy_total(),
        mds_ops=base_tier.metadata_ops(),
        fill_fraction=base_tier.fill_fraction,
    )

    # -- arm 2: aggregated needles + sharded residual namespace -----------
    agg_fs = ShardedFilesystem("meta-agg", _make_osts(spec),
                               n_shards=spec.n_shards,
                               default_stripe_count=1)
    seg_spec = SegmentSpec(segment_bytes=spec.segment_bytes,
                           compact_threshold=spec.compact_threshold)
    stores = [SegmentStore(agg_fs, name=f"store{i}", spec=seg_spec)
              for i in range(spec.n_stores)]
    agg_tier = AggregatedTier(
        agg_fs, stores,
        cache_hit_rate=spec.cache_hit_rate,
        migrate_age=spec.migrate_age,
        seed=spec.seed,
    )
    agg_purged, _ = _run_arm(agg_tier, spec)
    aggregated = ArmResult(
        name=agg_tier.name,
        n_creates=agg_tier.logical_creates,
        n_reads=agg_tier.logical_reads,
        n_deletes=agg_tier.logical_deletes,
        audit_examined=agg_tier.audit_examined,
        n_purged=agg_purged,
        mds_busy_makespan=agg_tier.metadata_busy_makespan(),
        mds_busy_total=agg_tier.metadata_busy_total(),
        mds_ops=agg_tier.metadata_ops(),
        fill_fraction=agg_tier.fill_fraction,
        n_segments=sum(len(s.segments) for s in stores),
        n_segments_migrated=sum(
            1 for s in stores for seg in s.segments if seg.migrated),
        n_compaction_passes=sum(s.counters.compactions for s in stores),
        observed_cache_hit_rate=agg_tier.cache.observed_hit_rate,
        directory_bytes=agg_tier.directory.memory_bytes(),
        warm_logical_bytes=agg_tier.warm.logical_bytes,
        shard_balance=agg_fs.namespace.balance(),
    )

    return MetaStudyResult(spec=spec, baseline=baseline,
                           aggregated=aggregated)
