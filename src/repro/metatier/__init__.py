"""repro.metatier — the small-file/metadata tier the paper stops short of.

§IV-C documents the single-MDS ceiling and answers it operationally
(multiple namespaces, purges, LustreDU).  This package builds the
architectural answer out of ideas proven at comparable scale:

* :mod:`repro.metatier.needles` — Haystack-style needle-in-segment
  aggregation: tiny files packed into large OST-striped segment files,
  an in-memory index, tombstone deletes, per-segment compaction;
* :mod:`repro.metatier.directory` — the Haystack Directory (logical-ID →
  segment mapping) and Cache (seeded hit-rate model);
* :mod:`repro.metatier.shards` — DNE-style namespace sharding across N
  MDTs with honest cross-shard rename/link costs;
* :mod:`repro.metatier.warmtier` — the f4-style erasure-coded warm tier
  (2.1x vs replication) with age-based migration on sim time;
* :mod:`repro.metatier.scenarios` — metadata-heavy workload generators
  (untar storms, training reads, purge/audit sweeps) and the study's
  standing :class:`~repro.faults.plan.FaultPlan`, which runs through the
  shared :class:`~repro.faults.executor.FaultExecutor` like every other
  fault in the repo;
* :mod:`repro.metatier.study` — the paired study: per-file single-MDS
  baseline vs aggregated+sharded tier on one timeline and seed.
"""

from repro.metatier.directory import (
    DirectoryEntry,
    HaystackDirectory,
    NeedleCache,
)
from repro.metatier.needles import (
    CompactionReport,
    Needle,
    Segment,
    SegmentSpec,
    SegmentStore,
)
from repro.metatier.scenarios import (
    AggregatedTier,
    AuditSweep,
    PerFileTier,
    TinyFileSizes,
    TrainingReads,
    UntarStorm,
)
from repro.metatier.shards import ShardedFilesystem, ShardedNamespace
from repro.metatier.study import (
    ArmResult,
    MetaStudyResult,
    MetaStudySpec,
    run_meta_study,
)
from repro.metatier.warmtier import (
    F4_EC,
    RAID6_REPLICATED,
    AgeMigrationPolicy,
    EncodingScheme,
    MigrationReport,
    WarmTier,
    tradeoff_rows,
)

__all__ = [
    "AgeMigrationPolicy",
    "AggregatedTier",
    "ArmResult",
    "AuditSweep",
    "CompactionReport",
    "DirectoryEntry",
    "EncodingScheme",
    "F4_EC",
    "HaystackDirectory",
    "MetaStudyResult",
    "MetaStudySpec",
    "MigrationReport",
    "Needle",
    "NeedleCache",
    "PerFileTier",
    "RAID6_REPLICATED",
    "Segment",
    "SegmentSpec",
    "SegmentStore",
    "ShardedFilesystem",
    "ShardedNamespace",
    "TinyFileSizes",
    "TrainingReads",
    "UntarStorm",
    "WarmTier",
    "run_meta_study",
    "tradeoff_rows",
]
