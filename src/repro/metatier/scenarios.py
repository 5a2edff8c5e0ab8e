"""Metadata-heavy workload generators over a pluggable metadata tier.

The three workload classes that actually hurt a single MDS (§IV-C,
Lesson 19), each expressed as a DES process so both arms of the paired
study replay the *same* timeline:

* :class:`UntarStorm` — a user untars a source tree onto scratch: a
  burst of ``mkdir`` + tiny-file ``create`` with a fraction of build-temp
  files deleted right behind the extraction;
* :class:`TrainingReads` — an AI training job re-reads its dataset
  shards every epoch in a seeded-shuffled order;
* :class:`AuditSweep` — the periodic purge/audit walk over every logical
  inode (the 10^9-inode regime the paper's purge engine lives in),
  deleting entries past the age policy.

The workloads talk to a *tier* — :class:`PerFileTier` (every tiny file a
real namespace entry on one MDS: the baseline) or :class:`AggregatedTier`
(needles in segments + sharded residual namespace + warm migration) —
through the same verbs, so every difference in MDS busy time is
attributable to the tier, not the workload.  The workloads call each
tier's batch verbs (``create_many``, ``read_many``, ``delete_many``) once
per batch or sweep; the per-op verbs are one-element batches, and a batch
leaves the state of one per-op call per element.

:func:`default_fault_plan` builds the study's two metadata-relevant
faults (an MDS overload storm, an OST fill) as an ordinary
:class:`~repro.faults.plan.FaultPlan`; the study runs it on either arm
through the shared :class:`~repro.faults.executor.FaultExecutor`, with
the tier as the injectors' target surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.mds import OpMix
from repro.metatier.directory import HaystackDirectory, NeedleCache
from repro.metatier.needles import SegmentAppends, SegmentStore
from repro.metatier.shards import ShardedFilesystem
from repro.metatier.warmtier import AgeMigrationPolicy, WarmTier
from repro.obs.trace import get_tracer
from repro.sim.engine import Engine, ProcessGenerator
from repro.sim.rng import RngStreams
from repro.units import DAY, HOUR, KiB

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

__all__ = [
    "PerFileTier",
    "AggregatedTier",
    "TinyFileSizes",
    "UntarStorm",
    "TrainingReads",
    "AuditSweep",
    "AuditReport",
    "default_fault_plan",
]


#: sizes drawn per vectorized ``lognormal`` call
_SIZE_BLOCK = 1_024


class TinyFileSizes:
    """Seeded lognormal tiny-file sizes (source files, thumbnails, logs).

    The draw comes from the named substream ``metatier.sizes`` so both
    study arms, built from the same seed, see byte-identical files.
    """

    def __init__(self, mean_bytes: int = 32 * KiB, *, sigma: float = 1.0,
                 floor: int = 256, ceiling: int = 512 * KiB,
                 seed: int = 0) -> None:
        if not (0 < floor <= mean_bytes <= ceiling):
            raise ValueError("need 0 < floor <= mean_bytes <= ceiling")
        self._rng = RngStreams(seed).get("metatier.sizes")
        self._mu = math.log(mean_bytes)
        self._sigma = sigma
        self._floor = floor
        self._ceiling = ceiling
        #: drawn sizes not yet served, next one last
        self._block: list[int] = []

    def draw(self) -> int:
        """One file size in bytes, clipped to [floor, ceiling].

        Sizes come from blocks of vectorized draws: the Generator yields
        the same stream as one scalar ``lognormal`` call per size."""
        if not self._block:
            raw = self._rng.lognormal(self._mu, self._sigma, _SIZE_BLOCK)
            sizes = np.clip(raw, self._floor, self._ceiling).astype(np.int64)
            self._block = sizes[::-1].tolist()
        return self._block.pop()


class _Tier:
    """What both tiers share: the logical counters, the directory verb,
    the fault injectors' target surface, and the metadata accounting over
    ``fs.mds_servers`` (one MDS on the baseline, one per shard on the
    aggregated tier)."""

    def __init__(self, fs: LustreFilesystem | ShardedFilesystem) -> None:
        self.fs = fs
        self.logical_creates = 0
        self.logical_reads = 0
        self.logical_deletes = 0
        self.audit_examined = 0

    def mkdir(self, path: str, now: float) -> None:
        """Create one directory."""
        self.fs.mkdir(path, now)

    @property
    def filesystems(self) -> dict:
        """``{fs.name: fs}``: the MDS-overload target surface."""
        return {self.fs.name: self.fs}

    @property
    def osts(self) -> list:
        """The backing OST pool: the OST-fill target surface."""
        return self.fs.osts

    @property
    def fill_fraction(self) -> float:
        """Backing-pool fill level (hot tier)."""
        return self.fs.fill_fraction

    def metadata_busy_makespan(self) -> float:
        """Busiest server's MDS busy time — servers work in parallel."""
        return max(server.busy_seconds for server in self.fs.mds_servers)

    def metadata_busy_total(self) -> float:
        """Total MDS-seconds summed over every metadata server."""
        return sum(server.busy_seconds for server in self.fs.mds_servers)

    def metadata_ops(self) -> int:
        """Physical metadata operations served across the servers."""
        return sum(server.ops_served for server in self.fs.mds_servers)


class PerFileTier(_Tier):
    """The baseline: every tiny file is a real file on one MDS.

    ``create`` pays an MDS create, ``read`` pays the open-path getattr
    plus the OST reads, ``delete`` pays an unlink, and the audit walk
    stats every file — precisely the §IV-C traffic the aggregated tier
    exists to remove.  Each batch verb charges its ops to the MDS as one
    demand; the per-op verbs are one-element batches.
    """

    name = "per-file"

    def create(self, path: str, size: int, now: float) -> None:
        """Create one tiny file (single-OST stripe, §VII best practice)."""
        self.create_many((path,), (size,), now)

    def create_many(self, paths: Sequence[str], sizes: Sequence[int],
                    now: float) -> None:
        """Create a batch of tiny files, in order."""
        namespace = self.fs.namespace
        before = len(namespace)
        try:
            self.fs.create_files(paths, sizes, now, stripe_count=1)
        finally:
            self.logical_creates += len(namespace) - before

    def read(self, path: str, now: float) -> None:
        """Read one file: the open-path getattr + the data."""
        self.read_many((path,), now)

    def read_many(self, paths: Sequence[str], now: float) -> None:
        """Read a batch of files, in order: their open-path getattrs at
        the batch's mean stripe count, and their data."""
        fs = self.fs
        n = stripes = 0
        try:
            for path in paths:
                entry = fs.read_file(path, now)
                n += 1
                stripes += entry.layout.stripe_count if entry.layout else 0
        finally:
            if n:
                fs.mds.service_time(
                    OpMix(stats=n, mean_stripe_count=stripes / n))
                self.logical_reads += n

    def delete(self, path: str, now: float) -> None:
        """Unlink one file."""
        self.delete_many((path,), now)

    def delete_many(self, paths: Iterable[str], now: float) -> None:
        """Unlink a batch of files, in order."""
        namespace = self.fs.namespace
        before = len(namespace)
        try:
            self.fs.unlink_files(paths)
        finally:
            self.logical_deletes += before - len(namespace)

    def audit(self, n_entries: int, now: float) -> None:
        """Examine ``n_entries`` inodes: one stat each on the single MDS
        (batched into one service demand; the cost is identical)."""
        self.fs.mds.service_time(OpMix(stats=n_entries, mean_stripe_count=1))
        self.audit_examined += n_entries

    def housekeep(self, now: float) -> None:
        """Per-tick background work: none on the baseline."""


class AggregatedTier(_Tier):
    """Needles + sharded residual namespace + warm migration.

    Tiny files become needles in segment files (zero per-file MDS ops);
    the residual metadata — directory skeleton, segment files, audits —
    lands on a DNE-sharded namespace; sealed-and-cold segments migrate to
    the f4-style warm tier on a sim-time age policy.
    """

    name = "aggregated"

    def __init__(
        self,
        fs: ShardedFilesystem,
        stores: list[SegmentStore],
        *,
        cache_hit_rate: float = 0.8,
        migrate_age: float | None = None,
        warm: WarmTier | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(fs)
        self.directory = HaystackDirectory(stores, seed=seed)
        self.cache = NeedleCache(cache_hit_rate, seed=seed)
        self.warm = warm or WarmTier()
        self.migration = (AgeMigrationPolicy(migrate_age)
                          if migrate_age is not None else None)

    def create(self, path: str, size: int, now: float) -> None:
        """Write one needle; the path becomes a logical ID, not an inode."""
        self.create_many((path,), (size,), now)

    def create_many(self, paths: Sequence[str], sizes: Sequence[int],
                    now: float) -> None:
        """Write a batch of needles, in order.

        The store picks come as one draw, and each segment file gets one
        append per run of the batch's needles (stores flush the runs
        before they create a segment file).  A logical ID that exists
        raises; the needles before it stay written.
        """
        if len(paths) != len(sizes):
            raise ValueError("need one size per path")
        directory = self.directory
        picks = directory.stores_for_write(len(paths))
        appends = SegmentAppends()
        written = 0
        try:
            for path, size in zip(paths, sizes):
                if path in directory:
                    raise KeyError(f"logical ID exists: {path}")
                store = next(picks)
                directory.record(
                    path, store, store.write(path, size, now, appends=appends))
                written += 1
        finally:
            appends.flush(now)
            self.logical_creates += written

    def read(self, path: str, now: float) -> None:
        """Read one needle: cache hit skips the store entirely; a miss is
        one index lookup + one OST seek.  Zero MDS ops either way."""
        self.read_many((path,), now)

    def read_many(self, paths: Sequence[str], now: float) -> None:
        """Read a batch of needles, in order; the cache outcomes come as
        one draw."""
        directory = self.directory
        hits = self.cache.lookups(len(paths))
        n = 0
        try:
            for path in paths:
                entry = directory.locate(path)
                if not next(hits):
                    directory.store(entry.store).read(path, now)
                n += 1
        finally:
            self.logical_reads += n

    def delete(self, path: str, now: float) -> None:
        """Tombstone one needle (space comes back at compaction)."""
        self.delete_many((path,), now)

    def delete_many(self, paths: Iterable[str], now: float) -> None:
        """Tombstone a batch of needles, in order."""
        directory = self.directory
        n = 0
        try:
            for path in paths:
                entry = directory.forget(path)
                directory.store(entry.store).delete(path, now)
                n += 1
        finally:
            self.logical_deletes += n

    def audit(self, n_entries: int, now: float) -> None:
        """Examine ``n_entries`` logical inodes: an in-memory index scan,
        plus one skeleton readdir per shard (the only MDS traffic)."""
        n_dirs = self.fs.namespace.n_dirs
        for server in self.fs.mds_servers:
            server.service_time(OpMix(readdir_entries=n_dirs))
        self.audit_examined += n_entries

    def housekeep(self, now: float) -> None:
        """Per-tick background work: compaction, then warm migration."""
        for store in self.directory.stores:
            store.compact(now)
        if self.migration is not None:
            for store in self.directory.stores:
                self.migration.sweep(store, self.warm, now)


@dataclass
class UntarStorm:
    """A tar extraction onto scratch: dirs + a burst of tiny creates.

    ``temp_fraction`` of the files are build temporaries deleted at the
    end of each batch — the churn that gives segment compaction something
    to reclaim.  Files land ``files_per_dir`` to a directory under
    ``root``; the manifest of surviving ``(path, written_at)`` pairs
    accumulates in :attr:`manifest` for downstream workloads.
    """

    root: str = "/scratch/untar"
    n_files: int = 10_000
    files_per_dir: int = 1_000
    temp_fraction: float = 0.25
    batch: int = 1_000
    duration: float = 1 * HOUR
    sizes: TinyFileSizes | None = None
    manifest: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_files <= 0 or self.files_per_dir <= 0 or self.batch <= 0:
            raise ValueError("n_files, files_per_dir, batch must be positive")
        if not (0.0 <= self.temp_fraction < 1.0):
            raise ValueError("temp_fraction must be in [0, 1)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def install(self, engine: Engine, tier) -> None:
        """Schedule the storm on ``engine`` against ``tier``."""
        engine.process(self._run(engine, tier), name="untar-storm")

    def _run(self, engine: Engine, tier) -> ProcessGenerator:
        sizes = self.sizes or TinyFileSizes()
        span = get_tracer().open("meta:untar", "metatier",
                                 root=self.root, files=self.n_files)
        n_batches = max(1, (self.n_files + self.batch - 1) // self.batch)
        dt = self.duration / n_batches
        made_dirs = -1
        written = 0
        while written < self.n_files:
            count = min(self.batch, self.n_files - written)
            made_dirs = self._extract_batch(tier, sizes, written, count,
                                            made_dirs, engine.now)
            written += count
            yield dt
        get_tracer().end(span, files=written)

    def _extract_batch(self, tier, sizes: TinyFileSizes, start: int,
                       count: int, made_dirs: int, now: float) -> int:
        """Extract one batch of files at sim time ``now``: the batch's new
        directories, then its creates, then its build temporaries'
        deletes.  Returns the highest directory index created so far."""
        per_dir = self.files_per_dir
        last_dir = (start + count - 1) // per_dir
        for d in range(made_dirs + 1, last_dir + 1):
            tier.mkdir(f"{self.root}/d{d:05d}", now)
        paths = [f"{self.root}/d{i // per_dir:05d}/f{i:08d}"
                 for i in range(start, start + count)]
        tier.create_many(paths, [sizes.draw() for _ in paths], now)
        # every 1/temp_fraction-th file is a build temporary
        every = (max(1, round(1 / self.temp_fraction))
                 if self.temp_fraction else 0)
        temps = []
        for i, path in enumerate(paths, start):
            if every and i % every == 0:
                temps.append(path)
            else:
                self.manifest.append((path, now))
        tier.delete_many(temps, now)
        return max(made_dirs, last_dir)


@dataclass
class TrainingReads:
    """An AI training job: every epoch re-reads a sample of the shards.

    The per-epoch read order is a seeded permutation (substream
    ``metatier.reads``) of the storm's manifest — the random-access
    pattern that makes small-file read latency the step-time floor.
    """

    manifest: list[tuple[str, float]]
    n_epochs: int = 2
    sample_fraction: float = 0.2
    batch: int = 1_000
    epoch_duration: float = 1 * HOUR
    start: float = 2 * HOUR
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")

    def install(self, engine: Engine, tier) -> None:
        """Schedule the training epochs on ``engine`` against ``tier``."""
        engine.process(self._run(engine, tier), name="training-reads")

    def _run(self, engine: Engine, tier) -> ProcessGenerator:
        rng = RngStreams(self.seed).get("metatier.reads")
        if self.start > engine.now:
            yield self.start - engine.now
        span = get_tracer().open("meta:training", "metatier",
                                 epochs=self.n_epochs)
        n_reads = 0
        for _epoch in range(self.n_epochs):
            n = len(self.manifest)
            take = max(1, int(n * self.sample_fraction)) if n else 0
            order = rng.permutation(n)[:take]
            n_batches = max(1, (take + self.batch - 1) // self.batch)
            dt = self.epoch_duration / n_batches
            for lo in range(0, take, self.batch):
                chunk = order[lo:lo + self.batch].tolist()
                tier.read_many([self.manifest[j][0] for j in chunk],
                               engine.now)
                n_reads += len(chunk)
                yield dt
        get_tracer().end(span, reads=n_reads)


@dataclass(frozen=True)
class AuditReport:
    """One purge/audit pass over the logical namespace."""

    swept_at: float
    examined: int
    purged: int


@dataclass
class AuditSweep:
    """The periodic purge/audit walk (the 10^9-inode sweep, scaled down).

    Every ``interval`` sim seconds the sweep examines every manifest
    entry (charging the tier's audit cost) and deletes entries whose
    write time is older than ``max_age`` — the center-wide purge policy
    of §IV-C, applied to the tiny-file tier.
    """

    manifest: list[tuple[str, float]]
    max_age: float = 1 * DAY
    interval: float = 6 * HOUR
    reports: list[AuditReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_age <= 0 or self.interval <= 0:
            raise ValueError("max_age and interval must be positive")

    def install(self, engine: Engine, tier) -> None:
        """Schedule the periodic sweep on ``engine`` against ``tier``."""
        engine.every(self.interval, lambda: self._sweep(engine, tier),
                     name="audit-sweep")

    def _sweep(self, engine: Engine, tier) -> None:
        now = engine.now
        examined = len(self.manifest)
        tier.audit(examined, now)
        max_age = self.max_age
        expired = [path for path, written_at in self.manifest
                   if now - written_at > max_age]
        tier.delete_many(expired, now)
        if expired:
            self.manifest[:] = [entry for entry in self.manifest
                                if not now - entry[1] > max_age]
        self.reports.append(
            AuditReport(swept_at=now, examined=examined,
                        purged=len(expired)))
        tier.housekeep(now)


def default_fault_plan(
        fs: LustreFilesystem | ShardedFilesystem) -> FaultPlan:
    """The study's standing plan: an MDS storm on ``fs``'s first metadata
    server, then OST 0 filled to 90% and drained 20,000 s later."""
    # Imported lazily: repro.faults pulls in the whole system model.
    from repro.faults import FaultClass, FaultPlan, PlannedFault

    return FaultPlan([
        PlannedFault(10_000.0, FaultClass.MDS_OVERLOAD, fs.name,
                     magnitude=0.25),
        PlannedFault(20_000.0, FaultClass.OST_FILL, 0, duration=20_000.0,
                     magnitude=0.9),
    ])
