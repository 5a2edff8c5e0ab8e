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
attributable to the tier, not the workload.

:class:`MetaFaultPlan` injects the two metadata-relevant fault classes
(MDS overload storms, OST fill) into either arm at scripted sim times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.mds import OpMix
from repro.metatier.directory import HaystackDirectory, NeedleCache
from repro.metatier.needles import SegmentStore
from repro.metatier.shards import ShardedFilesystem
from repro.metatier.warmtier import AgeMigrationPolicy, WarmTier
from repro.obs.trace import get_tracer
from repro.sim.engine import Engine, ProcessGenerator
from repro.sim.rng import RngStreams
from repro.units import DAY, HOUR, KiB

__all__ = [
    "PerFileTier",
    "AggregatedTier",
    "TinyFileSizes",
    "UntarStorm",
    "TrainingReads",
    "AuditSweep",
    "AuditReport",
    "MetaFault",
    "MetaFaultPlan",
    "default_fault_plan",
]


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

    def draw(self) -> int:
        """One file size in bytes, clipped to [floor, ceiling]."""
        raw = int(self._rng.lognormal(self._mu, self._sigma))
        return max(self._floor, min(self._ceiling, raw))


class _Tier:
    """What both tiers share: the logical counters, the directory and
    overload verbs, and the metadata accounting over ``fs.mds_servers``
    (one MDS on the baseline, one per shard on the aggregated tier)."""

    def __init__(self, fs: LustreFilesystem | ShardedFilesystem) -> None:
        self.fs = fs
        self.logical_creates = 0
        self.logical_reads = 0
        self.logical_deletes = 0
        self.audit_examined = 0

    def mkdir(self, path: str, now: float) -> None:
        """Create one directory."""
        self.fs.mkdir(path, now)

    def overload(self, shard: int, magnitude: float) -> None:
        """An MDS-overload impulse (a recursive ``du`` storm) against one
        metadata server."""
        servers = self.fs.mds_servers
        servers[shard % len(servers)].service_time(
            OpMix(stats=int(50_000 * magnitude), mean_stripe_count=4.0))

    @property
    def osts(self) -> list:
        """The backing OST pool (fault-plan target surface)."""
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
    exists to remove.
    """

    name = "per-file"

    def create(self, path: str, size: int, now: float) -> None:
        """Create one tiny file (single-OST stripe, §VII best practice)."""
        self.fs.create_file(path, now, size=size, stripe_count=1)
        self.logical_creates += 1

    def read(self, path: str, now: float) -> None:
        """Read one file: the open-path getattr + the data."""
        self.fs.stat(path)
        self.fs.read_file(path, now)
        self.logical_reads += 1

    def delete(self, path: str, now: float) -> None:
        """Unlink one file."""
        self.fs.unlink(path)
        self.logical_deletes += 1

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
        store = self.directory.store_for_write()
        needle = store.write(path, size, now)
        self.directory.record(path, store, needle)
        self.logical_creates += 1

    def read(self, path: str, now: float) -> None:
        """Read one needle: cache hit skips the store entirely; a miss is
        one index lookup + one OST seek.  Zero MDS ops either way."""
        entry = self.directory.locate(path)
        if not self.cache.lookup():
            self.directory.store(entry.store).read(path, now)
        self.logical_reads += 1

    def delete(self, path: str, now: float) -> None:
        """Tombstone one needle (space comes back at compaction)."""
        entry = self.directory.forget(path)
        self.directory.store(entry.store).delete(path, now)
        self.logical_deletes += 1

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
        """Extract one batch of files at sim time ``now``; returns the
        highest directory index created so far."""
        temps = []
        for i in range(start, start + count):
            d = i // self.files_per_dir
            if d > made_dirs:
                tier.mkdir(f"{self.root}/d{d:05d}", now)
                made_dirs = d
            path = f"{self.root}/d{d:05d}/f{i:08d}"
            tier.create(path, sizes.draw(), now)
            # every 1/temp_fraction-th file is a build temporary
            if (self.temp_fraction
                    and i % max(1, round(1 / self.temp_fraction)) == 0):
                temps.append(path)
            else:
                self.manifest.append((path, now))
        for path in temps:
            tier.delete(path, now)
        return made_dirs


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
                for j in order[lo:lo + self.batch]:
                    tier.read(self.manifest[int(j)][0], engine.now)
                    n_reads += 1
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
        survivors = []
        purged = 0
        for path, written_at in self.manifest:
            if now - written_at > self.max_age:
                tier.delete(path, now)
                purged += 1
            else:
                survivors.append((path, written_at))
        self.manifest[:] = survivors
        self.reports.append(
            AuditReport(swept_at=now, examined=examined, purged=purged))
        tier.housekeep(now)


@dataclass(frozen=True)
class MetaFault:
    """One scripted fault: ``kind`` is ``mds-overload`` or ``ost-fill``."""

    time: float
    kind: str
    target: int = 0
    magnitude: float = 1.0
    repair_after: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("mds-overload", "ost-fill"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")


@dataclass
class MetaFaultPlan:
    """Scripted metadata-path faults, replayed identically on both arms."""

    faults: list[MetaFault] = field(default_factory=list)

    def install(self, engine: Engine, tier) -> None:
        """Schedule every fault (and its repair) on ``engine``."""
        for fault in self.faults:
            engine.call_at(fault.time, self._apply(engine, tier, fault))

    def _apply(self, engine: Engine, tier, fault: MetaFault):
        def _fire() -> None:
            if fault.kind == "mds-overload":
                tier.overload(fault.target, fault.magnitude)
                return
            ost = tier.osts[fault.target % len(tier.osts)]
            target_bytes = int(min(1.0, fault.magnitude)
                               * ost.spec.capacity_bytes)
            nbytes = max(0, target_bytes - ost.used_bytes)
            if nbytes:
                ost.allocate(nbytes)
            if fault.repair_after is not None and nbytes:
                engine.call_after(fault.repair_after,
                                  lambda: ost.release(nbytes))
        return _fire


def default_fault_plan() -> MetaFaultPlan:
    """The study's standing plan: one MDS storm, one OST fill + drain."""
    return MetaFaultPlan(faults=[
        MetaFault(time=10_000.0, kind="mds-overload", target=0,
                  magnitude=1.0),
        MetaFault(time=20_000.0, kind="ost-fill", target=0, magnitude=0.9,
                  repair_after=20_000.0),
    ])
