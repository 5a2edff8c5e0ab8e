"""Needle-in-segment small-file aggregation (Haystack Store).

The paper's metadata lessons (§IV-C, Lesson 19) stop at "one MDS per
namespace cannot sustain the rate"; the modern answer, proven at Facebook
scale (Haystack, OSDI'10: 260 billion objects, 1M+ reads/s), is to stop
giving every tiny file its own metadata entry at all.  This module packs
tiny logical files ("needles") into large *segment files* striped over the
existing OSTs:

* one namespace entry + one MDS ``create`` per **segment** (hundreds of
  thousands of needles), not per needle;
* each needle is ``(segment, offset, length)`` in an **in-memory index**
  — a read is one index lookup plus a single OST seek, zero MDS RPCs;
* deletes are tombstones in the index; a **compaction** pass rewrites the
  live tail of a mostly-dead segment and unlinks the old segment file,
  reclaiming OST capacity without per-needle metadata traffic.

The cost asymmetry against the per-file baseline is the whole point: the
paired study in :mod:`repro.metatier.study` quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lustre.filesystem import LustreFilesystem
from repro.obs.instruments import get_telemetry
from repro.units import MiB

__all__ = [
    "Needle",
    "SegmentSpec",
    "Segment",
    "SegmentStore",
    "CompactionReport",
    "SegmentAppends",
    "NEEDLE_HEADER_BYTES",
]

#: per-needle on-disk framing: magic, key hash, flags, size, checksum —
#: the Haystack needle header/footer, rounded to a convenient sim size.
NEEDLE_HEADER_BYTES = 40


@dataclass(frozen=True)
class Needle:
    """One logical tiny file's location inside a segment."""

    key: str
    segment_index: int
    offset: int
    length: int
    #: sim time of the write that produced this needle (drives the warm
    #: tier's age-based migration, not purge eligibility)
    written_at: float

    @property
    def framed_bytes(self) -> int:
        """Bytes the needle occupies on disk including header framing."""
        return NEEDLE_HEADER_BYTES + self.length


@dataclass(frozen=True)
class SegmentSpec:
    """Static shape of the segment store.

    Haystack uses ~100 GB physical volumes; the simulated default is
    smaller so experiments at 10^6 needles still exercise multi-segment
    behaviour (sealing, compaction, migration) without gigabyte-scale
    bookkeeping.
    """

    segment_bytes: int = 256 * MiB
    stripe_count: int = 1
    stripe_size: int = 1 * MiB
    #: sealed segments whose dead fraction exceeds this are compacted
    compact_threshold: float = 0.5
    max_needle_bytes: int = 1 * MiB

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if self.stripe_count < 1:
            raise ValueError("stripe_count must be >= 1")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if not (0 < self.compact_threshold <= 1):
            raise ValueError("compact_threshold must be in (0, 1]")
        if not (0 < self.max_needle_bytes <= self.segment_bytes):
            raise ValueError(
                "max_needle_bytes must be in (0, segment_bytes]")


@dataclass
class Segment:
    """One segment file: an append-only log of needles on the hot tier."""

    index: int
    path: str
    capacity: int
    write_offset: int = 0
    live_bytes: int = 0
    dead_bytes: int = 0
    n_live: int = 0
    n_dead: int = 0
    sealed: bool = False
    #: newest needle write time — the age clock for warm migration
    last_write_at: float = 0.0
    #: migrated to the warm tier (read-only, no longer on hot OSTs)
    migrated: bool = False
    #: emptied by compaction: its live tail was rewritten elsewhere and
    #: its segment file unlinked
    retired: bool = False

    @property
    def dead_fraction(self) -> float:
        """Fraction of written bytes now tombstoned."""
        written = self.live_bytes + self.dead_bytes
        return self.dead_bytes / written if written else 0.0

    def fits(self, framed_bytes: int) -> bool:
        """Whether a needle of ``framed_bytes`` still fits."""
        return self.write_offset + framed_bytes <= self.capacity


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one compaction pass."""

    ran_at: float
    segments_compacted: int
    needles_rewritten: int
    bytes_rewritten: int
    bytes_reclaimed: int


class SegmentAppends:
    """Needle bytes written into segments but not yet appended to their
    segment files.

    A batch of needle writes collects its framed bytes here, and
    :meth:`flush` charges each segment's run with one ``fs.append``.  A
    store flushes before it creates a segment file, so OST choice sees
    the fills that one append per needle would leave.  An OST that runs
    out of space raises at the flush, after the run's needles are
    indexed, where one append per needle would raise at the needle.
    """

    def __init__(self) -> None:
        #: (file system id, segment path) → [file system, path, bytes]
        self._runs: dict[tuple[int, str], list] = {}

    def add(self, fs: LustreFilesystem, path: str, nbytes: int) -> None:
        """Owe ``nbytes`` more to the segment file at ``path``."""
        run = self._runs.get((id(fs), path))
        if run is None:
            self._runs[(id(fs), path)] = [fs, path, nbytes]
        else:
            run[2] += nbytes

    def flush(self, now: float) -> None:
        """Append every owed run to its segment file."""
        runs, self._runs = self._runs, {}
        for fs, path, nbytes in runs.values():
            fs.append(path, nbytes, now)


@dataclass
class _StoreCounters:
    """Plain-int op accounting (always on, unlike telemetry)."""

    writes: int = 0
    reads: int = 0
    deletes: int = 0
    segment_creates: int = 0
    compactions: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class SegmentStore:
    """The Haystack Store: segments on one backing file system.

    Segment files live under ``/.segments/<store>/`` in the backing
    namespace and are striped over the backing OSTs via the ordinary
    layout machinery, so OST fill levels (and the §VI-C fill penalty)
    see aggregated data exactly as they would see per-file data.
    """

    def __init__(
        self,
        fs: LustreFilesystem,
        *,
        name: str = "store0",
        spec: SegmentSpec | None = None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.spec = spec or SegmentSpec()
        self.root = f"/.segments/{name}"
        self.segments: list[Segment] = []
        self.index: dict[str, Needle] = {}
        self.counters = _StoreCounters()
        self._open: Segment | None = None
        # (registry, writes, bytes, reads, deletes) — cached instruments,
        # revalidated on registry swap (the pattern Telemetry.counter's
        # contract invites: the same instance comes back every call).
        self._instruments = None

    def _tel_counters(self, telemetry):
        cached = self._instruments
        if cached is None or cached[0] is not telemetry:
            cached = self._instruments = (
                telemetry,
                telemetry.counter("metatier.needle_writes", self.name),
                telemetry.counter("metatier.needle_bytes", self.name),
                telemetry.counter("metatier.needle_reads", self.name),
                telemetry.counter("metatier.needle_deletes", self.name),
            )
        return cached

    # -- segment lifecycle -------------------------------------------------

    def _new_segment(self, now: float) -> Segment:
        index = len(self.segments)
        path = f"{self.root}/seg{index:06d}"
        if index == 0:
            self.fs.mkdir(self.root, now)
        self.fs.create_file(
            path, now,
            stripe_count=self.spec.stripe_count,
            stripe_size=self.spec.stripe_size,
            owner="metatier", project="system",
        )
        segment = Segment(index=index, path=path,
                          capacity=self.spec.segment_bytes,
                          last_write_at=now)
        self.segments.append(segment)
        self.counters.segment_creates += 1
        return segment

    def _writable(self, framed_bytes: int, now: float,
                  appends: SegmentAppends) -> Segment:
        segment = self._open
        if segment is None or not segment.fits(framed_bytes):
            if segment is not None:
                segment.sealed = True
            appends.flush(now)
            segment = self._new_segment(now)
            self._open = segment
        return segment

    # -- data path ---------------------------------------------------------

    def write(self, key: str, length: int, now: float, *,
              appends: SegmentAppends | None = None) -> Needle:
        """Append one needle; returns its index record.

        Costs: an in-memory index insert, an OST append of the framed
        bytes (amortized one MDS ``create`` per segment), **zero**
        per-needle MDS operations — the Haystack bargain.  A batch passes
        its ``appends`` and flushes them once at its end; without one,
        the bytes are appended at once.
        """
        if appends is not None:
            return self._put(key, length, now, now, appends)
        appends = SegmentAppends()
        try:
            return self._put(key, length, now, now, appends)
        finally:
            appends.flush(now)

    def _put(self, key: str, length: int, now: float, written_at: float,
             appends: SegmentAppends) -> Needle:
        """Write one needle stamped ``written_at``, owing its bytes to
        ``appends``."""
        if length <= 0:
            raise ValueError("needle length must be positive")
        if length > self.spec.max_needle_bytes:
            raise ValueError(
                f"needle of {length} bytes exceeds max_needle_bytes "
                f"{self.spec.max_needle_bytes}; large files belong on the "
                f"per-file path")
        if key in self.index:
            raise KeyError(f"needle exists: {key}")
        framed = NEEDLE_HEADER_BYTES + length
        segment = self._writable(framed, now, appends)
        needle = Needle(key=key, segment_index=segment.index,
                        offset=segment.write_offset, length=length,
                        written_at=written_at)
        appends.add(self.fs, segment.path, framed)
        segment.write_offset += framed
        segment.live_bytes += framed
        segment.n_live += 1
        segment.last_write_at = now
        self.index[key] = needle
        self.counters.writes += 1
        self.counters.bytes_written += framed
        telemetry = get_telemetry()
        if telemetry.enabled:
            cached = self._tel_counters(telemetry)
            cached[1].add(1.0)
            cached[2].add(float(framed))
        return needle

    def read(self, key: str, now: float) -> Needle:
        """One needle read: index lookup + a single OST seek.

        Charges the one OST holding the needle's offset (the "single
        random seek per photo" property); never touches the MDS.
        """
        needle = self.index.get(key)
        if needle is None:
            raise KeyError(f"no such needle: {key}")
        segment = self.segments[needle.segment_index]
        if not (segment.migrated or segment.retired):
            entry = self.fs.namespace.get(segment.path)
            layout = entry.layout
            assert layout is not None
            ost_index = layout.osts[
                (needle.offset // layout.stripe_size) % layout.stripe_count]
            self.fs.ost(ost_index).record_read(needle.framed_bytes)
        self.counters.reads += 1
        self.counters.bytes_read += needle.framed_bytes
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._tel_counters(telemetry)[3].add(1.0)
        return needle

    def delete(self, key: str, now: float) -> Needle:
        """Tombstone one needle (no MDS traffic; space reclaimed by
        compaction)."""
        needle = self.index.pop(key, None)
        if needle is None:
            raise KeyError(f"no such needle: {key}")
        segment = self.segments[needle.segment_index]
        segment.live_bytes -= needle.framed_bytes
        segment.dead_bytes += needle.framed_bytes
        segment.n_live -= 1
        segment.n_dead += 1
        self.counters.deletes += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._tel_counters(telemetry)[4].add(1.0)
        return needle

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def __len__(self) -> int:
        """Number of live needles."""
        return len(self.index)

    @property
    def live_bytes(self) -> int:
        """Framed bytes of all live needles."""
        return sum(s.live_bytes for s in self.segments)

    # -- compaction --------------------------------------------------------

    def compactable(self) -> list[Segment]:
        """Sealed, unmigrated segments past the dead-fraction threshold."""
        return [s for s in self.segments
                if s.sealed and not (s.migrated or s.retired)
                and s.dead_fraction >= self.spec.compact_threshold]

    def compact(self, now: float) -> CompactionReport:
        """Rewrite the live tail of every compactable segment.

        Live needles move to the open segment (OST appends); the old
        segment file is unlinked — one MDS ``unlink`` per *segment*,
        where the per-file baseline pays one per *file*.
        """
        victims = self.compactable()
        rewritten = 0
        bytes_rewritten = 0
        bytes_reclaimed = 0
        # One scan of the index buckets the live needles of every victim.
        # Rewrites land in the open segment or a new one, never in a
        # (sealed) victim, so the buckets stay exact through the pass.
        buckets: dict[int, list[Needle]] = {s.index: [] for s in victims}
        if victims:
            for needle in self.index.values():
                bucket = buckets.get(needle.segment_index)
                if bucket is not None:
                    bucket.append(needle)
        appends = SegmentAppends()
        try:
            for segment in victims:
                # Live needles of this segment, in offset order
                # (deterministic regardless of index insertion history).
                movers = sorted(buckets.pop(segment.index),
                                key=lambda n: n.offset)
                for needle in movers:
                    del self.index[needle.key]
                    # Keep the original write time: compaction is a
                    # physical move, not a logical touch, and the warm
                    # tier's age clock must not reset.
                    self._put(needle.key, needle.length, now,
                              needle.written_at, appends)
                    rewritten += 1
                    bytes_rewritten += needle.framed_bytes
                bytes_reclaimed += segment.write_offset
                self.fs.unlink(segment.path)
                segment.live_bytes = 0
                segment.dead_bytes = 0
                segment.n_live = 0
                segment.n_dead = 0
                segment.retired = True  # no longer on hot OSTs
        finally:
            appends.flush(now)
        if victims:
            self.counters.compactions += 1
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter(
                    "metatier.compactions", self.name).add(float(len(victims)))
        return CompactionReport(
            ran_at=now,
            segments_compacted=len(victims),
            needles_rewritten=rewritten,
            bytes_rewritten=bytes_rewritten,
            bytes_reclaimed=bytes_reclaimed,
        )
