"""A mounted Lustre file system: one namespace + one MDS + a set of OSTs.

Spider II exposes two such file systems ("atlas1"/"atlas2"), each spanning
half the SSUs (§IV-C).  This class binds the metadata model to the OST
capacity accounting so higher-level tools (purger, LustreDU, dcp/dfind,
capacity planning) operate against one coherent object.

Object allocation (:class:`OstPool`, which the sharded file system
shares) follows Lustre's QOS allocator in spirit: weighted round-robin
preferring emptier OSTs once imbalance exceeds a threshold.  libPIO (the
paper's balanced-placement library) bypasses this default by passing an
explicit OST list.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.lustre.mds import MdsSpec, MetadataServer, OpMix
from repro.lustre.namespace import (
    FileEntry,
    Namespace,
    StripeLayout,
    _normalize,
    _parent,
)
from repro.lustre.ost import Ost
from repro.units import MiB

__all__ = ["OstPool", "LustreFilesystem"]


class OstPool:
    """The OST side of a file system: capacity, QOS allocation and the
    per-OST charge of file growth.

    Shared by :class:`LustreFilesystem` (one MDS) and
    :class:`repro.metatier.shards.ShardedFilesystem` (N MDTs); each
    subclass passes its own stripe defaults.
    """

    def __init__(
        self,
        name: str,
        osts: list[Ost],
        *,
        default_stripe_count: int,
        default_stripe_size: int,
        qos_threshold: float,
    ) -> None:
        if not osts:
            raise ValueError("a file system needs at least one OST")
        if default_stripe_count < 1:
            raise ValueError("default_stripe_count must be >= 1")
        self.name = name
        self.osts = list(osts)
        self.default_stripe_count = min(default_stripe_count, len(osts))
        self.default_stripe_size = default_stripe_size
        self.qos_threshold = qos_threshold
        self._rr = itertools.cycle(range(len(self.osts)))
        self._ost_by_index = {ost.index: ost for ost in self.osts}
        #: OST indices twice over: a round-robin pick is one slice
        self._ring = [ost.index for ost in self.osts] * 2
        #: fill fraction per position in ``osts``, kept by the OSTs
        self._fills = [0.0] * len(self.osts)
        for position, ost in enumerate(self.osts):
            ost.keep_fill(self._fills, position)
        #: one-stripe layouts by (OST, stripe size); frozen, so shared
        self._one_stripe: dict[tuple[int, int], StripeLayout] = {}

    # -- capacity -----------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(o.spec.capacity_bytes for o in self.osts)

    @property
    def used_bytes(self) -> int:
        return sum(o.used_bytes for o in self.osts)

    @property
    def fill_fraction(self) -> float:
        return self.used_bytes / self.capacity_bytes

    def ost(self, index: int) -> Ost:
        """Look up one OST by global index."""
        return self._ost_by_index[index]

    # -- allocation ------------------------------------------------------------------

    def choose_osts(self, stripe_count: int) -> tuple[int, ...]:
        """Pick OSTs for a new file: round robin while balanced, weighted
        toward free space when imbalance exceeds ``qos_threshold`` (the
        behaviour of Lustre's QOS allocator)."""
        stripe_count = min(stripe_count, len(self.osts))
        fills = self._fills
        if max(fills) - min(fills) <= self.qos_threshold:
            start = next(self._rr)
            return tuple(self._ring[start:start + stripe_count])
        # Imbalanced: prefer the emptiest OSTs.
        order = np.argsort(np.array(fills))
        return tuple(self.osts[i].index for i in order[:stripe_count])

    def layout_for(
        self,
        stripe_count: int | None = None,
        stripe_size: int | None = None,
        osts: tuple[int, ...] | None = None,
    ) -> StripeLayout:
        """Build a stripe layout, allocating OSTs when none are given."""
        if osts is None:
            osts = self.choose_osts(stripe_count or self.default_stripe_count)
        else:
            osts = tuple(osts)
            for idx in osts:
                if idx not in self._ost_by_index:
                    raise KeyError(f"OST {idx} not in file system {self.name}")
        stripe_size = stripe_size or self.default_stripe_size
        if len(osts) != 1:
            return StripeLayout(osts=osts, stripe_size=stripe_size)
        key = (osts[0], stripe_size)
        layout = self._one_stripe.get(key)
        if layout is None:
            layout = self._one_stripe[key] = StripeLayout(osts, stripe_size)
        return layout

    def _charge_growth(self, entry: FileEntry, nbytes: int) -> None:
        """Allocate on each stripe's OST the bytes ``entry`` gains when it
        grows by ``nbytes``.

        An OST holds one object per file with bytes on it: the first
        bytes a stripe gains create that object."""
        layout = entry.layout
        if layout is None:
            raise ValueError(f"{entry.path} has no layout")
        old = entry.size
        if len(layout.osts) == 1:
            if nbytes > 0:
                self._ost_by_index[layout.osts[0]].allocate(
                    nbytes, new_object=old == 0)
            return
        new_shares = layout.ost_share(old + nbytes)
        old_shares = layout.ost_share(old)
        for ost_index, total in new_shares.items():
            held = old_shares.get(ost_index, 0)
            if total > held:
                self._ost_by_index[ost_index].allocate(
                    total - held, new_object=held == 0)

    def _release(self, entry: FileEntry) -> None:
        """Give back the capacity and the objects of a removed file."""
        layout = entry.layout
        if len(layout.osts) == 1:
            if entry.size > 0:
                self._ost_by_index[layout.osts[0]].release(entry.size)
            return
        for ost_index, share in layout.ost_share(entry.size).items():
            if share > 0:
                self._ost_by_index[ost_index].release(share)


class LustreFilesystem(OstPool):
    """One namespace backed by a set of OSTs and a single MDS."""

    def __init__(
        self,
        name: str,
        osts: list[Ost],
        mds: MetadataServer | None = None,
        *,
        default_stripe_count: int = 4,
        default_stripe_size: int = MiB,
        qos_threshold: float = 0.17,
    ) -> None:
        super().__init__(name, osts, default_stripe_count=default_stripe_count,
                         default_stripe_size=default_stripe_size,
                         qos_threshold=qos_threshold)
        self.namespace = Namespace(name)
        self.mds = mds or MetadataServer(MdsSpec(), name=f"{name}-mds")
        self.mds_servers = (self.mds,)

    # -- file operations ---------------------------------------------------------------

    def create_file(
        self,
        path: str,
        now: float,
        *,
        size: int = 0,
        stripe_count: int | None = None,
        stripe_size: int | None = None,
        osts: tuple[int, ...] | None = None,
        owner: str = "user",
        project: str = "proj",
    ) -> FileEntry:
        """Create (and optionally pre-size) a file; charges MDS + OSTs."""
        return self.create_files(
            (path,), (size,), now, stripe_count=stripe_count,
            stripe_size=stripe_size, osts=osts, owner=owner,
            project=project)[0]

    def create_files(
        self,
        paths: Sequence[str],
        sizes: Sequence[int],
        now: float,
        *,
        stripe_count: int | None = None,
        stripe_size: int | None = None,
        osts: tuple[int, ...] | None = None,
        owner: str = "user",
        project: str = "proj",
    ) -> list[FileEntry]:
        """Create and pre-size a batch of files, in order.

        Each file gets what :meth:`create_file` gives it: OSTs, an entry
        and its bytes.  The MDS is charged once, for every file created;
        a file that raises leaves the ones before it created and charged.
        Consecutive files of one directory resolve it once.
        """
        if len(paths) != len(sizes):
            raise ValueError("need one size per path")
        namespace = self.namespace
        entries: list[FileEntry] = []
        directory = siblings = None
        try:
            for path, size in zip(paths, sizes):
                layout = self.layout_for(stripe_count, stripe_size, osts)
                path = _normalize(path)
                parent = _parent(path)
                if parent != directory:
                    siblings = namespace._child_set(parent)
                    directory = parent
                entry = namespace._add_file(path, siblings, layout, now, 0,
                                            owner, project)
                entries.append(entry)
                if size:
                    self._charge_growth(entry, size)
                    namespace.write(path, size, now)
        finally:
            if entries:
                self.mds.service_time(OpMix(creates=len(entries)))
        return entries

    def mkdir(self, path: str, now: float, **kwargs) -> FileEntry:
        entry = self.namespace.mkdir(path, now, parents=True, **kwargs)
        self.mds.service_time(OpMix(mkdirs=1))
        return entry

    def append(self, path: str, nbytes: int, now: float) -> FileEntry:
        """Grow a file, charging its stripes' OSTs."""
        self._charge_growth(self.namespace.get(path), nbytes)
        return self.namespace.write(path, nbytes, now)

    def read_file(self, path: str, now: float) -> FileEntry:
        entry = self.namespace.read(path, now)
        if entry.layout is not None:
            for ost_index, share in entry.layout.ost_share(entry.size).items():
                self._ost_by_index[ost_index].record_read(share)
        return entry

    def unlink(self, path: str) -> FileEntry:
        return self.unlink_files((path,))[0]

    def unlink_files(self, paths: Iterable[str]) -> list[FileEntry]:
        """Remove a batch of entries, in order, releasing file capacity.

        The MDS is charged once, for every unlink issued; an entry that
        raises leaves the ones before it removed and charged.
        """
        namespace = self.namespace
        removed: list[FileEntry] = []
        issued = 0
        try:
            for path in paths:
                entry = namespace.get(path)
                if not entry.is_dir and entry.layout is not None:
                    self._release(entry)
                issued += 1
                removed.append(namespace.unlink(path))
        finally:
            if issued:
                self.mds.service_time(OpMix(unlinks=issued))
        return removed

    # -- metadata-path conveniences -------------------------------------------------------

    def stat(self, path: str) -> FileEntry:
        entry = self.namespace.get(path)
        stripes = entry.layout.stripe_count if entry.layout else 0
        self.mds.service_time(OpMix(stats=1, mean_stripe_count=stripes))
        return entry

    def du(self, top: str = "/") -> int:
        """Client-side `du`: stats every file — the MDS-hammering pattern
        LustreDU exists to avoid (Lesson 19)."""
        total = 0
        for entry in self.namespace.files(top):
            stripes = entry.layout.stripe_count if entry.layout else 0
            self.mds.service_time(OpMix(stats=1, mean_stripe_count=stripes))
            total += entry.size
        return total

    def scan_cost(self, n_entries: int, server_scan_speedup: float) -> float:
        """Server-side sweep cost (LustreDU): one readdir-rate pass over
        ``n_entries``, charged to the single MDS.

        Part of the sweep protocol shared with
        :class:`repro.metatier.shards.ShardedFilesystem`, where the same
        scan fans out over the MDT shards and returns the makespan.
        """
        return self.mds.service_time(
            OpMix(readdir_entries=max(1, int(n_entries / server_scan_speedup))))
