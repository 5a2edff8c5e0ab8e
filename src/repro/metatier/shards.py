"""DNE-style namespace sharding: one namespace, N metadata servers.

§IV-C's answer to the single-MDS ceiling was to split Spider into
*separate namespaces* (atlas1/atlas2) and recommend DNE "in addition to"
that split.  This module builds the DNE answer against the simulated
namespace: a :class:`ShardedNamespace` hash-partitions directories across
``n_shards`` MDTs (subtree partitioning — every file lands on the shard
that owns its parent directory, so ``listdir`` stays a single-shard
operation), while the directory *skeleton* is replicated structurally so
any shard can resolve parents locally (the DNE master-object idiom).

Cross-shard operations pay their real cost: a cross-MDT rename is the
link + unlink + create distributed transaction Lustre actually performs,
charged to both shards; a cross-MDT hard link charges the inode's home
shard and the dentry's shard.

Determinism guarantee: shard assignment is ``crc32`` of the parent
directory (stable across runs and machines), and every listing or sweep
is sorted — so results are independent of ingest order.  The test suite
pins this ("ingest-order independence").  Every path is normalized once
where it enters :class:`ShardedNamespace`, so ``/d//f`` and ``/d/./f``
route to the shard that owns ``/d``, as ``/d/f`` does.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

from repro.lustre.filesystem import OstPool
from repro.lustre.mds import MdsSpec, MetadataServer, OpMix
from repro.lustre.namespace import (
    FileEntry,
    Namespace,
    NamespaceError,
    StripeLayout,
    _normalize,
    _parent,
)
from repro.lustre.ost import Ost
from repro.units import MiB

__all__ = ["ShardedNamespace", "ShardedFilesystem"]


def _dir_shard(directory: str, n_shards: int) -> int:
    """Shard owning the entries of a normalized ``directory``.

    Subtree partitioning — siblings colocate, so ``listdir`` and the
    common create/stat/unlink patterns of a directory-local workload
    stay on one MDT.  crc32 (not ``hash``) keeps the mapping stable
    across processes and Python hash seeds.
    """
    return zlib.crc32(directory.encode("utf-8")) % n_shards


class ShardedNamespace:
    """One logical namespace spread over ``n_shards`` MDT shards."""

    def __init__(
        self,
        name: str = "atlas",
        n_shards: int = 4,
        *,
        spec: MdsSpec | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.name = name
        self.shards = [Namespace(f"{name}-shard{i}") for i in range(n_shards)]
        self.servers = [
            MetadataServer(spec, name=f"{name}-mdt{i}")
            for i in range(n_shards)
        ]
        #: links created cross-shard (remote dentry + home-inode nlink)
        self.cross_shard_links = 0
        #: renames that crossed shards (the expensive DNE transaction)
        self.cross_shard_renames = 0
        #: hard-link dentries: link path → target path
        self.link_targets: dict[str, str] = {}
        #: parent directory → owning shard; grows with the directories,
        #: as the replicated skeleton does
        self._parent_shard: dict[str, int] = {}

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, path: str) -> int:
        """Shard index owning ``path``: crc32 of its parent directory."""
        return self._owner(path)[1]

    def _owner(self, path: str) -> tuple[str, int]:
        """``path`` normalized, and the shard owning it (memoized per
        parent directory)."""
        path = _normalize(path)
        parent = _parent(path)
        shard = self._parent_shard.get(parent)
        if shard is None:
            shard = self._parent_shard[parent] = _dir_shard(
                parent, self.n_shards)
        return path, shard

    # -- structural operations --------------------------------------------

    def mkdir(self, path: str, now: float = 0.0, **kwargs) -> FileEntry:
        """Create a directory: the skeleton replicates to every shard;
        the op cost lands on the owning shard only."""
        kwargs.setdefault("parents", True)
        path, owner = self._owner(path)
        entries = [ns.mkdir(path, now, **kwargs) for ns in self.shards]
        self.servers[owner].service_time(OpMix(mkdirs=1))
        return entries[owner]

    def create(self, path: str, layout: StripeLayout, now: float = 0.0,
               **kwargs) -> FileEntry:
        """Create a file on its owning shard (one MDS create there)."""
        path, shard = self._owner(path)
        entry = self.shards[shard].create(path, layout, now, **kwargs)
        self.servers[shard].service_time(OpMix(creates=1))
        return entry

    def unlink(self, path: str) -> FileEntry:
        """Remove an entry: files from their shard, directories from all.

        A directory's files live on one shard, so emptiness is checked on
        every shard before any shard's skeleton changes.
        """
        path, shard = self._owner(path)
        entry = self.shards[shard].get(path)
        if entry.is_dir:
            if any(ns.listdir(path) for ns in self.shards):
                raise NamespaceError(f"directory not empty: {path}")
            for ns in self.shards:
                ns.unlink(path)
        else:
            self.shards[shard].unlink(path)
            self.link_targets.pop(path, None)
        self.servers[shard].service_time(OpMix(unlinks=1))
        return entry

    def rename(self, old: str, new: str, now: float) -> FileEntry:
        """Rename a file; cross-shard pays the DNE transaction.

        Same shard: a two-dentry rename on one MDT.  Cross shard: the
        link + unlink + create sequence Lustre's DNE performs, charged
        to both participating MDTs.  A hard-link dentry keeps its link
        record under the new path.
        """
        old, src = self._owner(old)
        new, dst = self._owner(new)
        if src == dst:
            moved = self.shards[src].rename(old, new, now)
            self.servers[src].service_time(OpMix(renames=1))
        else:
            entry = self.shards[src].get(old)
            if entry.is_dir:
                raise NamespaceError(f"cannot rename a directory: {old}")
            self.shards[src].unlink(old)
            moved = self.shards[dst].create(
                new, entry.layout, now, size=entry.size,
                owner=entry.owner, project=entry.project)
            moved.atime, moved.mtime = entry.atime, entry.mtime
            self.servers[src].service_time(OpMix(renames=1, unlinks=1))
            self.servers[dst].service_time(OpMix(creates=1, links=1))
            self.cross_shard_renames += 1
        if old in self.link_targets:
            self.link_targets[new] = self.link_targets.pop(old)
        return moved

    def link(self, target: str, new: str, now: float) -> FileEntry:
        """Hard-link ``target`` at ``new``.

        The dentry is a zero-size entry on ``new``'s shard pointing at
        the target (capacity stays charged to the target only); the
        inode's nlink update charges the target's home shard when the
        two differ.
        """
        target, home = self._owner(target)
        new, dst = self._owner(new)
        entry = self.shards[home].get(target)
        if entry.is_dir:
            raise NamespaceError(f"cannot hard-link a directory: {target}")
        link_entry = self.shards[dst].create(
            new, entry.layout, now, size=0,
            owner=entry.owner, project=entry.project)
        self.link_targets[new] = target
        if home == dst:
            self.servers[dst].service_time(OpMix(links=1))
        else:
            self.servers[dst].service_time(OpMix(creates=1))
            self.servers[home].service_time(OpMix(links=1))
            self.cross_shard_links += 1
        return link_entry

    # -- lookup ------------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        path, shard = self._owner(path)
        return path in self.shards[shard]

    def get(self, path: str) -> FileEntry:
        """Resolve one entry on its owning shard (no MDS charge — pair
        with :meth:`stat` for a billed stat)."""
        path, shard = self._owner(path)
        return self.shards[shard].get(path)

    def stat(self, path: str) -> FileEntry:
        """A billed stat: resolve + charge the owning shard, with the
        per-stripe OST RPC amplification of the entry's layout."""
        path, shard = self._owner(path)
        entry = self.shards[shard].get(path)
        stripes = entry.layout.stripe_count if entry.layout else 0
        self.servers[shard].service_time(
            OpMix(stats=1, mean_stripe_count=stripes))
        return entry

    def listdir(self, path: str) -> list[str]:
        """Children of a directory — a single-shard readdir (subtree
        partitioning colocates a directory's files; subdirectories are
        replicated, so the owning shard of the children sees both)."""
        path = _normalize(path)
        child_shard = _dir_shard(path, self.n_shards)
        names = self.shards[child_shard].listdir(path)
        self.servers[child_shard].service_time(
            OpMix(readdir_entries=len(names)))
        return names

    def read(self, path: str, now: float) -> FileEntry:
        """Bump atime on the owning shard."""
        path, shard = self._owner(path)
        return self.shards[shard].read(path, now)

    def write(self, path: str, nbytes: int, now: float) -> FileEntry:
        """Append bytes on the owning shard."""
        path, shard = self._owner(path)
        return self.shards[shard].write(path, nbytes, now)

    # -- aggregate views ---------------------------------------------------

    @property
    def n_files(self) -> int:
        return sum(ns.n_files for ns in self.shards)

    @property
    def n_dirs(self) -> int:
        """Distinct directories (the skeleton is replicated; count once)."""
        return self.shards[0].n_dirs

    def files(self, top: str = "/") -> Iterator[FileEntry]:
        """Every file, shard-major, deterministic order.

        Within a shard the walk is sorted-DFS (insertion-order
        independent); shards are visited in index order.  Tools that
        need a global lexicographic order sort the result — sweeps
        (purge, LustreDU) are order-insensitive aggregations.
        """
        for ns in self.shards:
            yield from ns.files(top)

    def total_bytes(self, top: str = "/") -> int:
        """Logical bytes across all shards (hard links count once)."""
        return sum(f.size for f in self.files(top))

    # -- load accounting ---------------------------------------------------

    def balance(self) -> float:
        """Jain fairness of per-shard op counts (1.0 = perfectly even)."""
        loads = np.array([server.ops_served for server in self.servers],
                         dtype=float)
        total = loads.sum()
        if total == 0:
            return 1.0
        return float(total ** 2 / (self.n_shards * (loads ** 2).sum()))


class ShardedFilesystem(OstPool):
    """A file system over a :class:`ShardedNamespace` and a shared OST pool.

    Shares :class:`repro.lustre.filesystem.OstPool` with
    :class:`repro.lustre.filesystem.LustreFilesystem` and offers the same
    file verbs, ``namespace`` and ``mds_servers``, so the purger and
    LustreDU ride the sharded namespace unchanged.
    """

    def __init__(
        self,
        name: str,
        osts: list[Ost],
        *,
        n_shards: int = 4,
        mds_spec: MdsSpec | None = None,
        default_stripe_count: int = 1,
        default_stripe_size: int = MiB,
        qos_threshold: float = 0.17,
    ) -> None:
        super().__init__(name, osts, default_stripe_count=default_stripe_count,
                         default_stripe_size=default_stripe_size,
                         qos_threshold=qos_threshold)
        self.namespace = ShardedNamespace(name, n_shards, spec=mds_spec)
        self.mds_servers = tuple(self.namespace.servers)

    # -- file operations ---------------------------------------------------

    def create_file(self, path: str, now: float, *, size: int = 0,
                    stripe_count: int | None = None,
                    stripe_size: int | None = None,
                    osts: tuple[int, ...] | None = None,
                    owner: str = "user", project: str = "proj") -> FileEntry:
        """Create (and optionally pre-size) a file on its owning shard."""
        layout = self.layout_for(stripe_count, stripe_size, osts)
        entry = self.namespace.create(path, layout, now, size=0,
                                      owner=owner, project=project)
        if size:
            self.append(path, size, now)
        return entry

    def mkdir(self, path: str, now: float, **kwargs) -> FileEntry:
        """Create a directory (skeleton on every shard)."""
        return self.namespace.mkdir(path, now, **kwargs)

    def append(self, path: str, nbytes: int, now: float) -> FileEntry:
        """Grow a file, charging its stripes' OSTs."""
        self._charge_growth(self.namespace.get(path), nbytes)
        return self.namespace.write(path, nbytes, now)

    def read_file(self, path: str, now: float) -> FileEntry:
        """Read a whole file, charging its stripes' OSTs."""
        entry = self.namespace.read(path, now)
        if entry.layout is not None and entry.size:
            for ost_index, share in entry.layout.ost_share(entry.size).items():
                self._ost_by_index[ost_index].record_read(share)
        return entry

    def unlink(self, path: str) -> FileEntry:
        """Remove a file, releasing OST capacity (hard-link dentries hold
        no capacity of their own)."""
        path = _normalize(path)
        entry = self.namespace.get(path)
        holds_capacity = (not entry.is_dir and entry.layout is not None
                          and path not in self.namespace.link_targets)
        if holds_capacity:
            self._release(entry)
        return self.namespace.unlink(path)

    def rename(self, old: str, new: str, now: float) -> FileEntry:
        """Rename a file (cross-shard pays the DNE transaction)."""
        return self.namespace.rename(old, new, now)

    def stat(self, path: str) -> FileEntry:
        """A billed stat on the owning shard."""
        return self.namespace.stat(path)

    def du(self, top: str = "/") -> int:
        """Client-side ``du``: per-file stats, spread over the shards
        (still the Lesson-19 pathology, just divided by ``n_shards``)."""
        total = 0
        for entry in self.namespace.files(top):
            self.namespace.stat(entry.path)
            total += entry.size
        return total

    def scan_cost(self, n_entries: int, server_scan_speedup: float) -> float:
        """Server-side sweep cost (LustreDU): each shard scans its own
        subtrees in parallel; the makespan is the busiest shard's scan.

        Returns seconds of (parallel) metadata-service time; charges
        every shard its share.
        """
        per_shard = max(1, int(n_entries / self.namespace.n_shards
                               / server_scan_speedup))
        times = [
            server.service_time(OpMix(readdir_entries=per_shard))
            for server in self.mds_servers
        ]
        return max(times)
