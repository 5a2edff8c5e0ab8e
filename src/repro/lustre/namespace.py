"""An in-memory Lustre namespace: directories, files, stripe layouts.

Scale notes: Spider-class namespaces hold hundreds of millions of files;
the experiments here exercise up to a few million.  Entries are kept in a
flat ``dict`` keyed by path with slotted records, which keeps per-file
overhead near 200 bytes and directory listing O(children) via a parallel
children index — enough for every experiment while staying debuggable.

Timestamps are simulated seconds (floats); the purge engine (14-day policy,
§IV-C) and LustreDU read them directly.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.units import MiB

__all__ = ["StripeLayout", "FileEntry", "Namespace", "NamespaceError"]


class NamespaceError(Exception):
    """Illegal namespace operation (missing parent, duplicate path, ...)."""


@dataclass(frozen=True)
class StripeLayout:
    """Lustre striping metadata for one file.

    ``stripe_size`` is the per-OST chunk; ``osts`` the ordered target list.
    The best-practice guidance of §VII (stripe small files to a single OST,
    wide-stripe large shared files) manifests as choices of this layout.
    """

    osts: tuple[int, ...]
    stripe_size: int = MiB

    def __post_init__(self) -> None:
        if not self.osts:
            raise ValueError("a layout needs at least one OST")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")

    @property
    def stripe_count(self) -> int:
        return len(self.osts)

    def ost_share(self, size: int) -> dict[int, int]:
        """Bytes landing on each OST for a file of ``size`` bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        osts = self.osts
        if len(osts) == 1:
            return {osts[0]: size}
        stripe = self.stripe_size
        full_rounds, rem = divmod(size, stripe * len(osts))
        base = full_rounds * stripe
        # rem < stripe * stripe_count, so chunk i of the remainder lands
        # on osts[i]; a repeated OST accumulates every stripe it holds.
        shares = dict.fromkeys(osts, 0)
        for i, ost in enumerate(osts):
            shares[ost] += base + min(stripe, max(0, rem - i * stripe))
        return shares


@dataclass
class FileEntry:
    """One namespace entry (file or directory)."""

    __slots__ = (
        "path", "is_dir", "size", "atime", "mtime", "ctime",
        "layout", "owner", "project",
    )

    path: str
    is_dir: bool
    size: int
    atime: float
    mtime: float
    ctime: float
    layout: StripeLayout | None
    owner: str
    project: str

    @property
    def name(self) -> str:
        return posixpath.basename(self.path) or "/"

    def last_touched(self) -> float:
        """Most recent of atime/mtime/ctime — the purge-eligibility clock
        ("not created, modified, or accessed within a contiguous 14 day
        range", §IV-C)."""
        return max(self.atime, self.mtime, self.ctime)


def _normalize(path: str) -> str:
    """Canonical absolute form of ``path``.

    A path with no empty, ``.`` or ``..`` component is its own
    ``normpath`` and returns as is.  ``normpath`` keeps a leading ``//``
    (POSIX leaves it implementation-defined); Lustre resolves it to the
    root, and so does this.
    """
    if not path.startswith("/"):
        raise NamespaceError(f"paths must be absolute: {path!r}")
    if ("//" in path or "/./" in path or "/../" in path
            or path.endswith(("/", "/.", "/.."))):
        path = posixpath.normpath(path)
        if path.startswith("//"):
            path = path[1:]
    return path


def _parent(path: str) -> str:
    """``posixpath.dirname`` of a normalized absolute path."""
    return path[:path.rfind("/")] or "/"


class Namespace:
    """The file tree of one Lustre file system."""

    def __init__(self, name: str = "atlas") -> None:
        self.name = name
        root = FileEntry(
            path="/", is_dir=True, size=0,
            atime=0.0, mtime=0.0, ctime=0.0,
            layout=None, owner="root", project="system",
        )
        self._entries: dict[str, FileEntry] = {"/": root}
        self._children: dict[str, set[str]] = {"/": set()}
        self.n_files = 0
        self.n_dirs = 1

    # -- lookup ------------------------------------------------------------------

    # Stored keys are normalized and absolute, so a hit on the raw path is
    # the entry ``_normalize`` would find; only a miss pays for it.

    def __contains__(self, path: str) -> bool:
        return path in self._entries or _normalize(path) in self._entries

    def get(self, path: str) -> FileEntry:
        entry = self._entries.get(path)
        if entry is None:
            entry = self._entries.get(_normalize(path))
            if entry is None:
                raise NamespaceError(f"no such entry: {path}")
        return entry

    def listdir(self, path: str) -> list[str]:
        path = _normalize(path)
        entry = self.get(path)
        if not entry.is_dir:
            raise NamespaceError(f"not a directory: {path}")
        return sorted(self._children[path])

    def __len__(self) -> int:
        """Total entries including directories."""
        return len(self._entries)

    # -- mutation ----------------------------------------------------------------

    def _attach(self, path: str) -> None:
        self._child_set(_parent(path)).add(path)

    def _child_set(self, directory: str) -> set[str]:
        """The children of ``directory``, which must exist as a directory."""
        entry = self._entries.get(directory)
        if entry is None:
            raise NamespaceError(f"missing parent directory: {directory}")
        if not entry.is_dir:
            raise NamespaceError(f"parent is a file: {directory}")
        return self._children[directory]

    def mkdir(self, path: str, now: float = 0.0, *, owner: str = "root",
              project: str = "system", parents: bool = False) -> FileEntry:
        path = _normalize(path)
        if path in self._entries:
            entry = self._entries[path]
            if entry.is_dir:
                return entry
            raise NamespaceError(f"file exists: {path}")
        parent = _parent(path)
        if parents and parent not in self._entries:
            self.mkdir(parent, now, owner=owner, project=project, parents=True)
        entry = FileEntry(
            path=path, is_dir=True, size=0,
            atime=now, mtime=now, ctime=now,
            layout=None, owner=owner, project=project,
        )
        self._attach(path)
        self._entries[path] = entry
        self._children[path] = set()
        self.n_dirs += 1
        return entry

    def create(
        self,
        path: str,
        layout: StripeLayout,
        now: float = 0.0,
        *,
        size: int = 0,
        owner: str = "user",
        project: str = "proj",
    ) -> FileEntry:
        path = _normalize(path)
        return self._add_file(path, self._child_set(_parent(path)), layout,
                              now, size, owner, project)

    def _add_file(self, path: str, siblings: set[str], layout: StripeLayout,
                  now: float, size: int, owner: str,
                  project: str) -> FileEntry:
        """Insert a file at a normalized ``path`` whose parent's child set
        is ``siblings``: the mutation :meth:`create` makes, for callers
        that resolve a directory once for many files."""
        if path in self._entries:
            raise NamespaceError(f"file exists: {path}")
        entry = FileEntry(
            path=path, is_dir=False, size=int(size),
            atime=now, mtime=now, ctime=now,
            layout=layout, owner=owner, project=project,
        )
        siblings.add(path)
        self._entries[path] = entry
        self.n_files += 1
        return entry

    def write(self, path: str, nbytes: int, now: float) -> FileEntry:
        """Append ``nbytes`` (grow the file) and bump mtime."""
        if nbytes < 0:
            raise NamespaceError("write size must be non-negative")
        entry = self.get(path)
        if entry.is_dir:
            raise NamespaceError(f"is a directory: {path}")
        entry.size += int(nbytes)
        entry.mtime = now
        return entry

    def read(self, path: str, now: float) -> FileEntry:
        entry = self.get(path)
        entry.atime = now
        return entry

    def rename(self, old: str, new: str, now: float) -> FileEntry:
        """Move a *file* to a new absolute path (two-dentry transaction).

        Directory renames are out of scope: Lustre's DNE1 restriction —
        and the subtree partitioning built on it — pins a directory to
        its MDT, so the simulated tools never move one.
        """
        old = _normalize(old)
        new = _normalize(new)
        entry = self.get(old)
        if entry.is_dir:
            raise NamespaceError(f"cannot rename a directory: {old}")
        if new in self._entries:
            raise NamespaceError(f"file exists: {new}")
        self._attach(new)
        parent = _parent(old)
        self._children[parent].discard(old)
        del self._entries[old]
        entry.path = new
        entry.ctime = now
        self._entries[new] = entry
        return entry

    def unlink(self, path: str) -> FileEntry:
        path = _normalize(path)
        entry = self.get(path)
        if entry.is_dir:
            if self._children[path]:
                raise NamespaceError(f"directory not empty: {path}")
            if path == "/":
                raise NamespaceError("cannot remove root")
            del self._children[path]
            self.n_dirs -= 1
        else:
            self.n_files -= 1
        parent = _parent(path)
        self._children[parent].discard(path)
        del self._entries[path]
        return entry

    # -- traversal ----------------------------------------------------------------

    def walk(self, top: str = "/") -> Iterator[FileEntry]:
        """Depth-first traversal of every entry under ``top`` (inclusive)."""
        top = _normalize(top)
        entry = self.get(top)
        stack = [entry]
        while stack:
            entry = stack.pop()
            yield entry
            if entry.is_dir:
                for child in sorted(self._children[entry.path], reverse=True):
                    stack.append(self._entries[child])

    def files(self, top: str = "/") -> Iterator[FileEntry]:
        for entry in self.walk(top):
            if not entry.is_dir:
                yield entry

    def total_bytes(self, top: str = "/") -> int:
        return sum(f.size for f in self.files(top))

    def select(self, predicate: Callable[[FileEntry], bool], top: str = "/") -> list[FileEntry]:
        return [f for f in self.files(top) if predicate(f)]
