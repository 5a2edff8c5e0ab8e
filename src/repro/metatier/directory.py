"""Haystack Directory + Cache: the metadata plane of the aggregated tier.

The Haystack split of responsibilities keeps the Lustre MDS out of the
tiny-file read path entirely:

* the **Directory** owns the logical-to-physical mapping — which store
  and segment holds each logical ID — and is consulted on every logical
  operation.  It is an in-memory service (a dict here), so its per-op
  cost is zero MDS seconds; what it *does* cost is memory, which
  :meth:`HaystackDirectory.memory_bytes` estimates so capacity planning
  can reason about the 10^9-needle regime.
* the **Cache** fronts store reads with a configurable hit rate (the
  published Haystack number is ~80% for recent uploads).  A hit skips
  the OST seek; the hit draw comes from a named seeded substream so
  cached runs remain bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.metatier.needles import Needle, SegmentStore
from repro.sim.rng import RngStreams

__all__ = ["DirectoryEntry", "HaystackDirectory", "NeedleCache"]

#: estimated in-memory index bytes per needle: key hash + segment id +
#: offset + length + flags, Haystack's ~10 bytes/needle plus dict overhead
INDEX_BYTES_PER_NEEDLE = 48


class _Draws:
    """Seeded draws served in order, requested in vectors.

    ``draw(n)`` must yield the stream of ``n`` scalar draws, as numpy's
    ``Generator.integers`` and ``random`` do; draws a caller requested
    but did not take wait for the next request, so the served sequence
    never depends on how requests were batched.
    """

    def __init__(self, draw: Callable[[int], np.ndarray]) -> None:
        self._draw = draw
        #: drawn and not yet served, next one last
        self._waiting: list = []

    def take(self, n: int) -> Iterator:
        """Serve up to ``n`` draws, drawing the shortfall as one vector."""
        short = n - len(self._waiting)
        if short > 0:
            self._waiting[:0] = self._draw(short).tolist()[::-1]
        waiting = self._waiting
        for _ in range(n):
            yield waiting.pop()


@dataclass(frozen=True)
class DirectoryEntry:
    """Where one logical ID lives: store name + needle record."""

    store: str
    needle: Needle


class HaystackDirectory:
    """Seeded logical-ID → (store, segment) mapping over several stores.

    Writes are spread across stores by a draw from the named substream
    ``metatier.directory`` — the Directory's "balanced writable volume"
    policy — so multi-store layouts stay balanced without coordination.
    """

    def __init__(self, stores: list[SegmentStore], *, seed: int = 0) -> None:
        if not stores:
            raise ValueError("the directory needs at least one store")
        self.stores = list(stores)
        self._by_name = {store.name: store for store in self.stores}
        if len(self._by_name) != len(self.stores):
            raise ValueError("store names must be unique")
        rng = RngStreams(seed).get("metatier.directory")
        n_stores = len(self.stores)
        self._picks = _Draws(lambda n: rng.integers(0, n_stores, size=n))
        self.entries: dict[str, DirectoryEntry] = {}

    def __len__(self) -> int:
        """Live logical IDs."""
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def store_for_write(self) -> SegmentStore:
        """Pick the store for a new logical ID (seeded balanced choice)."""
        return next(self.stores_for_write(1))

    def stores_for_write(self, n: int) -> Iterator[SegmentStore]:
        """Stores for up to ``n`` new logical IDs, in order: the picks
        :meth:`store_for_write` would make, drawn as one vector."""
        stores = self.stores
        if len(stores) == 1:
            for _ in range(n):
                yield stores[0]
            return
        for pick in self._picks.take(n):
            yield stores[pick]

    def record(self, key: str, store: SegmentStore, needle: Needle) -> None:
        """Bind ``key`` to its physical location after a store write."""
        self.entries[key] = DirectoryEntry(store=store.name, needle=needle)

    def locate(self, key: str) -> DirectoryEntry:
        """Resolve one logical ID (in-memory; zero MDS cost)."""
        entry = self.entries.get(key)
        if entry is None:
            raise KeyError(f"unknown logical ID: {key}")
        return entry

    def forget(self, key: str) -> DirectoryEntry:
        """Drop a logical ID after its needle is deleted."""
        entry = self.entries.pop(key, None)
        if entry is None:
            raise KeyError(f"unknown logical ID: {key}")
        return entry

    def store(self, name: str) -> SegmentStore:
        """Look up a store by name."""
        return self._by_name[name]

    def memory_bytes(self) -> int:
        """Estimated RAM the in-memory index costs at current population —
        the number that decides whether a 10^9-needle directory fits in
        one server (at 48 B/needle, 10^9 needles ≈ 48 GB: it does)."""
        return INDEX_BYTES_PER_NEEDLE * len(self.entries)


class NeedleCache:
    """The Haystack Cache, reduced to its effect: a seeded hit draw.

    The cache's job is to absorb reads of recently written needles so the
    store's OSTs only see the long tail.  Modelling the eviction policy
    would add state without adding insight at sim scale; the published
    ~80% hit rate enters as a configurable Bernoulli draw on the named
    substream ``metatier.cache``.
    """

    def __init__(self, hit_rate: float = 0.8, *, seed: int = 0) -> None:
        if not (0.0 <= hit_rate <= 1.0):
            raise ValueError("hit_rate must be in [0, 1]")
        self.hit_rate = hit_rate
        self._uniforms = _Draws(RngStreams(seed).get("metatier.cache").random)
        self.hits = 0
        self.misses = 0

    def lookup(self) -> bool:
        """One read's cache outcome; ``True`` skips the store entirely."""
        return next(self.lookups(1))

    def lookups(self, n: int) -> Iterator[bool]:
        """Up to ``n`` reads' cache outcomes, in order: the outcomes
        :meth:`lookup` would give, drawn as one vector."""
        hit_rate = self.hit_rate
        for u in self._uniforms.take(n):
            if u < hit_rate:
                self.hits += 1
                yield True
            else:
                self.misses += 1
                yield False

    @property
    def observed_hit_rate(self) -> float:
        """Realized hit fraction over all lookups so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
