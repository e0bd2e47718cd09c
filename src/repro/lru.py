"""One bounded LRU store for every cache in the system.

The lowered-plan cache, the whole-result cache, the cross-query segment
cache, the retry checkpoint store and the configuration-search memo all
keep the same thing: values in least-recently-used order under an entry
bound, a byte bound, or both.  :class:`BoundedLRU` is that store.  The
caches wrap it by composition and keep only what is theirs: the key,
the byte size of a value, and the names their reports give the
counters.

The rules, in the order :meth:`BoundedLRU.put` applies them:

* a value larger than the whole byte budget is rejected and nothing is
  evicted (with ``max_entries=0`` every value is rejected);
* re-storing a key drops the old entry first, which is not an eviction;
* least recently used entries are evicted *before* the insert until the
  new value fits both bounds;
* the value goes in as the most recently used entry.

A hit (:meth:`get`) refreshes the entry; :meth:`peek` and :meth:`pop`
count nothing.  Every method takes one reentrant lock, because worker
pool tasks share the stores.

This module imports nothing from the rest of the package, so ``core``,
``model`` and ``serve`` can all build on it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Optional, Tuple, TypeVar

__all__ = ["BoundedLRU", "CacheStats"]

V = TypeVar("V")


@dataclass
class CacheStats:
    """Lifetime counters of one store."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The lookup counters: hits, misses and evictions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class BoundedLRU(Generic[V]):
    """An LRU map bounded by entry count and by total value bytes.

    ``None`` for a bound means unbounded.  Sizes are whatever the caller
    passes to :meth:`put`; a store with no byte bound passes none.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.live_bytes = 0
        self.peak_bytes = 0
        self._entries: "OrderedDict[Hashable, Tuple[V, int]]" = OrderedDict()
        self.lock = threading.RLock()

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key``, counting the hit or miss."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def peek(self, key: Hashable) -> Optional[V]:
        """The value under ``key``; counts nothing, refreshes nothing."""
        with self.lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[0]

    def put(self, key: Hashable, value: V, nbytes: int = 0) -> bool:
        """Store ``value``; ``False`` if it can never fit."""
        with self.lock:
            if self.max_entries == 0 or (
                self.max_bytes is not None and nbytes > self.max_bytes
            ):
                return False
            self._discard(key)
            self._evict(nbytes, 1)
            self._entries[key] = (value, nbytes)
            self.live_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            self.stats.stored += 1
            return True

    def pop(self, key: Hashable) -> Optional[V]:
        """Remove and return the value under ``key``; counts nothing."""
        with self.lock:
            entry = self._discard(key)
            return None if entry is None else entry[0]

    def resize(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        """Set new bounds; shrinking evicts the oldest entries at once."""
        with self.lock:
            self.max_entries = max_entries
            self.max_bytes = max_bytes
            self._evict(0, 0)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self.lock:
            self._entries.clear()
            self.stats = CacheStats()
            self.live_bytes = 0
            self.peak_bytes = 0

    def counters(self, size_key: str = "entries") -> Dict[str, int]:
        """One consistent snapshot; the entry count is named ``size_key``."""
        with self.lock:
            return {
                **self.stats.as_dict(),
                "stored": self.stats.stored,
                size_key: len(self._entries),
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
            }

    # -- internals (callers hold the lock) --------------------------------

    def _evict(self, nbytes: int, incoming: int) -> None:
        """Evict LRU entries until ``incoming`` entries of ``nbytes`` fit."""
        while self._entries and (
            (
                self.max_entries is not None
                and len(self._entries) + incoming > self.max_entries
            )
            or (
                self.max_bytes is not None
                and self.live_bytes + nbytes > self.max_bytes
            )
        ):
            _, (_, size) = self._entries.popitem(last=False)
            self.live_bytes -= size
            self.stats.evictions += 1

    def _discard(self, key: Hashable) -> Optional[Tuple[V, int]]:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.live_bytes -= entry[1]
        return entry
