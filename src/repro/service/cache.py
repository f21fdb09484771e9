"""Cross-campaign instance cache: loaded netlists that outlive jobs.

A service racing many campaigns over the same benchmark suite would
otherwise re-read or re-generate identical netlists for every
submission.  :class:`InstanceCache` keeps loaded hypergraphs alive
across jobs, keyed by the instance source's canonical fingerprint
(:meth:`~repro.service.spec.InstanceSource.cache_key`), and evicts the
least recently used beyond ``capacity``.  A job pickles its instances
into its own payload when it is registered, so evicting an entry never
affects a job that is already running.

Thread-safe: the HTTP frontend submits jobs from a thread pool and
reads ``/health`` from its event loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.hypergraph.hypergraph import Hypergraph
from repro.service.spec import InstanceSource


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class InstanceCache:
    """LRU cache of loaded instances."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Hypergraph]" = OrderedDict()
        self._closed = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source: InstanceSource) -> Hypergraph:
        """The hypergraph for ``source``, loaded on a miss."""
        key = source.cache_key()
        with self._lock:
            if self._closed:
                raise RuntimeError("instance cache is closed")
            hypergraph = self._entries.get(key)
            if hypergraph is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return hypergraph
        # Load outside the lock: file IO / generation may be slow and
        # must not stall other submissions or ``/health``.
        loaded = source.load()
        with self._lock:
            hypergraph = self._entries.get(key)
            if hypergraph is not None:  # another thread loaded it first
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return hypergraph
            self.stats.misses += 1
            self._entries[key] = loaded
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return loaded

    def close(self) -> None:
        """Drop every cached instance (service shutdown); later
        :meth:`get` calls raise.  Idempotent."""
        with self._lock:
            self._closed = True
            self._entries.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Introspection for ``/health``: one row per cached key."""
        with self._lock:
            return {
                key: {"vertices": hypergraph.num_vertices}
                for key, hypergraph in self._entries.items()
            }
