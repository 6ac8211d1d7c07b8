"""The record server's scan-prefix cache.

The cache exploits the defining property of the PCR layout: the bytes a
reader needs at scan group *k* are a strict prefix of the bytes it needs at
any group *g ≥ k*.  It therefore keys entries by record and remembers the
*highest* group it has seen for each; any request at a lower group is served
by slicing the cached prefix (a *prefix-containment hit*) without touching
storage.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs import Counter, MetricsRegistry

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class _CacheEntry:
    scan_group: int
    data: bytes
    view: memoryview


class _GroupCounters(NamedTuple):
    """One scan group's ``serving.cache.group.<g>.<field>_total`` counters."""

    hits: Counter
    misses: Counter
    bytes_served: Counter
    admissions: Counter
    evictions: Counter


class ScanPrefixCache:
    """An LRU byte cache of record prefixes with prefix-containment hits.

    One entry per record, holding the longest prefix (highest scan group)
    seen so far.  A lookup at group ``g`` hits whenever the cached group is
    ``≥ g``: the response is a zero-copy ``memoryview`` of the first
    ``bytes_for_group(g)`` bytes of the cached prefix (the full ``bytes``
    object on an exact-length hit), which the event-loop server hands to
    ``sendmsg`` without ever materializing the slice.  Eviction is
    least-recently-used by total cached bytes.

    Every counter is a ``serving.cache.*`` metric on a
    :class:`~repro.obs.MetricsRegistry` (the embedding server's, or a
    private one for standalone caches), incremented where the event
    happens; :meth:`stats` is a view of the same counters, so the two cannot
    disagree — and a disabled registry freezes both.  One lock guards the
    entries and keeps :meth:`stats` coherent while the event loop looks
    records up.  Every increment happens under that lock, so the counters
    are created ``locked=False`` and take none of their own.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._exact_hits = self._counter("serving.cache.exact_hits_total")
        self._prefix_hits = self._counter("serving.cache.prefix_hits_total")
        self._misses = self._counter("serving.cache.misses_total")
        self._evictions = self._counter("serving.cache.evictions_total")
        self._bytes_served = self._counter("serving.cache.bytes_served_total")
        self._admissions = self._counter("serving.cache.admissions_total")
        self._by_group: dict[int, _GroupCounters] = {}

    def _counter(self, name: str) -> Counter:
        return self.registry.counter(name, locked=False)

    def _group(self, scan_group: int) -> _GroupCounters:
        """The per-group counters of ``scan_group``, resolved on first use."""
        counters = self._by_group.get(scan_group)
        if counters is None:
            counters = self._by_group[scan_group] = _GroupCounters(
                *(
                    self._counter(f"serving.cache.group.{scan_group}.{field}_total")
                    for field in _GroupCounters._fields
                )
            )
        return counters

    def get(self, record_name: str, scan_group: int, length: int):
        """Return a view of the first ``length`` bytes, or ``None`` on miss.

        The result is ``bytes`` on an exact-length hit and a read-only
        ``memoryview`` slice on a containment hit; both compare equal to
        the equivalent ``bytes`` and both support ``len``/buffer APIs.  The
        view pins the backing ``bytes`` object, so it stays valid even if
        the entry is evicted afterwards.
        """
        with self._lock:
            group = self._group(scan_group)
            entry = self._entries.get(record_name)
            if entry is None or entry.scan_group < scan_group:
                self._misses.inc()
                group.misses.inc()
                return None
            self._entries.move_to_end(record_name)
            if entry.scan_group == scan_group:
                self._exact_hits.inc()
            else:
                self._prefix_hits.inc()
            self._bytes_served.inc(length)
            group.hits.inc()
            group.bytes_served.inc(length)
            if length == len(entry.data):
                return entry.data
            return entry.view[:length]

    def put(self, record_name: str, scan_group: int, data: bytes) -> None:
        """Cache a record prefix read at ``scan_group`` (longest prefix wins)."""
        if len(data) > self.capacity_bytes:
            return
        data = bytes(data)
        with self._lock:
            existing = self._entries.get(record_name)
            if existing is not None:
                if existing.scan_group >= scan_group:
                    self._entries.move_to_end(record_name)
                    return
                self._bytes -= len(existing.data)
            self._entries[record_name] = _CacheEntry(
                scan_group=scan_group, data=data, view=memoryview(data)
            )
            self._entries.move_to_end(record_name)
            self._bytes += len(data)
            self._admissions.inc()
            self._group(scan_group).admissions.inc()
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.data)
                self._evictions.inc()
                self._group(evicted.scan_group).evictions.inc()

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """The cache's part of the ``STAT`` body: a view of its registry counters."""
        with self._lock:
            exact_hits = self._exact_hits.value
            prefix_hits = self._prefix_hits.value
            misses = self._misses.value
            lookups = exact_hits + prefix_hits + misses
            stats = {
                "entries": len(self._entries),
                "cached_bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "exact_hits": exact_hits,
                "prefix_hits": prefix_hits,
                "misses": misses,
                "evictions": self._evictions.value,
                "admissions": self._admissions.value,
                "hit_rate": (exact_hits + prefix_hits) / lookups if lookups else 0.0,
                "prefix_hit_rate": prefix_hits / lookups if lookups else 0.0,
            }
            groups = sorted(self._by_group.items())
            for index, field in enumerate(_GroupCounters._fields):
                # A group is listed under a family once it has counted there.
                stats[f"{field}_by_group"] = {
                    str(group): counters[index].value
                    for group, counters in groups
                    if counters[index].value
                }
            return stats
