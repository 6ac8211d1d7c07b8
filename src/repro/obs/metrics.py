"""A low-overhead, fork-aware metrics registry.

Every component of the stack — the loader, the decode pool, the record
server, the storage simulators — records its telemetry as *named metrics*
in a :class:`MetricsRegistry`:

* :class:`Counter` — a monotonically increasing total (``int`` or
  ``float``, e.g. requests served, seconds stalled);
* :class:`Gauge` — a point-in-time value (open connections, cached bytes);
* :class:`Histogram` — a fixed-bucket distribution (wait times, loop
  iteration latencies).

Design constraints, in order:

1. **Disabled means one branch.**  Every update method starts with
   ``if not enabled: return`` and does nothing else; a registry that is
   switched off costs a single predictable branch per event.  The
   end-to-end benchmark (``benchmarks/e2e/``) runs with the default
   registry on, so the cost of leaving it on is inside every rate it
   reports.
2. **Thread-safe.**  Updates take a per-metric lock; metric creation takes
   the registry lock and is idempotent (``counter("x")`` always returns the
   same object), so hot paths can re-resolve metrics without caching.  A
   counter or histogram whose owner already serialises its writers is
   created with ``locked=False`` and skips the per-metric lock (the record
   server's per-request metrics: docs/observability.md, design rule 2).
3. **Fork-aware.**  A forked child (a ``DecodePool`` worker) must report
   only *its own* work.  ``os.register_at_fork`` resets the default
   registry in the child, and :meth:`MetricsRegistry.snapshot` /
   :func:`diff_snapshots` / :meth:`MetricsRegistry.merge` let the child
   ship per-chunk deltas back to the parent, where they aggregate into the
   parent's registry as if the work had run in-process.
4. **One snapshot schema.**  :meth:`MetricsRegistry.snapshot` returns a
   plain JSON-serializable dict; :func:`merge_snapshots` combines
   snapshots from different processes (or different cluster replicas, via
   the ``GET_METRICS`` wire op) into one fleet-wide view.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from contextlib import nullcontext

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "diff_snapshots",
    "merge_snapshots",
]

#: Upper bucket edges (inclusive) for latency histograms, in seconds.  The
#: implicit final bucket catches everything above the last edge.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

#: What the cold paths of a ``locked=False`` metric enter instead of a lock.
_UNLOCKED = nullcontext()


class Counter:
    """A monotonically increasing total.

    ``locked=False`` is for a counter whose owner already serialises its
    writers — one thread, or a lock the owner holds around every
    :meth:`inc` — so the increment takes no lock of its own.
    """

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(
        self, name: str, registry: "MetricsRegistry", locked: bool = True
    ) -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock() if locked else None
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (a single branch when the registry is disabled)."""
        if not self._registry._enabled:
            return
        if self._lock is None:
            self._value += amount
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._lock or _UNLOCKED:
            self._value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int | float) -> None:
        if not self._registry._enabled:
            return
        self._value = value

    def inc(self, amount: int | float = 1) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram:
    """A fixed-bucket distribution with a running sum and count.

    Bucket ``i`` counts observations ``edges[i-1] < v <= edges[i]``
    (inclusive upper edges); one extra overflow bucket counts everything
    above the last edge, so ``len(counts) == len(edges) + 1`` and no
    observation is ever dropped.  ``locked=False`` means what it does for a
    :class:`Counter`: the owner serialises the observers.
    """

    __slots__ = ("name", "edges", "_registry", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        edges: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        locked: bool = True,
    ) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges}")
        self.name = name
        self.edges = tuple(float(edge) for edge in edges)
        self._registry = registry
        self._lock = threading.Lock() if locked else None
        self._counts = [0] * (len(self.edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (a single branch when disabled)."""
        if not self._registry._enabled:
            return
        index = bisect_left(self.edges, value)
        if self._lock is None:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            return
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> list[int]:
        with self._lock or _UNLOCKED:
            return list(self._counts)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def _reset(self) -> None:
        with self._lock or _UNLOCKED:
            self._counts = [0] * (len(self.edges) + 1)
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- enablement -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Turn the whole registry on or off (off = one branch per event)."""
        self._enabled = bool(enabled)

    # -- metric creation (idempotent by name) ---------------------------------

    def counter(self, name: str, locked: bool = True) -> Counter:
        """The counter called ``name``; ``locked`` applies when this call creates it."""
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    self._check_name(name, self._counters)
                    metric = self._counters[name] = Counter(name, self, locked)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    self._check_name(name, self._gauges)
                    metric = self._gauges[name] = Gauge(name, self)
        return metric

    def histogram(
        self,
        name: str,
        edges: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        locked: bool = True,
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    self._check_name(name, self._histograms)
                    metric = self._histograms[name] = Histogram(name, self, edges, locked)
        if tuple(metric.edges) != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {metric.edges}"
            )
        return metric

    def _check_name(self, name: str, own_kind: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own_kind and name in kind:
                raise ValueError(f"metric {name!r} already registered as another type")

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable view of every metric's current value."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: metric.value for name, metric in sorted(counters.items())},
            "gauges": {name: metric.value for name, metric in sorted(gauges.items())},
            "histograms": {
                name: {
                    "edges": list(metric.edges),
                    "counts": metric.counts,
                    "sum": metric.sum,
                    "count": metric.count,
                }
                for name, metric in sorted(histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. a worker-process delta) into this registry.

        Counters and histogram buckets add; gauges add too, since merging is
        used to aggregate *disjoint* sources (workers, replicas) where sums
        are the meaningful fleet-wide value.
        """
        if not self._enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).inc(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, edges=tuple(data["edges"]))
            with histogram._lock or _UNLOCKED:
                for index, count in enumerate(data["counts"]):
                    histogram._counts[index] += count
                histogram._sum += data["sum"]
                histogram._count += data["count"]

    def reset(self) -> None:
        """Zero every metric (fork hook; also handy between test cases)."""
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric._reset()


def diff_snapshots(new: dict, old: dict) -> dict:
    """The per-event delta between two snapshots of the *same* registry.

    Counters and histogram buckets subtract; gauges keep their new value
    (a gauge is a level, not a total).  This is what a ``DecodePool``
    worker ships back per chunk: the work done since its previous chunk.
    """
    counters = {}
    for name, value in new.get("counters", {}).items():
        delta = value - old.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in new.get("histograms", {}).items():
        previous = old.get("histograms", {}).get(
            name, {"counts": [0] * len(data["counts"]), "sum": 0.0, "count": 0}
        )
        count_delta = data["count"] - previous["count"]
        if count_delta:
            histograms[name] = {
                "edges": data["edges"],
                "counts": [n - p for n, p in zip(data["counts"], previous["counts"])],
                "sum": data["sum"] - previous["sum"],
                "count": count_delta,
            }
    return {
        "counters": counters,
        "gauges": dict(new.get("gauges", {})),
        "histograms": histograms,
    }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine snapshots from disjoint sources into one fleet-wide snapshot.

    Counters, gauges, and histogram buckets all add — used by
    ``repro.serving.cluster.sweep_fleet`` to merge the ``GET_METRICS``
    responses of every live replica.  Histograms merge only with matching
    edges (same metric, same code); mismatched edges raise.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = merged["gauges"].get(name, 0) + value
        for name, data in snapshot.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = {
                    "edges": list(data["edges"]),
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
                continue
            if existing["edges"] != list(data["edges"]):
                raise ValueError(f"histogram {name!r} merged with mismatched edges")
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], data["counts"])
            ]
            existing["sum"] += data["sum"]
            existing["count"] += data["count"]
    return merged


_DEFAULT_REGISTRY = MetricsRegistry(enabled=True)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (the one fork resets in children)."""
    return _DEFAULT_REGISTRY


# A forked child (DecodePool worker, multiprocessing helper) inherits the
# parent's accumulated totals; reset them at fork so everything the child
# reports afterwards is exactly its own work.
if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on POSIX
    os.register_at_fork(after_in_child=_DEFAULT_REGISTRY.reset)
