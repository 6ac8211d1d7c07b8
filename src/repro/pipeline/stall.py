"""Data-stall tracking (Figure 11, §A.1).

A *data stall* is time the training loop spends waiting for the next
minibatch because the prefetching loader has not produced one yet.  The
tracker records per-iteration wait times so the stall timeline and aggregate
stall fraction can be reported.

``StallTracker`` is now a thin facade over the :mod:`repro.obs` metrics
registry: every recorded wait/compute interval also lands on shared
registry metrics (``loader.wait_seconds`` histogram,
``loader.{wait,compute}_seconds_total`` counters, ...), so the stall story
shows up in the same snapshot schema as the decode, serving, and storage
telemetry.  The list-based API (``wait_seconds``, ``timeline()``,
``stall_fraction``) is unchanged — the lists stay the exact per-iteration
record the Figure 11 series needs, while the registry carries the
aggregates.  ``DataLoader.epoch()`` populates both sides automatically
(waits from its queue gets, compute from the gaps between ``yield``s), so
callers no longer time anything by hand.  A capped link
(:class:`~repro.core.source.BandwidthThrottle`) sleeps in the reader thread,
so its delay shows up here as wait, like a slow real link.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, get_registry

#: A wait longer than this counts as a stalled iteration (same default the
#: original ``stalled_iterations`` used).
STALL_THRESHOLD_SECONDS = 1e-3


class StallTracker:
    """Accumulates per-iteration data-wait times (registry-backed facade)."""

    def __init__(
        self,
        wait_seconds: list[float] | None = None,
        compute_seconds: list[float] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.wait_seconds: list[float] = list(wait_seconds or [])
        self.compute_seconds: list[float] = list(compute_seconds or [])
        # Running totals beside the lists: a control window reads them every
        # interval, and summing a per-batch list grows with the loader's life.
        self._sum_wait = sum(self.wait_seconds)
        self._sum_compute = sum(self.compute_seconds)
        registry = registry if registry is not None else get_registry()
        self._wait_histogram = registry.histogram("loader.wait_seconds")
        self._wait_total = registry.counter("loader.wait_seconds_total")
        self._compute_total = registry.counter("loader.compute_seconds_total")
        self._stalled_total = registry.counter("loader.stalled_iterations_total")

    def record_wait(self, seconds: float) -> None:
        """Record the time spent waiting for one minibatch."""
        self.wait_seconds.append(seconds)
        self._sum_wait += seconds
        self._wait_histogram.observe(seconds)
        self._wait_total.inc(seconds)
        if seconds > STALL_THRESHOLD_SECONDS:
            self._stalled_total.inc()

    def record_compute(self, seconds: float) -> None:
        """Record the time spent computing on one minibatch."""
        self.compute_seconds.append(seconds)
        self._sum_compute += seconds
        self._compute_total.inc(seconds)

    @property
    def total_wait(self) -> float:
        """Total stall time."""
        return self._sum_wait

    @property
    def total_compute(self) -> float:
        """Total compute time."""
        return self._sum_compute

    @property
    def stall_fraction(self) -> float:
        """Fraction of wall time spent stalled on data."""
        total = self.total_wait + self.total_compute
        return self.total_wait / total if total else 0.0

    def stalled_iterations(self, threshold_seconds: float = STALL_THRESHOLD_SECONDS) -> int:
        """Number of iterations whose wait exceeded ``threshold_seconds``."""
        return sum(1 for wait in self.wait_seconds if wait > threshold_seconds)

    def timeline(self) -> list[tuple[int, float]]:
        """Per-iteration ``(iteration, wait_seconds)`` pairs (Figure 11 series)."""
        return list(enumerate(self.wait_seconds))

