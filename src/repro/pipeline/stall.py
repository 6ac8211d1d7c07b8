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
callers no longer time anything by hand.
"""

from __future__ import annotations

import threading
import time

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
        # Running totals beside the lists: a telemetry window reads them every
        # report, and summing a per-batch list grows with the loader's life.
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


class BandwidthThrottle:
    """A serialized-link model: charging bytes sleeps to cap long-run rate.

    Models the bandwidth-capped storage link of the paper's experiments
    (and the autotune benchmark's "capped link" scenario) without touching
    sockets: every fetch charges its byte count, and the throttle sleeps
    the calling thread just long enough that the cumulative rate never
    exceeds ``bytes_per_s``.  Charges serialize on one shared ``ready_at``
    horizon — concurrent workers share the link, exactly like threads
    multiplexed over one physical pipe — and the induced delay lands in
    whatever stall accounting the caller already does.

    ``set_rate`` retargets (or, with ``None``, lifts) the cap mid-run: the
    lever the end-to-end control tests flip to make a steered fleet
    converge back up.
    """

    def __init__(self, bytes_per_s: float | None) -> None:
        self._lock = threading.Lock()
        self._rate = self._validated(bytes_per_s)
        self._ready_at = 0.0
        self.bytes_charged = 0
        self.seconds_slept = 0.0

    @staticmethod
    def _validated(bytes_per_s: float | None) -> float | None:
        if bytes_per_s is not None and bytes_per_s <= 0:
            raise ValueError("bytes_per_s must be positive (or None to uncap)")
        return bytes_per_s

    @property
    def bytes_per_s(self) -> float | None:
        with self._lock:
            return self._rate

    def set_rate(self, bytes_per_s: float | None) -> None:
        """Retarget the link cap (``None`` = uncapped) for subsequent charges."""
        rate = self._validated(bytes_per_s)
        with self._lock:
            self._rate = rate
            if rate is None:
                self._ready_at = 0.0

    def charge(self, n_bytes: int) -> float:
        """Account ``n_bytes`` against the link; returns the seconds slept."""
        if n_bytes <= 0:
            return 0.0
        now = time.monotonic()
        with self._lock:
            self.bytes_charged += n_bytes
            rate = self._rate
            if rate is None:
                return 0.0
            start = max(now, self._ready_at)
            self._ready_at = start + n_bytes / rate
            delay = self._ready_at - now
        if delay > 0:
            time.sleep(delay)
            with self._lock:
                self.seconds_slept += delay
            return delay
        return 0.0
