"""Loader-side half of the control loop: report telemetry, apply hints.

``AdaptiveScanGroupSource`` wraps any :class:`~repro.core.source.RecordSource`
whose fetcher can ``report_telemetry``
(:class:`~repro.serving.remote_source.RemoteRecordSource` or the sharded
variant) and closes the loop from the client side:

* at fetch boundaries, once per reporting window, it ships a
  :class:`~repro.control.telemetry.ClientTelemetry` report — the loader's
  stall split (from the bound :class:`~repro.pipeline.stall.StallTracker`),
  the window's byte/record/sample deltas, and the per-group bytes/sample
  profile from the first record index it sees — on the ``REPORT_TELEMETRY``
  wire op;
* the hint riding the ack is applied through the wrapped source's existing
  ``set_scan_group``, i.e. exactly at a batch boundary: the fetch that
  triggered the report completes at the old fidelity, every subsequent
  fetch runs at the steered one.

An optional :class:`~repro.pipeline.stall.BandwidthThrottle` models a
capped network link for experiments and the autotune benchmark: fetched
bytes are charged against the cap *in the worker thread*, so the induced
delay surfaces in the loader's own stall tracker the same way a slow real
link would.

``DataLoader.epoch()`` hands every source its stall tracker through
:meth:`bind_stall_tracker`, so wiring is one line::

    source = AdaptiveScanGroupSource(RemoteRecordSource(port=server.port))
    loader = DataLoader(source, config)
"""

from __future__ import annotations

import threading
import time
import uuid

from repro.control.telemetry import ClientTelemetry, ScanGroupHint
from repro.core.source import RecordSource
from repro.obs import get_registry
from repro.pipeline.stall import StallTracker

DEFAULT_REPORT_INTERVAL_SECONDS = 0.25


class AdaptiveScanGroupSource:
    """A remote source that reports telemetry and follows scan-group hints.

    Everything not defined here — structure, scan group, byte accounting —
    is the wrapped source's own member, reached through
    ``__getattr__``, so the wrapper cannot drift from ``RecordSource``.
    """

    def __init__(
        self,
        source: RecordSource,
        client_id: str | None = None,
        report_interval: float = DEFAULT_REPORT_INTERVAL_SECONDS,
        throttle=None,
    ) -> None:
        if not callable(getattr(source.fetcher, "report_telemetry", None)):
            raise TypeError(
                f"{type(source).__name__}'s fetcher ({type(source.fetcher).__name__}) cannot "
                "report_telemetry: adaptive control needs a served source, not a local dataset"
            )
        self.source = source
        self.client_id = (
            client_id if client_id is not None else f"loader-{uuid.uuid4().hex[:8]}"
        )
        self.report_interval = report_interval
        self.throttle = throttle
        self.stalls: StallTracker | None = None
        self.last_hint: ScanGroupHint | None = None
        self.reports_sent = 0
        self.hints_applied = 0
        self._report_lock = threading.Lock()
        self._throttle_lock = threading.Lock()
        self._throttle_charged = 0
        self._window_started = time.monotonic()
        self._window_base = self._usage_totals()
        self._bytes_per_sample: dict[int, float] | None = None

    def __getattr__(self, name: str):
        # Only reached for names this wrapper does not define.
        if name == "source":
            raise AttributeError(name)
        return getattr(self.source, name)

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self):
        for record_name in self.record_names:
            yield from self.read_record(record_name)

    # -- the loop's client side ----------------------------------------------

    def bind_stall_tracker(self, stalls: StallTracker) -> None:
        """Adopt the loader's stall tracker as the telemetry's wait/compute
        source.  ``DataLoader.epoch()`` calls this automatically."""
        self.stalls = stalls

    def read_record(self, record_name: str, decode: bool | None = None, decode_pool=None):
        samples = self.source.read_record(record_name, decode=decode, decode_pool=decode_pool)
        self._after_fetch()
        return samples

    def _usage_totals(self) -> tuple[int, int, int, float, float]:
        stats = self.source.stats
        stalls = self.stalls
        return (
            stats.bytes_read,
            stats.records_read,
            stats.samples_decoded,
            stalls.total_wait if stalls is not None else 0.0,
            stalls.total_compute if stalls is not None else 0.0,
        )

    def _after_fetch(self) -> None:
        if self.throttle is not None:
            # Charge this fetch's bytes against the simulated link in the
            # calling (worker) thread: the sleep shows up as loader wait,
            # exactly like a saturated real link.
            total = self.source.stats.bytes_read
            with self._throttle_lock:
                delta = total - self._throttle_charged
                self._throttle_charged = total
            if delta > 0:
                self.throttle.charge(delta)
        self._maybe_report()

    def _maybe_report(self) -> None:
        # One reporter at a time; concurrent workers skip instead of queueing
        # behind the round trip.
        if not self._report_lock.acquire(blocking=False):
            return
        try:
            if time.monotonic() - self._window_started >= self.report_interval:
                self.report_now()
        finally:
            self._report_lock.release()

    def _close_window(self) -> ClientTelemetry:
        """The totals accumulated since the last report, as one telemetry
        window; starts the next window."""
        base = self._window_base
        current = self._usage_totals()
        now = time.monotonic()
        window = max(now - self._window_started, 1e-9)
        self._window_started = now
        self._window_base = current
        return ClientTelemetry(
            client_id=self.client_id,
            scan_group=self.source.scan_group,
            n_groups=self.source.n_groups,
            window_seconds=window,
            wait_seconds=max(0.0, current[3] - base[3]),
            compute_seconds=max(0.0, current[4] - base[4]),
            bytes_read=current[0] - base[0],
            records_read=current[1] - base[1],
            samples=current[2] - base[2],
            bytes_per_sample_by_group=self._group_byte_profile(),
        )

    def report_now(self) -> ScanGroupHint | None:
        """Ship one report immediately and apply any hint that comes back.

        The report is the window accumulated since the last one; besides the
        time-based path, tests and the benchmark call this to force a report
        at an exact point in the workload.
        """
        telemetry = self._close_window()
        try:
            ack = self.source.fetcher.report_telemetry(telemetry.to_payload())
        except Exception:
            # Telemetry is best-effort: a dead or pre-control server must
            # never fail the fetch path that triggered the report.
            get_registry().counter("loader.telemetry.report_errors_total").inc()
            return None
        self.reports_sent += 1
        registry = get_registry()
        registry.counter("loader.telemetry.reports_total").inc()
        hint_payload = ack.get("hint") if isinstance(ack, dict) else None
        if not hint_payload:
            return None
        hint = ScanGroupHint.from_payload(hint_payload)
        self.last_hint = hint
        registry.counter("loader.telemetry.hints_received_total").inc()
        if hint.scan_group != self.source.scan_group:
            self.source.set_scan_group(hint.scan_group)
            self.hints_applied += 1
            registry.counter("loader.telemetry.hints_applied_total").inc()
        return hint

    def _group_byte_profile(self) -> dict[int, float]:
        """Mean bytes/sample at every scan group, from the first record index.

        PCR records in one dataset share their group geometry, so one
        index is a faithful per-group cost model for the whole dataset.
        """
        if self._bytes_per_sample is None:
            names = self.record_names
            if not names:
                return {}
            try:
                index = self.source.record_index(names[0])
            except Exception:
                return {}
            n_samples = max(1, index.n_samples)
            self._bytes_per_sample = {
                group: index.bytes_for_group(group) / n_samples
                for group in range(1, self.source.n_groups + 1)
            }
        return self._bytes_per_sample

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.source.close()

    def __enter__(self) -> "AdaptiveScanGroupSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
