"""Loader-side half of the control loop: report telemetry, apply hints.

``AdaptiveScanGroupHook`` is a :class:`~repro.pipeline.loader.LoaderHook`
for a ``DataLoader`` over any source whose fetcher can ``report_telemetry``
(:class:`~repro.serving.remote_source.RemoteRecordSource` or the sharded
variant), and closes the loop from the client side:

* after each record read, once per reporting window, it ships a
  :class:`~repro.control.telemetry.ClientTelemetry` report — the loader's
  stall split (from the loader's
  :class:`~repro.pipeline.stall.StallTracker`), the window's
  byte/record/sample deltas, and the per-group bytes/sample profile from the
  first record index it sees — on the ``REPORT_TELEMETRY`` wire op;
* the hint riding the ack is applied through the loader's
  ``set_scan_group``, i.e. exactly at a record boundary: the read that
  triggered the report completes at the old fidelity, every subsequent read
  runs at the steered one.

An optional :class:`~repro.pipeline.stall.BandwidthThrottle` models a
capped network link for experiments and the autotune benchmark: fetched
bytes are charged against the cap *in the reader thread*, so the induced
delay surfaces in the loader's own stall tracker the same way a slow real
link would.

Wiring is one argument::

    source = RemoteRecordSource(port=server.port)
    loader = DataLoader(source, config, hook=AdaptiveScanGroupHook())
"""

from __future__ import annotations

import threading
import time
import uuid

from repro.control.telemetry import ClientTelemetry, ScanGroupHint
from repro.obs import get_registry

DEFAULT_REPORT_INTERVAL_SECONDS = 0.25


class AdaptiveScanGroupHook:
    """Reports one loader's telemetry and steers its scan group by hints."""

    def __init__(
        self,
        client_id: str | None = None,
        report_interval: float = DEFAULT_REPORT_INTERVAL_SECONDS,
        throttle=None,
    ) -> None:
        self.client_id = (
            client_id if client_id is not None else f"loader-{uuid.uuid4().hex[:8]}"
        )
        self.report_interval = report_interval
        self.throttle = throttle
        self.loader = None
        self.last_hint: ScanGroupHint | None = None
        self.reports_sent = 0
        self.hints_applied = 0
        self._report_lock = threading.Lock()
        self._throttle_lock = threading.Lock()
        self._bytes_per_sample: dict[int, float] | None = None

    def bind(self, loader) -> None:
        """Attach to ``loader``; its ``DataLoader`` constructor calls this."""
        source = loader.dataset
        if not callable(getattr(source.fetcher, "report_telemetry", None)):
            raise TypeError(
                f"{type(source).__name__}'s fetcher ({type(source.fetcher).__name__}) cannot "
                "report_telemetry: adaptive control needs a served source, not a local dataset"
            )
        if self.loader is not None:
            raise ValueError(f"hook {self.client_id!r} already steers another loader")
        self.loader = loader
        self._throttle_charged = source.stats.bytes_read
        self._window_started = time.monotonic()
        self._window_base = self._usage_totals()

    # -- the loop's client side ----------------------------------------------

    def after_read(self) -> None:
        if self.throttle is not None:
            # Charge this read's bytes against the simulated link in the
            # calling (reader) thread: the sleep shows up as loader wait,
            # exactly like a saturated real link.
            total = self.loader.dataset.stats.bytes_read
            with self._throttle_lock:
                delta = total - self._throttle_charged
                self._throttle_charged = total
            if delta > 0:
                self.throttle.charge(delta)
        # One reporter at a time; concurrent readers skip instead of queueing
        # behind the round trip.
        if not self._report_lock.acquire(blocking=False):
            return
        try:
            if time.monotonic() - self._window_started >= self.report_interval:
                self.report_now()
        finally:
            self._report_lock.release()

    def _usage_totals(self) -> tuple[int, int, int, float, float]:
        stats = self.loader.dataset.stats
        stalls = self.loader.stalls
        return (
            stats.bytes_read,
            stats.records_read,
            stats.samples_decoded,
            stalls.total_wait,
            stalls.total_compute,
        )

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
            scan_group=self.loader.scan_group,
            n_groups=self.loader.dataset.n_groups,
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
            ack = self.loader.dataset.fetcher.report_telemetry(telemetry.to_payload())
        except Exception:
            # Telemetry is best-effort: a dead or pre-control server must
            # never fail the read that triggered the report.
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
        if hint.scan_group != self.loader.scan_group:
            self.loader.set_scan_group(hint.scan_group)
            self.hints_applied += 1
            registry.counter("loader.telemetry.hints_applied_total").inc()
        return hint

    def _group_byte_profile(self) -> dict[int, float]:
        """Mean bytes/sample at every scan group, from the first record index.

        PCR records in one dataset share their group geometry, so one
        index is a faithful per-group cost model for the whole dataset.
        """
        if self._bytes_per_sample is None:
            source = self.loader.dataset
            names = source.record_names
            if not names:
                return {}
            try:
                index = source.record_index(names[0])
            except Exception:
                return {}
            n_samples = max(1, index.n_samples)
            self._bytes_per_sample = {
                group: index.bytes_for_group(group) / n_samples
                for group in range(1, source.n_groups + 1)
            }
        return self._bytes_per_sample
