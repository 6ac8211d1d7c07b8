"""Client telemetry reports and scan-group hints — the control loop's wire data.

``ClientTelemetry`` is what a loader-side client measures over one reporting
window and ships to its record server on a ``REPORT_TELEMETRY`` frame: the
stall fraction of its training loop, the bytes/samples it consumed, and the
scan group those measurements were taken at.  ``ScanGroupHint`` is what
comes back on the ``TELEMETRY_ACK``: the controller's current fidelity
recommendation for that client, with the rationale attached.

``TelemetryStore`` is the server-side meeting point: the event loop writes
the latest report per client, the :class:`~repro.control.controller.
FidelityController` thread reads them and writes hints back.  All payloads
are plain JSON dicts so they ride the existing JSON framing of the wire
protocol and survive snapshot merging unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: Reports older than this are dropped from :meth:`TelemetryStore.latest` —
#: a client that stopped reporting (finished training, crashed) must not be
#: steered forever on its last words.
DEFAULT_MAX_REPORT_AGE_SECONDS = 30.0


@dataclass(frozen=True)
class ClientTelemetry:
    """One reporting window of loader-side measurements for one client."""

    client_id: str
    scan_group: int
    n_groups: int
    window_seconds: float = 0.0
    wait_seconds: float = 0.0
    compute_seconds: float = 0.0
    bytes_read: int = 0
    records_read: int = 0
    samples: int = 0
    #: Mean compressed bytes one sample costs at each scan group, measured
    #: from a record index — what the bandwidth-budget policy projects with.
    bytes_per_sample_by_group: dict[int, float] = field(default_factory=dict)
    #: Server-side receive time (``time.monotonic`` of the *server* process),
    #: stamped by :meth:`TelemetryStore.update`, not the client.
    received_at: float = 0.0

    @property
    def stall_fraction(self) -> float:
        """Fraction of the window's wall time the training loop spent waiting."""
        busy = self.wait_seconds + self.compute_seconds
        return self.wait_seconds / busy if busy else 0.0

    @property
    def throughput_bytes_per_s(self) -> float:
        """Demonstrated link throughput over the window."""
        return self.bytes_read / self.window_seconds if self.window_seconds else 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.window_seconds if self.window_seconds else 0.0

    def to_payload(self) -> dict:
        return {
            "client_id": self.client_id,
            "scan_group": self.scan_group,
            "n_groups": self.n_groups,
            "window_seconds": self.window_seconds,
            "wait_seconds": self.wait_seconds,
            "compute_seconds": self.compute_seconds,
            "bytes_read": self.bytes_read,
            "records_read": self.records_read,
            "samples": self.samples,
            "bytes_per_sample_by_group": {
                str(group): value
                for group, value in self.bytes_per_sample_by_group.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClientTelemetry":
        return cls(
            client_id=str(payload["client_id"]),
            scan_group=int(payload["scan_group"]),
            n_groups=int(payload["n_groups"]),
            window_seconds=float(payload.get("window_seconds", 0.0)),
            wait_seconds=float(payload.get("wait_seconds", 0.0)),
            compute_seconds=float(payload.get("compute_seconds", 0.0)),
            bytes_read=int(payload.get("bytes_read", 0)),
            records_read=int(payload.get("records_read", 0)),
            samples=int(payload.get("samples", 0)),
            bytes_per_sample_by_group={
                int(group): float(value)
                for group, value in payload.get("bytes_per_sample_by_group", {}).items()
            },
        )


@dataclass(frozen=True)
class ScanGroupHint:
    """The controller's current fidelity recommendation for one client."""

    scan_group: int
    reason: str = ""
    decision_id: int = 0

    def to_payload(self) -> dict:
        return {
            "scan_group": self.scan_group,
            "reason": self.reason,
            "decision_id": self.decision_id,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ScanGroupHint":
        return cls(
            scan_group=int(payload["scan_group"]),
            reason=str(payload.get("reason", "")),
            decision_id=int(payload.get("decision_id", 0)),
        )


class TelemetryStore:
    """Latest telemetry per client, and the hints published back to them.

    The event-loop thread calls :meth:`update` on every ``REPORT_TELEMETRY``
    frame; the controller thread calls :meth:`latest` and :meth:`set_hint`.
    Both sides take one short lock — there is no per-request allocation
    beyond the parsed report itself.
    """

    def __init__(self, max_report_age: float = DEFAULT_MAX_REPORT_AGE_SECONDS) -> None:
        self.max_report_age = max_report_age
        #: Set by the :class:`~repro.control.controller.ControlPlane` that
        #: polls this store; the ack's ``controller_active`` reports it.
        self.steered = False
        self._lock = threading.Lock()
        self._reports: dict[str, ClientTelemetry] = {}
        self._hints: dict[str, ScanGroupHint] = {}

    def update(self, telemetry: ClientTelemetry) -> ScanGroupHint | None:
        """Store one report; returns the hint currently standing for the client."""
        stamped = ClientTelemetry(
            **{**telemetry.__dict__, "received_at": time.monotonic()}
        )
        with self._lock:
            self._reports[telemetry.client_id] = stamped
            return self._hints.get(telemetry.client_id)

    def latest(self) -> dict[str, ClientTelemetry]:
        """Fresh reports per client (stale clients pruned, copies returned)."""
        horizon = time.monotonic() - self.max_report_age
        with self._lock:
            stale = [
                client_id
                for client_id, report in self._reports.items()
                if report.received_at < horizon
            ]
            for client_id in stale:
                del self._reports[client_id]
                self._hints.pop(client_id, None)
            return dict(self._reports)

    def set_hint(self, client_id: str, hint: ScanGroupHint | None) -> None:
        with self._lock:
            if hint is None:
                self._hints.pop(client_id, None)
            else:
                self._hints[client_id] = hint

    def hint_for(self, client_id: str) -> ScanGroupHint | None:
        with self._lock:
            return self._hints.get(client_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)
