"""Connection-pooled client for :class:`~repro.serving.server.PCRRecordServer`.

The client keeps a small pool of TCP connections so concurrent callers
(e.g. ``DataLoader`` worker threads sharing one
:class:`~repro.serving.remote_source.RemoteRecordSource`) never serialize on
a single socket.  The one read verb is :meth:`PCRClient.get_record_bytes`:
a record is the batching unit, so a loader worker's read is one
``GET_RECORD`` round trip.

Connections are re-established transparently: a send/receive that fails
with a connection error (stale pooled socket, server restart) is retried
once on a fresh connection before the error is surfaced.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Protocol, runtime_checkable

from repro.core.index import RecordIndex
from repro.serving import protocol
from repro.serving.protocol import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    MSG_DATASET_META,
    MSG_ERROR,
    MSG_GET_INDEX,
    MSG_GET_METRICS,
    MSG_GET_RECORD,
    MSG_INDEX_DATA,
    MSG_META_DATA,
    MSG_METRICS_DATA,
    MSG_RECORD_DATA,
    MSG_REPORT_TELEMETRY,
    MSG_STAT,
    MSG_STAT_DATA,
    MSG_TELEMETRY_ACK,
    ProtocolError,
    RecordRequest,
)

DEFAULT_POOL_SIZE = 4
DEFAULT_TIMEOUT_SECONDS = 30.0


@runtime_checkable
class RecordClient(Protocol):
    """The wire-client surface a ``RemoteFetcher`` reads through.

    Satisfied by :class:`PCRClient` (one server) and
    :class:`~repro.serving.cluster.client.ClusterClient` (a sharded fleet).
    """

    def dataset_meta(self) -> dict: ...

    def get_index(self, record_name: str) -> RecordIndex: ...

    def get_record_bytes(self, record_name: str, scan_group: int) -> bytes: ...

    def report_telemetry(self, report: dict) -> dict: ...

    def close(self) -> None: ...


class PCRClient:
    """A pooled, reconnecting client for the PCR record server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
        retries: int = 1,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_payload = max_payload
        self.retries = retries
        self._pool_size = pool_size
        self._pool: queue.LifoQueue[socket.socket] = queue.LifoQueue()
        self._n_open = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- connection pool -----------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        # NODELAY on every client socket: a request frame must hit the wire
        # immediately instead of waiting out Nagle against the server's
        # delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _acquire(self) -> socket.socket:
        if self._closed:
            raise RuntimeError("client is closed")
        try:
            return self._pool.get_nowait()
        except queue.Empty:
            pass
        with self._lock:
            may_open = self._n_open < self._pool_size
            if may_open:
                self._n_open += 1
        if may_open:
            try:
                return self._connect()
            except BaseException:
                with self._lock:
                    self._n_open -= 1
                raise
        # Pool exhausted: wait for a connection to come back.
        return self._pool.get(timeout=self.timeout)

    def _release(self, sock: socket.socket) -> None:
        if self._closed:
            self._discard(sock)
        else:
            self._pool.put(sock)

    def _discard(self, sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass
        with self._lock:
            self._n_open -= 1

    def _purge_pool(self) -> None:
        """Drop every idle pooled connection.

        Called when a pooled socket turns out to be dead (server restart):
        its idle siblings were established against the same peer and share
        its fate, so discarding them all at once keeps one retry sufficient
        regardless of pool size.
        """
        while True:
            try:
                sock = self._pool.get_nowait()
            except queue.Empty:
                return
            self._discard(sock)

    # -- request plumbing ----------------------------------------------------

    def _request(self, msg_type: int, payload: bytes, expected_type: int) -> bytes:
        """One round trip with retry-on-reconnect; returns the response payload."""
        # Encoded before a socket is acquired: a payload over the frame limit
        # is the caller's error (``FrameTooLargeError``), not a dead server.
        request = protocol.encode_frame(msg_type, payload, self.max_payload)
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                sock = self._acquire()
            except (OSError, queue.Empty) as exc:
                last_error = exc
                continue
            try:
                sock.sendall(request)
                frame = protocol.read_frame(sock, self.max_payload)
                if frame is None:
                    raise ProtocolError("server closed the connection before responding")
            except (OSError, ProtocolError) as exc:
                # Stale pooled socket or a restarted server: drop this
                # connection and its idle siblings, then retry on a fresh one.
                self._discard(sock)
                self._purge_pool()
                last_error = exc
                continue
            self._release(sock)
            response_type, response_payload = frame
            if response_type == MSG_ERROR:
                raise protocol.unpack_error(response_payload)
            if response_type != expected_type:
                raise ProtocolError(
                    f"expected response type 0x{expected_type:02x}, "
                    f"got 0x{response_type:02x}"
                )
            return response_payload
        raise ConnectionError(
            f"request to {self.host}:{self.port} failed after "
            f"{self.retries + 1} attempts: {last_error}"
        ) from last_error

    # -- public API ----------------------------------------------------------

    def get_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """Fetch one record's byte prefix at ``scan_group``."""
        payload = protocol.pack_record_request(RecordRequest(record_name, scan_group))
        return self._request(MSG_GET_RECORD, payload, MSG_RECORD_DATA)

    def get_index(self, record_name: str) -> RecordIndex:
        """Fetch the offset index of one record."""
        payload = protocol.pack_record_request(RecordRequest(record_name, 0))
        body = self._request(MSG_GET_INDEX, payload, MSG_INDEX_DATA)
        return RecordIndex.from_json(body.decode("utf-8"))

    def stat(self) -> dict:
        """Fetch the server's live statistics (cache counters included)."""
        return protocol.unpack_json(self._request(MSG_STAT, b"", MSG_STAT_DATA))

    def metrics(self) -> dict:
        """Scrape the server's metrics registry (``GET_METRICS``).

        Returns ``{"address", "pid", "metrics_enabled", "registry"}`` where
        ``registry`` is a :meth:`~repro.obs.MetricsRegistry.snapshot` dict —
        mergeable across replicas with :func:`repro.obs.merge_snapshots`.
        """
        return protocol.unpack_json(
            self._request(MSG_GET_METRICS, b"", MSG_METRICS_DATA)
        )

    def report_telemetry(self, report: dict) -> dict:
        """Ship one loader-telemetry report; returns the server's ack.

        The ack is ``{"controller_active": bool, "hint": {...} | None}`` —
        when a fidelity controller is steering this client, ``hint`` carries
        its current scan-group recommendation and rationale (see
        :mod:`repro.control.telemetry`).
        """
        return protocol.unpack_json(
            self._request(
                MSG_REPORT_TELEMETRY, protocol.pack_json(report), MSG_TELEMETRY_ACK
            )
        )

    def dataset_meta(self) -> dict:
        """Fetch dataset-level metadata: groups, sample count, record names."""
        return protocol.unpack_json(self._request(MSG_DATASET_META, b"", MSG_META_DATA))

    def close(self) -> None:
        """Close every pooled connection."""
        self._closed = True
        while True:
            try:
                sock = self._pool.get_nowait()
            except queue.Empty:
                break
            self._discard(sock)

    def __enter__(self) -> "PCRClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
