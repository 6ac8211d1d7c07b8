"""An event-loop TCP server that serves PCR record prefixes over the network.

``PCRRecordServer`` wraps a :class:`~repro.core.reader.PCRReader` and answers
the wire protocol of :mod:`repro.serving.protocol`, serving every request it
can from the :class:`~repro.serving.cache.ScanPrefixCache`.

The network front end is a non-blocking event loop on :mod:`selectors`
rather than a thread per connection, so one replica sustains thousands of
concurrent sockets:

* every connection is a small state machine — an incremental
  :class:`~repro.serving.protocol.FrameAssembler` on the read side, a queue
  of pending buffer segments on the write side;
* responses are *gather lists*: an 8-byte frame header plus a
  ``memoryview`` slice straight out of the scan-prefix cache, handed to
  ``socket.sendmsg`` without ever concatenating header and payload;
* write interest is toggled per connection, and a connection whose output
  queue exceeds ``backpressure_bytes`` stops being *read* until the peer
  drains it, so one slow client can neither stall the loop nor balloon
  server memory.

Every number the server reports lives in one place, its
:class:`~repro.obs.MetricsRegistry`: counters are resolved once and
incremented where the event happens, ``GET_METRICS`` is a snapshot of the
registry and ``STAT`` is a view of the same counters.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from pathlib import Path

from repro.core.errors import PCRError, ScanGroupError
from repro.core.reader import PCRReader, validate_scan_group
from repro.obs import Counter, MetricsRegistry
from repro.serving import protocol
from repro.serving.cache import DEFAULT_CACHE_BYTES, ScanPrefixCache
from repro.serving.protocol import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    MSG_DATASET_META,
    MSG_GET_INDEX,
    MSG_GET_METRICS,
    MSG_GET_RECORD,
    MSG_INDEX_DATA,
    MSG_META_DATA,
    MSG_METRICS_DATA,
    MSG_RECORD_DATA,
    MSG_STAT,
    MSG_STAT_DATA,
    ProtocolError,
    pack_json,
)

DEFAULT_BACKPRESSURE_BYTES = 8 * 1024 * 1024
LISTEN_BACKLOG = 1024

_RECV_BYTES = 256 * 1024

try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, OSError, ValueError):
    _IOV_MAX = 1024
# Cap the per-sendmsg gather list: IOV_MAX is the hard kernel limit, and
# beyond a few hundred segments list-building costs more than it saves.
_MAX_GATHER_SEGMENTS = max(16, min(_IOV_MAX, 512))

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


class _Connection:
    """Per-socket state machine: incremental parse in, gather-list out."""

    __slots__ = (
        "sock",
        "fd",
        "assembler",
        "out",
        "out_bytes",
        "close_after_flush",
        "paused",
        "interest",
        "open",
    )

    def __init__(self, sock: socket.socket, max_payload: int) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.assembler = protocol.FrameAssembler(max_payload)
        self.out: deque[memoryview] = deque()
        self.out_bytes = 0
        self.close_after_flush = False
        self.paused = False
        self.interest = selectors.EVENT_READ
        self.open = True

    def queue(self, segments) -> None:
        """Append response buffer segments to the pending gather list."""
        for segment in segments:
            view = segment if isinstance(segment, memoryview) else memoryview(segment)
            if not len(view):
                continue
            self.out.append(view)
            self.out_bytes += len(view)

    def consume(self, n_sent: int) -> None:
        """Advance the gather list past ``n_sent`` transmitted bytes."""
        self.out_bytes -= n_sent
        out = self.out
        while n_sent:
            head = out[0]
            if n_sent >= len(head):
                n_sent -= len(head)
                out.popleft()
            else:
                out[0] = head[n_sent:]
                return


class _EventLoop:
    """The selector thread: accepts, reads, dispatches, writes."""

    def __init__(self, server: "PCRRecordServer") -> None:
        self.server = server
        self.selector = selectors.DefaultSelector()
        self.connections: dict[int, _Connection] = {}
        self.thread: threading.Thread | None = None
        registry = server.registry
        self.accepted = registry.counter("serving.connections.accepted_total")
        self.closed = registry.counter("serving.connections.closed_total")
        self.backpressure_pauses = registry.counter("serving.backpressure.pauses_total")
        self.backpressure_resumes = registry.counter("serving.backpressure.resumes_total")
        # Written on every wakeup, recv and send, and only by this loop's thread.
        self.bytes_received = registry.counter("serving.bytes_received_total", locked=False)
        self.bytes_sent = registry.counter("serving.bytes_sent_total", locked=False)
        self.iteration_seconds = registry.histogram(
            "serving.loop.iteration_seconds", locked=False
        )
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, "wake")

    def wake(self) -> None:
        """Interrupt ``select`` from another thread (``stop`` does)."""
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a wake is already pending, or the loop is tearing down

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        stop = self.server._stop_event
        perf_counter = time.perf_counter
        observe = self.iteration_seconds.observe
        try:
            while not stop.is_set():
                events = self.selector.select(timeout=0.2)
                if not events:
                    # Idle selector timeouts are not timed: the histogram
                    # measures how long the loop spends servicing ready
                    # sockets, not how long it sleeps waiting for them.
                    continue
                iteration_start = perf_counter()
                for key, mask in events:
                    data = key.data
                    if data == "wake":
                        self._drain_wake()
                    elif data == "listener":
                        self._accept_ready()
                    else:
                        conn: _Connection = data
                        if mask & selectors.EVENT_WRITE and conn.open:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ and conn.open:
                            self._read(conn)
                observe(perf_counter() - iteration_start)
        finally:
            self._teardown()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _teardown(self) -> None:
        for conn in list(self.connections.values()):
            self._close(conn)
        try:
            self.selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._wake_r.close()
        self._wake_w.close()
        self.selector.close()

    # -- accept ----------------------------------------------------------------

    def _accept_ready(self) -> None:
        server = self.server
        while True:
            try:
                sock, _ = server._listener.accept()
            except OSError:
                return  # nothing left to accept, or the listener closed during shutdown
            server._configure_socket(sock)
            conn = _Connection(sock, server.max_payload)
            self.connections[conn.fd] = conn
            self.selector.register(sock, selectors.EVENT_READ, conn)
            self.accepted.inc()

    # -- read side -------------------------------------------------------------

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            if conn.assembler.mid_frame:
                self._fail(conn, "connection closed mid-frame")
            else:
                self._close(conn)
            return
        self.bytes_received.inc(len(data))
        error = None
        try:
            frames = conn.assembler.feed(data)
        except ProtocolError as exc:
            frames, error = exc.frames, exc
        # Queue every response parsed out of this recv, then flush once:
        # a pipelined client gets its whole response burst coalesced into
        # as few sendmsg gather calls as the socket buffer allows.
        for msg_type, payload in frames:
            conn.queue(self.server._dispatch_segments(msg_type, payload))
        if error is not None:
            self._fail(conn, str(error))
        elif frames:
            self._flush(conn)

    def _fail(self, conn: _Connection, message: str) -> None:
        """Mirror the blocking ``read_frame`` contract on a malformed stream:
        whatever was queued, then a ``malformed`` error frame, then close."""
        conn.queue([self.server._error(protocol.ERR_MALFORMED, message)])
        conn.close_after_flush = True
        self._flush(conn)

    # -- write side ------------------------------------------------------------

    def _flush(self, conn: _Connection) -> None:
        sock = conn.sock
        out = conn.out
        while out:
            try:
                if _HAS_SENDMSG:
                    if len(out) <= _MAX_GATHER_SEGMENTS:
                        n_sent = sock.sendmsg(out)
                    else:
                        n_sent = sock.sendmsg(
                            [out[i] for i in range(_MAX_GATHER_SEGMENTS)]
                        )
                else:  # pragma: no cover - non-sendmsg platforms
                    n_sent = sock.send(out[0])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(conn)
                return
            if n_sent == 0:
                break
            conn.consume(n_sent)
            self.bytes_sent.inc(n_sent)
        if not out:
            if conn.close_after_flush:
                self._close(conn)
                return
            self._set_interest(conn, selectors.EVENT_READ)
            if conn.paused:
                conn.paused = False
                self.backpressure_resumes.inc()
        else:
            interest = selectors.EVENT_WRITE
            high_water = self.server.backpressure_bytes
            if conn.out_bytes > high_water:
                if not conn.paused:
                    conn.paused = True
                    self.backpressure_pauses.inc()
            elif conn.paused and conn.out_bytes <= high_water // 2:
                conn.paused = False
                self.backpressure_resumes.inc()
            if not conn.paused and not conn.close_after_flush:
                interest |= selectors.EVENT_READ
            self._set_interest(conn, interest)

    def _set_interest(self, conn: _Connection, interest: int) -> None:
        if conn.interest == interest:
            return
        try:
            self.selector.modify(conn.sock, interest, conn)
            conn.interest = interest
        except (KeyError, ValueError, OSError):
            self._close(conn)

    # -- lifecycle -------------------------------------------------------------

    def _close(self, conn: _Connection) -> None:
        if not conn.open:
            return
        conn.open = False
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self.connections.pop(conn.fd, None)
        conn.out.clear()
        conn.out_bytes = 0
        self.closed.inc()


class PCRRecordServer:
    """Serves a PCR dataset directory to remote readers over TCP.

    The server owns one shared :class:`PCRReader` and runs one event-loop
    thread; every client connection is a non-blocking state machine on that
    loop, and all connections share the scan-prefix cache.  To use more
    cores, run more replicas (:mod:`repro.serving.cluster`).

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with PCRRecordServer(dataset_dir, port=0) as server:
            client = PCRClient(port=server.port)
            ...
    """

    def __init__(
        self,
        dataset: str | Path | PCRReader | object,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
        backpressure_bytes: int = DEFAULT_BACKPRESSURE_BYTES,
        socket_buffer_bytes: int | None = None,
    ) -> None:
        if isinstance(dataset, (str, Path, os.PathLike)):
            self.reader = PCRReader(dataset, decode=False)
            self._owns_reader = True
        else:
            # A PCRReader or any reader-shaped view (e.g. the cluster's
            # ShardViewReader); its owner is responsible for closing it.
            self.reader = dataset
            self._owns_reader = False
        self.host = host
        self.max_payload = max_payload
        self.backpressure_bytes = backpressure_bytes
        self.socket_buffer_bytes = socket_buffer_bytes
        # Per-instance registry, not the process default: cluster tests run
        # many replicas in one process and each replica's GET_METRICS must
        # report only its own traffic.  ``registry.set_enabled(False)``
        # switches every serving number off, STAT's included.
        self.registry = MetricsRegistry()
        self.cache = ScanPrefixCache(capacity_bytes=cache_bytes, registry=self.registry)
        self._requests: dict[int, Counter] = {}  # per message type, on first use
        self._errors = self.registry.counter("serving.errors_total")
        self._stop_event = threading.Event()
        self._started = False
        self._stopped = False
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if socket_buffer_bytes:
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, socket_buffer_bytes
                )
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, socket_buffer_bytes
                )
            listener.bind((host, port))
            listener.listen(LISTEN_BACKLOG)
            listener.setblocking(False)
        except BaseException:
            listener.close()
            if self._owns_reader:
                self.reader.close()
            raise
        self._listener = listener
        self._loop = _EventLoop(self)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with port=0)."""
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def open_connections(self) -> int:
        """Live client connections."""
        return len(self._loop.connections)

    def _configure_socket(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass
        if self.socket_buffer_bytes:
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, self.socket_buffer_bytes
                )
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.socket_buffer_bytes
                )
            except OSError:  # pragma: no cover
                pass

    def start(self) -> "PCRRecordServer":
        """Start the event loop on a background thread."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        loop = self._loop
        loop.selector.register(self._listener, selectors.EVENT_READ, "listener")
        loop.thread = threading.Thread(
            target=loop.run, daemon=True, name=f"pcr-record-server:{self.port}"
        )
        loop.thread.start()
        return self

    def stop(self) -> None:
        """Gracefully stop: wake the loop, close every connection, unbind.

        Established connections are closed by the loop during teardown — a
        persistent client blocked in ``recv`` sees EOF immediately instead
        of a hang.  Only after the loop has exited is the reader closed.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        loop = self._loop
        loop.wake()
        if loop.thread is not None:
            loop.thread.join(timeout=5.0)
            loop.thread = None
        try:
            self._listener.close()
        except OSError:
            pass
        if not self._started:
            # A never-started loop still holds its waker socketpair.
            loop._teardown()
        if self._owns_reader:
            self.reader.close()

    def __enter__(self) -> "PCRRecordServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_segments(self, msg_type: int, payload: bytes) -> list:
        """Map one request frame to a response *gather list*.

        The list holds buffer segments (header ``bytes`` + payload
        ``memoryview``/``bytes``) that, concatenated, form one complete
        response frame — the event loop hands them to ``sendmsg`` as-is,
        so cache bytes reach the socket without an intermediate copy.
        """
        requests = self._requests.get(msg_type)
        if requests is None:
            name = protocol.MESSAGE_NAMES.get(msg_type, f"op_0x{msg_type:02x}")
            # Only the loop thread dispatches, so it is the one writer.
            requests = self._requests[msg_type] = self.registry.counter(
                f"serving.requests.{name}_total", locked=False
            )
        requests.inc()
        try:
            if msg_type == MSG_GET_RECORD:
                request = protocol.unpack_record_request(payload)
                return self._record_segments(request)
            if msg_type == MSG_GET_INDEX:
                request = protocol.unpack_record_request(payload)
                index = self.reader.record_index(request.record_name)
                reply_type, body = MSG_INDEX_DATA, index.to_json().encode("utf-8")
            elif msg_type == MSG_STAT:
                reply_type, body = MSG_STAT_DATA, pack_json(self.stats())
            elif msg_type == MSG_DATASET_META:
                reply_type, body = MSG_META_DATA, pack_json(self._dataset_meta())
            elif msg_type == MSG_GET_METRICS:
                reply_type, body = MSG_METRICS_DATA, pack_json(self.metrics_snapshot())
            else:
                return [
                    self._error(
                        protocol.ERR_UNSUPPORTED, f"unknown request type 0x{msg_type:02x}"
                    )
                ]
            return [protocol.encode_frame(reply_type, body, self.max_payload)]
        except ProtocolError as exc:
            return [self._error(protocol.ERR_MALFORMED, str(exc))]
        except ScanGroupError as exc:
            return [self._error(protocol.ERR_BAD_SCAN_GROUP, str(exc))]
        except PCRError as exc:
            return [self._error(protocol.ERR_NOT_FOUND, str(exc))]
        except Exception as exc:  # never let the event loop die on a request
            return [self._error(protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}")]

    def _record_segments(self, request: protocol.RecordRequest) -> list:
        """``[header, payload-view]`` for one record, or ``[error-frame]``."""
        data = self.serve_record_bytes(request.record_name, request.scan_group)
        if len(data) > self.max_payload:
            return [
                self._error(
                    protocol.ERR_OVERSIZED,
                    f"record prefix of {len(data)} bytes exceeds the frame limit",
                )
            ]
        return [
            protocol.encode_header(MSG_RECORD_DATA, len(data), self.max_payload),
            data,
        ]

    def _error(self, code: int, message: str) -> bytes:
        """The one place an ``ERROR`` frame is built, so the one place it is counted."""
        self._errors.inc()
        return protocol.error_frame(code, message)

    # -- serving -------------------------------------------------------------

    def serve_record_bytes(self, record_name: str, scan_group: int):
        """Record prefix at ``scan_group``, from cache when containment allows.

        Returns ``bytes`` on a miss or exact-length hit and a zero-copy
        ``memoryview`` on a prefix-containment hit.
        """
        validate_scan_group(scan_group, self.reader.n_groups)
        length = self.reader.bytes_for_group(record_name, scan_group)
        cached = self.cache.get(record_name, scan_group, length)
        if cached is not None:
            return cached
        data = self.reader.read_record_bytes(record_name, scan_group)
        self.cache.put(record_name, scan_group, data)
        return data

    def _dataset_meta(self) -> dict:
        return {
            "dataset": self.reader.dataset_meta,
            "n_groups": self.reader.n_groups,
            "n_samples": self.reader.n_samples,
            "record_names": self.reader.record_names,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "max_payload_bytes": self.max_payload,
        }

    def metrics_snapshot(self) -> dict:
        """The ``GET_METRICS`` response body: one registry snapshot.

        Counters are already current — the registry is where they are
        counted.  Gauges that describe state (cache size, open connections)
        are set here, so the snapshot is self-contained — a scraper needs no
        second round-trip to ``STAT``.
        """
        registry = self.registry
        registry.gauge("serving.cache.entries").set(len(self.cache))
        registry.gauge("serving.cache.cached_bytes").set(self.cache.cached_bytes)
        registry.gauge("serving.connections.open").set(self.open_connections)
        return {
            "address": list(self.address),
            "pid": os.getpid(),
            "metrics_enabled": registry.enabled,
            "registry": registry.snapshot(),
        }

    def stats(self) -> dict:
        """The ``STAT`` response body: a view of the registry's serving counters."""
        # dict() snapshots: the loop thread may be adding a first-seen type.
        requests = {t: c.value for t, c in sorted(dict(self._requests).items())}
        loop = self._loop
        return {
            "address": list(self.address),
            "requests_by_type": {f"0x{t:02x}": n for t, n in requests.items()},
            "n_requests": sum(requests.values()),
            "errors": self._errors.value,
            "reader_bytes_read": self.reader.stats.bytes_read,
            "reader_records_read": self.reader.stats.records_read,
            "cache": self.cache.stats(),
            "event_loop": {
                "open_connections": self.open_connections,
                "accepted_connections": loop.accepted.value,
                "closed_connections": loop.closed.value,
                "backpressure_pauses": loop.backpressure_pauses.value,
            },
        }
