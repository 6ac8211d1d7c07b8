"""An asyncio TCP server that serves PCR record prefixes over the network.

``PCRRecordServer`` wraps a :class:`~repro.core.reader.PCRReader` and answers
the wire protocol of :mod:`repro.serving.protocol`, serving every request it
can from the :class:`~repro.serving.cache.ScanPrefixCache`.

The network front end is one :mod:`asyncio` event loop on a daemon thread
rather than a thread per connection, so one replica sustains thousands of
concurrent sockets.  Each connection is an :class:`asyncio.Protocol`: an
incremental :class:`~repro.serving.protocol.FrameAssembler` on the read
side, and one ``transport.write`` of the replies to every frame a read
completed.  The transport buffers what the socket does not take; past
``backpressure_bytes`` buffered it pauses the protocol, which stops reading
that client until the buffer drains to half of that, so one slow client can
neither stall the loop nor balloon server memory.

Every number the server reports lives in one place, its
:class:`~repro.obs.MetricsRegistry`: counters are resolved once and
incremented where the event happens, ``GET_METRICS`` is a snapshot of the
registry and ``STAT`` is a view of the same counters.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
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


class _RecordProtocol(asyncio.Protocol):
    """One client connection: frames in, one write of their replies per read."""

    def __init__(self, server: "PCRRecordServer") -> None:
        self.server = server
        self.assembler = protocol.FrameAssembler(server.max_payload)
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        server = self.server
        self.transport = transport
        server._transports.add(transport)
        server._accepted.inc()
        if server.socket_buffer_bytes:
            sock = transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, server.socket_buffer_bytes)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, server.socket_buffer_bytes)
        transport.set_write_buffer_limits(
            high=server.backpressure_bytes, low=server.backpressure_bytes // 2
        )

    def data_received(self, data: bytes) -> None:
        server = self.server
        start = time.perf_counter()
        server._bytes_received.inc(len(data))
        error = None
        try:
            frames = self.assembler.feed(data)
        except ProtocolError as exc:
            frames, error = exc.frames, exc
        # Every reply parsed out of this read goes out in one write, so a
        # pipelined client gets its burst coalesced.  A malformed stream gets
        # what a blocking ``read_frame`` loop would give it: the replies to
        # the frames before the bad header, a ``malformed`` error, then EOF.
        replies = [server._dispatch(msg_type, payload) for msg_type, payload in frames]
        if error is not None:
            replies.append(server._error(protocol.ERR_MALFORMED, str(error)))
        if replies:
            self._write(b"".join(replies))
        if error is not None:
            self.transport.close()  # after the buffered replies are flushed
        server._iteration_seconds.observe(time.perf_counter() - start)

    def eof_received(self) -> None:
        if self.assembler.mid_frame:
            self._write(
                self.server._error(protocol.ERR_MALFORMED, "connection closed mid-frame")
            )
        # Returning None closes the transport once its buffer drains.

    def pause_writing(self) -> None:
        # The output buffer is over ``backpressure_bytes``: stop reading this
        # client until it drains to half of that.
        self.transport.pause_reading()
        self.server._backpressure_pauses.inc()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        self.server._backpressure_resumes.inc()

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._transports.discard(self.transport)
        self.server._closed.inc()
        self.transport = None

    def _write(self, data: bytes) -> None:
        self.transport.write(data)
        self.server._bytes_sent.inc(len(data))


class PCRRecordServer:
    """Serves a PCR dataset directory to remote readers over TCP.

    The server owns one shared :class:`PCRReader` and runs one asyncio event
    loop on a daemon thread; every client connection is a protocol on that
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
        self.registry = registry = MetricsRegistry()
        self.cache = ScanPrefixCache(capacity_bytes=cache_bytes, registry=registry)
        self._requests: dict[int, Counter] = {}  # per message type, on first use
        self._errors = registry.counter("serving.errors_total")
        self._accepted = registry.counter("serving.connections.accepted_total")
        self._closed = registry.counter("serving.connections.closed_total")
        self._backpressure_pauses = registry.counter("serving.backpressure.pauses_total")
        self._backpressure_resumes = registry.counter("serving.backpressure.resumes_total")
        # Written on every read and write, and only by the loop's thread.
        self._bytes_received = registry.counter("serving.bytes_received_total", locked=False)
        self._bytes_sent = registry.counter("serving.bytes_sent_total", locked=False)
        self._iteration_seconds = registry.histogram(
            "serving.loop.iteration_seconds", locked=False
        )
        self._transports: set[asyncio.Transport] = set()
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
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
        except BaseException:
            listener.close()
            if self._owns_reader:
                self.reader.close()
            raise
        self._listener = listener
        self._loop = asyncio.new_event_loop()

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
        return len(self._transports)

    def start(self) -> "PCRRecordServer":
        """Start serving on the event loop's background thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        loop = self._loop
        self._thread = threading.Thread(
            target=loop.run_forever, daemon=True, name=f"pcr-record-server:{self.port}"
        )
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            loop.create_server(
                lambda: _RecordProtocol(self), sock=self._listener, backlog=LISTEN_BACKLOG
            ),
            loop,
        ).result()
        return self

    def stop(self) -> None:
        """Gracefully stop: close the listener and every connection, end the loop.

        Established connections are aborted on the loop's thread — a
        persistent client blocked in ``recv`` sees EOF immediately instead of
        a hang.  Only after the loop has exited is the reader closed.
        """
        if self._stopped:
            return
        self._stopped = True
        loop = self._loop
        if self._thread is not None:
            asyncio.run_coroutine_threadsafe(self._close_all(), loop).result(timeout=5.0)
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=5.0)
        self._listener.close()
        loop.close()
        if self._owns_reader:
            self.reader.close()

    async def _close_all(self) -> None:
        """Stop accepting, let the accepts in flight make their connections,
        then close the listener and abort every connection."""
        # Not ``Server.close()`` first: an accepted socket whose transport is
        # not made yet would then fail to attach to the closed server and be
        # left open, unowned, until garbage collection.
        self._loop.remove_reader(self._listener)
        await asyncio.gather(
            *(asyncio.all_tasks() - {asyncio.current_task()}), return_exceptions=True
        )
        self._server.close()
        for transport in list(self._transports):
            transport.abort()
        await asyncio.sleep(0)  # their connection_lost callbacks run first

    def __enter__(self) -> "PCRRecordServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, msg_type: int, payload: bytes) -> bytes:
        """Map one request frame to its one response frame."""
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
                body = self.serve_record_bytes(request.record_name, request.scan_group)
                if len(body) > self.max_payload:
                    return self._error(
                        protocol.ERR_OVERSIZED,
                        f"record prefix of {len(body)} bytes exceeds the frame limit",
                    )
                # A prefix-cache hit is a memoryview: the frame copies it once.
                reply_type = MSG_RECORD_DATA
            elif msg_type == MSG_GET_INDEX:
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
                return self._error(
                    protocol.ERR_UNSUPPORTED, f"unknown request type 0x{msg_type:02x}"
                )
            return protocol.encode_frame(reply_type, body, self.max_payload)
        except ProtocolError as exc:
            return self._error(protocol.ERR_MALFORMED, str(exc))
        except ScanGroupError as exc:
            return self._error(protocol.ERR_BAD_SCAN_GROUP, str(exc))
        except PCRError as exc:
            return self._error(protocol.ERR_NOT_FOUND, str(exc))
        except Exception as exc:  # never let the event loop die on a request
            return self._error(protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}")

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
                "accepted_connections": self._accepted.value,
                "closed_connections": self._closed.value,
                "backpressure_pauses": self._backpressure_pauses.value,
            },
        }
