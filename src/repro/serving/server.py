"""An event-loop TCP server that serves PCR record prefixes over the network.

``PCRRecordServer`` wraps a :class:`~repro.core.reader.PCRReader` and answers
the wire protocol of :mod:`repro.serving.protocol`.  Its cache exploits the
defining property of the PCR layout: the bytes a reader needs at scan group
*k* are a strict prefix of the bytes it needs at any group *g ≥ k*.  The
cache therefore keys entries by record and remembers the *highest* group it
has seen for each; any request at a lower group is served by slicing the
cached prefix (a *prefix-containment hit*) without touching storage.

The network front end is a non-blocking event loop on :mod:`selectors`
rather than a thread per connection, so one replica sustains thousands of
concurrent sockets:

* every connection is a small state machine — an incremental
  :class:`~repro.serving.protocol.FrameAssembler` on the read side, a queue
  of pending buffer segments on the write side;
* responses are *gather lists*: an 8-byte frame header plus a
  ``memoryview`` slice straight out of the scan-prefix cache, handed to
  ``socket.sendmsg`` without ever concatenating header and payload (and a
  ``BATCH`` response is one gather list across all its sub-frames — no
  intermediate joins);
* write interest is toggled per connection, and a connection whose output
  queue exceeds ``backpressure_bytes`` stops being *read* until the peer
  drains it, so one slow client can neither stall the loop nor balloon
  server memory;
* ``n_loops > 1`` runs several independent loops with round-robin accept
  handoff (the cache then re-enables its internal locking).
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import threading
import time
from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path

from repro.control.telemetry import ClientTelemetry, TelemetryStore
from repro.core.errors import PCRError, ScanGroupError
from repro.core.reader import PCRReader, validate_scan_group
from repro.obs import MetricsRegistry
from repro.serving import protocol
from repro.serving.protocol import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    MSG_BATCH,
    MSG_BATCH_DATA,
    MSG_DATASET_META,
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
)

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024
DEFAULT_BACKPRESSURE_BYTES = 8 * 1024 * 1024
LISTEN_BACKLOG = 1024

LOOP_HISTOGRAM_NAME = "serving.loop.iteration_seconds"

_RECV_BYTES = 256 * 1024

try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, OSError, ValueError):
    _IOV_MAX = 1024
# Cap the per-sendmsg gather list: IOV_MAX is the hard kernel limit, and
# beyond a few hundred segments list-building costs more than it saves.
_MAX_GATHER_SEGMENTS = max(16, min(_IOV_MAX, 512))

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


class _NullLock:
    """A no-op context manager standing in for a Lock on single-loop servers."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


@dataclass
class _CacheEntry:
    scan_group: int
    data: bytes
    view: memoryview


class ScanPrefixCache:
    """An LRU byte cache of record prefixes with prefix-containment hits.

    One entry per record, holding the longest prefix (highest scan group)
    seen so far.  A lookup at group ``g`` hits whenever the cached group is
    ``≥ g``: the response is a zero-copy ``memoryview`` of the first
    ``bytes_for_group(g)`` bytes of the cached prefix (the full ``bytes``
    object on an exact-length hit), which the event-loop server hands to
    ``sendmsg`` without ever materializing the slice.  Eviction is
    least-recently-used by total cached bytes.

    ``thread_safe=False`` drops the internal lock: the single-threaded
    event loop is the only reader and writer, so the hit/miss/bytes
    counters stay coherent without one.  Threaded embedders (and
    ``n_loops > 1`` servers) keep ``thread_safe=True``.

    The cache also publishes its counters as ``serving.cache.*`` metrics
    on a :class:`~repro.obs.MetricsRegistry` (the embedding server's, or a
    private one for standalone caches).  The hot path touches only the
    plain attributes it always did — the registry counters are brought up
    to date lazily by :meth:`sync_registry`, which every scrape
    (``GET_METRICS``) calls — so instrumentation adds nothing to the
    per-lookup cost.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        thread_safe: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.thread_safe = thread_safe
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock() if thread_safe else _NullLock()
        self.exact_hits = 0
        self.prefix_hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_served = 0
        self.admissions = 0
        self.bias_skips = 0
        self.hits_by_group: dict[int, int] = {}
        self.misses_by_group: dict[int, int] = {}
        self.bytes_served_by_group: dict[int, int] = {}
        self.admissions_by_group: dict[int, int] = {}
        self.evictions_by_group: dict[int, int] = {}
        # The fidelity controller's steer: admission of groups *above* the
        # fleet's steered set is skipped once the cache is under pressure.
        self._admission_bias: frozenset[int] | None = None
        self._bias_ceiling = 0

    def sync_registry(self) -> None:
        """Bring the ``serving.cache.*`` registry counters up to date.

        Counters are monotonic on both sides, so folding in the difference
        makes the registry exact as of this call without the hot path ever
        touching a metric lock.
        """
        registry = self.registry
        for name, total in (
            ("serving.cache.exact_hits_total", self.exact_hits),
            ("serving.cache.prefix_hits_total", self.prefix_hits),
            ("serving.cache.misses_total", self.misses),
            ("serving.cache.evictions_total", self.evictions),
            ("serving.cache.bytes_served_total", self.bytes_served),
            ("serving.cache.admissions_total", self.admissions),
            ("serving.cache.bias_skips_total", self.bias_skips),
        ):
            counter = registry.counter(name)
            counter.inc(total - counter.value)
        for suffix, by_group in (
            ("hits_total", self.hits_by_group),
            ("misses_total", self.misses_by_group),
            ("bytes_served_total", self.bytes_served_by_group),
            ("admissions_total", self.admissions_by_group),
            ("evictions_total", self.evictions_by_group),
        ):
            # list() snapshots the dict: the event-loop thread may be adding
            # a first-seen group concurrently.
            for group, total in list(by_group.items()):
                counter = registry.counter(f"serving.cache.group.{group}.{suffix}")
                counter.inc(total - counter.value)

    def get(self, record_name: str, scan_group: int, length: int):
        """Return a view of the first ``length`` bytes, or ``None`` on miss.

        The result is ``bytes`` on an exact-length hit and a read-only
        ``memoryview`` slice on a containment hit; both compare equal to
        the equivalent ``bytes`` and both support ``len``/buffer APIs.  The
        view pins the backing ``bytes`` object, so it stays valid even if
        the entry is evicted afterwards.
        """
        with self._lock:
            entry = self._entries.get(record_name)
            if entry is None or entry.scan_group < scan_group:
                self.misses += 1
                self.misses_by_group[scan_group] = self.misses_by_group.get(scan_group, 0) + 1
                return None
            self._entries.move_to_end(record_name)
            if entry.scan_group == scan_group:
                self.exact_hits += 1
            else:
                self.prefix_hits += 1
            self.bytes_served += length
            self.hits_by_group[scan_group] = self.hits_by_group.get(scan_group, 0) + 1
            self.bytes_served_by_group[scan_group] = (
                self.bytes_served_by_group.get(scan_group, 0) + length
            )
            if length == len(entry.data):
                return entry.data
            return entry.view[:length]

    def set_admission_bias(self, groups: set[int] | None) -> None:
        """Bias admission toward the fleet's steered scan groups.

        With a bias set, a prefix read at a group *above* every steered
        group is not admitted once the cache is past half occupancy: when
        the controller has steered the fleet down, high-fidelity prefixes
        nobody is fetching any more must not evict the short prefixes the
        fleet now lives on.  Prefix containment makes admitting *smaller*
        groups always safe, so only the upward direction is gated.  Pass
        ``None`` to clear the bias.
        """
        with self._lock:
            if groups:
                self._admission_bias = frozenset(groups)
                self._bias_ceiling = max(groups)
            else:
                self._admission_bias = None
                self._bias_ceiling = 0

    def put(self, record_name: str, scan_group: int, data: bytes) -> None:
        """Cache a record prefix read at ``scan_group`` (longest prefix wins)."""
        if len(data) > self.capacity_bytes:
            return
        data = bytes(data)
        with self._lock:
            if (
                self._admission_bias is not None
                and scan_group > self._bias_ceiling
                and self._bytes * 2 >= self.capacity_bytes
            ):
                self.bias_skips += 1
                return
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
            self.admissions += 1
            self.admissions_by_group[scan_group] = (
                self.admissions_by_group.get(scan_group, 0) + 1
            )
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.data)
                self.evictions += 1
                self.evictions_by_group[evicted.scan_group] = (
                    self.evictions_by_group.get(evicted.scan_group, 0) + 1
                )

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counters for the ``STAT`` response and the serving benchmark."""
        with self._lock:
            hits = self.exact_hits + self.prefix_hits
            lookups = hits + self.misses
            return {
                "entries": len(self._entries),
                "cached_bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "exact_hits": self.exact_hits,
                "prefix_hits": self.prefix_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "admissions": self.admissions,
                "bias_skips": self.bias_skips,
                "admission_bias": sorted(self._admission_bias)
                if self._admission_bias is not None
                else None,
                "hit_rate": hits / lookups if lookups else 0.0,
                "prefix_hit_rate": self.prefix_hits / lookups if lookups else 0.0,
                "hits_by_group": {str(g): n for g, n in sorted(self.hits_by_group.items())},
                "misses_by_group": {str(g): n for g, n in sorted(self.misses_by_group.items())},
                "bytes_served_by_group": {
                    str(g): n for g, n in sorted(self.bytes_served_by_group.items())
                },
                "admissions_by_group": {
                    str(g): n for g, n in sorted(self.admissions_by_group.items())
                },
                "evictions_by_group": {
                    str(g): n for g, n in sorted(self.evictions_by_group.items())
                },
            }


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
        "bytes_received",
        "bytes_sent",
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
        self.bytes_received = 0
        self.bytes_sent = 0

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
    """One selector thread: accepts (loop 0), reads, dispatches, writes."""

    def __init__(self, server: "PCRRecordServer", index: int) -> None:
        self.server = server
        self.index = index
        self.selector = selectors.DefaultSelector()
        self.connections: dict[int, _Connection] = {}
        self.pending: deque[socket.socket] = deque()
        self.pending_lock = threading.Lock()
        self.thread: threading.Thread | None = None
        # Hot-path counters are plain attributes — this loop's thread is the
        # only writer, so they cost one integer add and stay exact.  Scrapes
        # fold them into the server registry via _sync_registry().  The
        # iteration-latency histogram accumulates the same way: plain bucket
        # counts bumped per wakeup, merged into the registry at scrape time.
        self.accepted = 0
        self.closed = 0
        self.backpressure_pauses = 0
        self.backpressure_resumes = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self.iter_edges = server.registry.histogram(LOOP_HISTOGRAM_NAME).edges
        self.iter_counts = [0] * (len(self.iter_edges) + 1)
        self.iter_sum = 0.0
        self.iter_count = 0
        # What has already been folded into the registry histogram; the
        # scrape thread (under the server's sync lock) is the only writer.
        self._iter_synced_counts = [0] * (len(self.iter_edges) + 1)
        self._iter_synced_sum = 0.0
        self._iter_synced_count = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, "wake")

    def sync_iteration_histogram(self) -> None:
        """Fold iteration timings recorded since the last sync into the
        registry histogram.  Called under the server's sync lock; the loop
        thread may observe concurrently, so reads are snapshotted first and
        anything racing in lands in the next sync.
        """
        if not self.server.registry.enabled:
            return  # merge() would drop the delta but the shadows would advance
        count = self.iter_count
        delta_count = count - self._iter_synced_count
        if not delta_count:
            return
        counts = list(self.iter_counts)
        total = self.iter_sum
        self.server.registry.merge(
            {
                "histograms": {
                    LOOP_HISTOGRAM_NAME: {
                        "edges": list(self.iter_edges),
                        "counts": [
                            n - p for n, p in zip(counts, self._iter_synced_counts)
                        ],
                        "sum": total - self._iter_synced_sum,
                        "count": delta_count,
                    }
                }
            }
        )
        self._iter_synced_counts = counts
        self._iter_synced_sum = total
        self._iter_synced_count = count

    # -- cross-thread signalling ---------------------------------------------

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a wake is already pending, or the loop is tearing down

    def hand_off(self, sock: socket.socket) -> None:
        """Queue an accepted socket for admission by this loop's thread."""
        with self.pending_lock:
            self.pending.append(sock)
        self.wake()

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        stop = self.server._stop_event
        registry = self.server.registry
        perf_counter = time.perf_counter
        iter_edges = self.iter_edges
        iter_counts = self.iter_counts  # mutated in place; sync copies it
        try:
            while not stop.is_set():
                events = self.selector.select(timeout=0.2)
                if events:
                    # Idle selector timeouts are not timed: the histogram
                    # measures how long the loop spends servicing ready
                    # sockets, not how long it sleeps waiting for them.
                    iteration_start = perf_counter() if registry._enabled else 0.0
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
                    if iteration_start:
                        elapsed = perf_counter() - iteration_start
                        iter_counts[bisect_left(iter_edges, elapsed)] += 1
                        self.iter_sum += elapsed
                        self.iter_count += 1
                self._admit_pending()
        finally:
            self._teardown()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _admit_pending(self) -> None:
        while True:
            with self.pending_lock:
                if not self.pending:
                    return
                sock = self.pending.popleft()
            self._admit(sock)

    def _teardown(self) -> None:
        for conn in list(self.connections.values()):
            self._close(conn)
        self._admit_stragglers_closed()
        try:
            self.selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._wake_r.close()
        self._wake_w.close()
        self.selector.close()

    def _admit_stragglers_closed(self) -> None:
        """Sockets handed off after stop was signalled are closed, not served."""
        with self.pending_lock:
            stragglers = list(self.pending)
            self.pending.clear()
        for sock in stragglers:
            try:
                sock.close()
            except OSError:
                pass

    # -- accept ----------------------------------------------------------------

    def _accept_ready(self) -> None:
        server = self.server
        while True:
            try:
                sock, _ = server._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us during shutdown
            server._configure_socket(sock)
            target = server._loops[server._next_loop_index()]
            if target is self:
                self._admit(sock)
            else:
                target.hand_off(sock)

    def _admit(self, sock: socket.socket) -> None:
        if self.server._stop_event.is_set():
            try:
                sock.close()
            except OSError:
                pass
            return
        conn = _Connection(sock, self.server.max_payload)
        self.connections[conn.fd] = conn
        self.selector.register(sock, selectors.EVENT_READ, conn)
        self.accepted += 1

    # -- read side -------------------------------------------------------------

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.bytes_received += len(data)
            self.bytes_received += len(data)
        else:
            if conn.assembler.mid_frame:
                # Mirror the blocking read_frame contract: EOF inside a
                # frame is a malformed stream, answered before closing.
                self._respond(
                    conn,
                    [protocol.error_frame(
                        protocol.ERR_MALFORMED, "connection closed mid-frame"
                    )],
                    close_after=True,
                )
            else:
                self._close(conn)
            return
        try:
            frames = conn.assembler.feed(data)
        except ProtocolError as exc:
            self._respond(
                conn,
                [protocol.error_frame(protocol.ERR_MALFORMED, str(exc))],
                close_after=True,
            )
            return
        if not frames:
            return
        # Queue every response parsed out of this recv, then flush once:
        # a pipelined client gets its whole response burst coalesced into
        # as few sendmsg gather calls as the socket buffer allows.
        for msg_type, payload in frames:
            conn.queue(self.server._dispatch_segments(msg_type, payload))
        self._flush(conn)

    # -- write side ------------------------------------------------------------

    def _respond(self, conn: _Connection, segments, close_after: bool = False) -> None:
        conn.queue(segments)
        if close_after:
            conn.close_after_flush = True
        self._flush(conn)

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
            conn.bytes_sent += n_sent
            self.bytes_sent += n_sent
        if not out:
            if conn.close_after_flush:
                self._close(conn)
                return
            self._set_interest(conn, selectors.EVENT_READ)
            if conn.paused:
                conn.paused = False
                self.backpressure_resumes += 1
        else:
            interest = selectors.EVENT_WRITE
            high_water = self.server.backpressure_bytes
            if conn.out_bytes > high_water:
                if not conn.paused:
                    conn.paused = True
                    self.backpressure_pauses += 1
            elif conn.paused and conn.out_bytes <= high_water // 2:
                conn.paused = False
                self.backpressure_resumes += 1
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
        self.closed += 1


class PCRRecordServer:
    """Serves a PCR dataset directory to remote readers over TCP.

    The server owns one shared :class:`PCRReader` and runs ``n_loops``
    event-loop threads (one by default); every client connection is a
    non-blocking state machine on one of those loops, and all connections
    share the scan-prefix cache.

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
        n_loops: int = 1,
        backpressure_bytes: int = DEFAULT_BACKPRESSURE_BYTES,
        socket_buffer_bytes: int | None = None,
        metrics_enabled: bool = True,
    ) -> None:
        if isinstance(dataset, (str, Path, os.PathLike)):
            self.reader = PCRReader(dataset, decode=False)
            self._owns_reader = True
        else:
            # A PCRReader or any reader-shaped view (e.g. the cluster's
            # ShardViewReader); its owner is responsible for closing it.
            self.reader = dataset
            self._owns_reader = False
        if n_loops < 1:
            raise ValueError("n_loops must be at least 1")
        self.host = host
        self.max_payload = max_payload
        self.n_loops = n_loops
        self.backpressure_bytes = backpressure_bytes
        self.socket_buffer_bytes = socket_buffer_bytes
        # Per-instance registry, not the process default: cluster tests run
        # many replicas in one process and each replica's GET_METRICS must
        # report only its own traffic.
        self.registry = MetricsRegistry(enabled=metrics_enabled)
        # The single-threaded loop is the cache's only reader/writer, so it
        # runs lock-free; multiple loops re-enable the lock.
        self.cache = ScanPrefixCache(
            capacity_bytes=cache_bytes,
            thread_safe=(n_loops > 1),
            registry=self.registry,
        )
        # Request/error counts live in plain fields — the same shape the
        # pre-registry server kept — and are folded into `serving.*` registry
        # counters at scrape time by _sync_registry(), so the dispatch path
        # never takes a metric lock.
        self._requests_by_type: dict[int, int] = {}
        self._errors = 0
        # The meeting point of the control loop: REPORT_TELEMETRY frames
        # land here, the fidelity controller (if started) reads them and
        # writes hints back.  Always present — a server without a controller
        # still accepts reports and acks with no hint.
        self.telemetry = TelemetryStore()
        self._controller = None
        self._sync_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._started = False
        self._stopped = False
        self._accept_rr = 0
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
        self._loops = [_EventLoop(self, index) for index in range(n_loops)]

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
        """Live client connections across every event loop."""
        return sum(len(loop.connections) for loop in self._loops)

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

    def _next_loop_index(self) -> int:
        index = self._accept_rr % len(self._loops)
        self._accept_rr += 1
        return index

    def start(self) -> "PCRRecordServer":
        """Start the event loop(s) on background threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._loops[0].selector.register(
            self._listener, selectors.EVENT_READ, "listener"
        )
        for loop in self._loops:
            loop.thread = threading.Thread(
                target=loop.run,
                daemon=True,
                name=f"pcr-record-server:{self.port}:loop{loop.index}",
            )
            loop.thread.start()
        return self

    def stop(self) -> None:
        """Gracefully stop: wake every loop, close every connection, unbind.

        Established connections are closed by their owning loop during
        teardown — a persistent client blocked in ``recv`` sees EOF
        immediately instead of a hang.  Only after every loop has exited is
        the reader closed.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._controller is not None:
            self._controller.stop()
        self._stop_event.set()
        for loop in self._loops:
            loop.wake()
        for loop in self._loops:
            if loop.thread is not None:
                loop.thread.join(timeout=5.0)
                loop.thread = None
        try:
            self._listener.close()
        except OSError:
            pass
        if not self._started:
            # Never-started loops still hold their waker socketpairs.
            for loop in self._loops:
                loop._teardown()
        if self._owns_reader:
            self.reader.close()

    def __enter__(self) -> "PCRRecordServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, msg_type: int, payload: bytes) -> bytes:
        """Map one request frame to one complete response frame (joined)."""
        return b"".join(bytes(s) for s in self._dispatch_segments(msg_type, payload))

    def _dispatch_segments(self, msg_type: int, payload: bytes) -> list:
        """Map one request frame to a response *gather list*.

        The list holds buffer segments (header ``bytes`` + payload
        ``memoryview``/``bytes``) that, concatenated, form one complete
        response frame — the event loop hands them to ``sendmsg`` as-is,
        so cache bytes reach the socket without an intermediate copy.
        """
        requests = self._requests_by_type
        requests[msg_type] = requests.get(msg_type, 0) + 1
        try:
            if msg_type == MSG_GET_RECORD:
                request = protocol.unpack_record_request(payload)
                return self._record_segments(request)
            if msg_type == MSG_GET_INDEX:
                request = protocol.unpack_record_request(payload)
                index = self.reader.record_index(request.record_name)
                return [
                    protocol.encode_frame(
                        MSG_INDEX_DATA, index.to_json().encode("utf-8"), self.max_payload
                    )
                ]
            if msg_type == MSG_STAT:
                return [
                    protocol.encode_frame(
                        MSG_STAT_DATA, protocol.pack_json(self.stats()), self.max_payload
                    )
                ]
            if msg_type == MSG_DATASET_META:
                return [
                    protocol.encode_frame(
                        MSG_META_DATA, protocol.pack_json(self._dataset_meta()),
                        self.max_payload,
                    )
                ]
            if msg_type == MSG_BATCH:
                return self._batch_segments(payload)
            if msg_type == MSG_REPORT_TELEMETRY:
                return [
                    protocol.encode_frame(
                        MSG_TELEMETRY_ACK,
                        protocol.pack_json(self._handle_telemetry(payload)),
                        self.max_payload,
                    )
                ]
            if msg_type == MSG_GET_METRICS:
                return [
                    protocol.encode_frame(
                        MSG_METRICS_DATA,
                        protocol.pack_json(self.metrics_snapshot()),
                        self.max_payload,
                    )
                ]
            return [
                self._error(
                    protocol.ERR_UNSUPPORTED, f"unknown request type 0x{msg_type:02x}"
                )
            ]
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
        try:
            data = self.serve_record_bytes(request.record_name, request.scan_group)
        except ScanGroupError as exc:
            return [self._error(protocol.ERR_BAD_SCAN_GROUP, str(exc))]
        except PCRError as exc:
            return [self._error(protocol.ERR_NOT_FOUND, str(exc))]
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

    def _batch_segments(self, payload: bytes) -> list:
        """One gather list for a whole ``BATCH`` response — zero joins.

        Sub-frame segments accumulate directly into the outer response's
        gather list; only their total length is computed up front, for the
        outer header and the frame-limit check.
        """
        requests = protocol.unpack_batch_request(payload)
        segments: list = []
        total = 2  # the count field of the batch body
        for index, request in enumerate(requests):
            sub = self._record_segments(request)
            total += sum(len(s) for s in sub)
            if total > self.max_payload:
                # Bail before materializing more sub-frames: a small BATCH
                # request must not be able to force an unbounded response
                # allocation server-side.
                return [
                    self._error(
                        protocol.ERR_OVERSIZED,
                        f"batch response exceeds the frame limit at sub-request "
                        f"{index} of {len(requests)}; split the batch",
                    )
                ]
            segments.extend(sub)
        return [
            protocol.encode_header(MSG_BATCH_DATA, total, self.max_payload),
            struct.pack("<H", len(requests)),
            *segments,
        ]

    def _error(self, code: int, message: str) -> bytes:
        self._errors += 1
        return protocol.error_frame(code, message)

    def _handle_telemetry(self, payload: bytes) -> dict:
        """One ``REPORT_TELEMETRY`` frame: store the report, return the ack.

        The ack piggybacks the controller's current hint for the reporting
        client (if any), so the report round trip *is* the hint delivery —
        no extra poll op on the wire.
        """
        try:
            telemetry = ClientTelemetry.from_payload(protocol.unpack_json(payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed telemetry report: {exc}") from exc
        hint = self.telemetry.update(telemetry)
        return {
            "controller_active": self._controller is not None,
            "hint": hint.to_payload() if hint is not None else None,
        }

    # -- control loop --------------------------------------------------------

    @property
    def controller(self):
        """The attached :class:`~repro.control.FidelityController` (or None)."""
        return self._controller

    def start_controller(
        self, policy=None, interval: float | None = None, auto_start: bool = True
    ):
        """Attach (and by default start) a fidelity controller on this server.

        The controller steers every client that reports telemetry to this
        server; its decisions and rationale appear as ``control.*`` metrics
        in this server's ``GET_METRICS`` snapshots.  ``auto_start=False``
        attaches without spawning the thread, for callers that drive
        :meth:`~repro.control.FidelityController.step` themselves.
        """
        if self._controller is not None:
            raise RuntimeError("controller already attached")
        from repro.control.controller import FidelityController, ServerControlPlane

        kwargs = {} if interval is None else {"interval": interval}
        controller = FidelityController(ServerControlPlane(self), policy, **kwargs)
        self._controller = controller
        if auto_start:
            controller.start()
        return controller

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

    @property
    def requests_by_type(self) -> dict[int, int]:
        """Request counts per message type."""
        return dict(self._requests_by_type)

    @property
    def errors(self) -> int:
        """Total error responses."""
        return self._errors

    def _sync_registry(self) -> None:
        """Fold the event loops' plain hot-path counters into the registry.

        Each loop thread is the sole writer of its own totals and every
        total is monotonic, so summing across loops and folding in the
        difference yields an exact registry as of this call — without the
        per-request path paying for a metric lock.  The sync lock keeps
        concurrent scrapes from folding the same difference twice.
        """
        with self._sync_lock:
            self.cache.sync_registry()
            registry = self.registry
            loops = self._loops
            for name, total in (
                ("serving.bytes_received_total", sum(l.bytes_received for l in loops)),
                ("serving.bytes_sent_total", sum(l.bytes_sent for l in loops)),
                ("serving.connections.accepted_total", sum(l.accepted for l in loops)),
                ("serving.connections.closed_total", sum(l.closed for l in loops)),
                (
                    "serving.backpressure.pauses_total",
                    sum(l.backpressure_pauses for l in loops),
                ),
                (
                    "serving.backpressure.resumes_total",
                    sum(l.backpressure_resumes for l in loops),
                ),
            ):
                counter = registry.counter(name)
                counter.inc(total - counter.value)
            for msg_type, total in self._requests_by_type.items():
                name = protocol.MESSAGE_NAMES.get(msg_type, f"op_0x{msg_type:02x}")
                counter = registry.counter(f"serving.requests.{name}_total")
                counter.inc(total - counter.value)
            errors = registry.counter("serving.errors_total")
            errors.inc(self._errors - errors.value)
            reports = registry.counter("serving.telemetry.reports_total")
            reports.inc(self.telemetry.reports_received - reports.value)
            hints = registry.counter("serving.telemetry.hints_served_total")
            hints.inc(self.telemetry.hints_served - hints.value)
            for loop in loops:
                loop.sync_iteration_histogram()

    def metrics_snapshot(self) -> dict:
        """The ``GET_METRICS`` response body: one registry snapshot.

        Counters kept as plain event-loop attributes and gauges that
        describe current state (cache size, open connections) are refreshed
        at scrape time, so the snapshot is self-contained — a scraper needs
        no second round-trip to ``STAT``.
        """
        registry = self.registry
        self._sync_registry()
        registry.gauge("serving.cache.entries").set(len(self.cache))
        registry.gauge("serving.cache.cached_bytes").set(self.cache.cached_bytes)
        registry.gauge("serving.connections.open").set(self.open_connections)
        registry.gauge("serving.telemetry.clients").set(len(self.telemetry))
        return {
            "address": list(self.address),
            "pid": os.getpid(),
            "metrics_enabled": registry.enabled,
            "registry": registry.snapshot(),
        }

    def stats(self) -> dict:
        """Aggregate serving statistics (also the ``STAT`` response body)."""
        requests = self.requests_by_type
        return {
            "address": list(self.address),
            "requests_by_type": {f"0x{t:02x}": n for t, n in sorted(requests.items())},
            "n_requests": sum(requests.values()),
            "errors": self.errors,
            "reader_bytes_read": self.reader.stats.bytes_read,
            "reader_records_read": self.reader.stats.records_read,
            "cache": self.cache.stats(),
            "event_loop": {
                "n_loops": self.n_loops,
                "open_connections": self.open_connections,
                "accepted_connections": sum(loop.accepted for loop in self._loops),
                "closed_connections": sum(loop.closed for loop in self._loops),
                "backpressure_pauses": sum(
                    loop.backpressure_pauses for loop in self._loops
                ),
            },
        }
