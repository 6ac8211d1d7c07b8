"""Event-loop front-end tests: concurrency, hostile clients, cleanliness.

`tests/test_serving.py` covers the wire protocol and client API; this file
drives the non-blocking event loop itself — hundreds of simultaneous
sockets, slow-loris byte-at-a-time clients, oversized/truncated frames
against the incremental parser, mid-write disconnects, backpressure, and
the zero-copy ScanPrefixCache view semantics the loop relies on.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serving import protocol
from repro.serving.client import PCRClient
from repro.serving.cache import ScanPrefixCache
from repro.serving.server import PCRRecordServer

# Kept modest by default so the suite passes under a low ``ulimit -n``;
# raise it via the environment when the box allows.
N_STORM_SOCKETS = int(os.environ.get("PCR_TEST_CONNECTIONS", "200"))


@pytest.fixture(scope="module")
def server(pcr_dataset):
    with PCRRecordServer(pcr_dataset.reader.directory, port=0) as running:
        yield running


def _record_frame(name: str, group: int) -> bytes:
    return protocol.encode_frame(
        protocol.MSG_GET_RECORD,
        protocol.pack_record_request(protocol.RecordRequest(name, group)),
    )


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _n_open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _n_open_sockets() -> int:
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the fd listing itself, closed by now
    return n


# -- high-concurrency smoke ---------------------------------------------------


class TestHighConcurrency:
    def test_hundreds_of_simultaneous_sockets(self, server, pcr_dataset):
        """All sockets connect first (peak concurrency == N), then each does
        one full request/response round trip while the rest stay open."""
        name = pcr_dataset.record_names[0]
        expected = pcr_dataset.reader.read_record_bytes(name, 1)
        frame = _record_frame(name, 1)
        socks = []
        try:
            for _ in range(N_STORM_SOCKETS):
                socks.append(
                    socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
                )
            assert _wait_until(
                lambda: server.open_connections >= N_STORM_SOCKETS
            ), f"only {server.open_connections} connections admitted"
            for sock in socks:
                sock.sendall(frame)
            for sock in socks:
                msg_type, payload = protocol.read_frame(sock)
                assert msg_type == protocol.MSG_RECORD_DATA
                assert payload == expected
        finally:
            for sock in socks:
                sock.close()
        assert _wait_until(lambda: server.open_connections == 0)


# -- hostile / slow clients ---------------------------------------------------


class TestSlowAndHostileClients:
    def test_slow_loris_one_byte_at_a_time(self, server, pcr_dataset):
        """A request dribbled one byte per send — across the header/payload
        boundary — still gets a complete, correct response."""
        name = pcr_dataset.record_names[0]
        expected = pcr_dataset.reader.read_record_bytes(name, 1)
        frame = _record_frame(name, 1)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            for i in range(len(frame)):
                sock.sendall(frame[i : i + 1])
                time.sleep(0.001)
            msg_type, payload = protocol.read_frame(sock)
            assert msg_type == protocol.MSG_RECORD_DATA
            assert payload == expected

    def test_oversized_frame_rejected_without_buffering(self, server):
        """A header announcing a payload over the limit is answered with a
        MALFORMED error as soon as the 8 header bytes arrive — the server
        never waits for (or allocates) the announced payload."""
        huge = protocol.DEFAULT_MAX_PAYLOAD_BYTES + 1
        header = protocol.encode_header(protocol.MSG_GET_RECORD, huge, huge + 1)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(header)  # header only; payload never sent
            msg_type, payload = protocol.read_frame(sock)
            assert msg_type == protocol.MSG_ERROR
            error = protocol.unpack_error(payload)
            assert error.code == protocol.ERR_MALFORMED
            # The server closes the connection after the error frame.
            assert protocol.read_frame(sock) is None

    def test_bad_magic_rejected(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(b"XXXXXXXX")
            msg_type, payload = protocol.read_frame(sock)
            assert msg_type == protocol.MSG_ERROR
            assert protocol.unpack_error(payload).code == protocol.ERR_MALFORMED
            assert protocol.read_frame(sock) is None

    def test_valid_frame_then_garbage_in_one_recv(self, server, pcr_dataset):
        """A good request and a bad header arriving in the same ``recv`` get
        what a blocking ``read_frame`` loop would give them: the record, then
        the MALFORMED error, then EOF — and both are counted."""
        name = pcr_dataset.record_names[0]
        expected = pcr_dataset.reader.read_record_bytes(name, 1)
        before = server.stats()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(_record_frame(name, 1) + b"XX\x01\x01\x00\x00\x00\x00")
            assert protocol.read_frame(sock) == (protocol.MSG_RECORD_DATA, expected)
            msg_type, payload = protocol.read_frame(sock)
            assert msg_type == protocol.MSG_ERROR
            assert protocol.unpack_error(payload).code == protocol.ERR_MALFORMED
            assert protocol.read_frame(sock) is None
        after = server.stats()
        assert after["n_requests"] == before["n_requests"] + 1
        assert after["errors"] == before["errors"] + 1
        assert after["errors"] == server.registry.counter("serving.errors_total").value

    def test_feed_error_carries_the_frames_completed_before_it(self):
        good = protocol.encode_frame(protocol.MSG_STAT, b"")
        assembler = protocol.FrameAssembler()
        with pytest.raises(protocol.ProtocolError) as raised:
            assembler.feed(good + good + b"XXXXXXXX")
        assert raised.value.frames == [(protocol.MSG_STAT, b"")] * 2
        # The stream stays poisoned at the bad header; nothing is handed out twice.
        with pytest.raises(protocol.ProtocolError) as raised:
            assembler.feed(b"")
        assert raised.value.frames == []

    def test_truncated_frame_gets_malformed_error(self, server, pcr_dataset):
        """EOF inside a frame is answered with a MALFORMED error before the
        server closes its side — at every truncation point — and counted."""
        frame = _record_frame(pcr_dataset.record_names[0], 1)
        errors_before = server.stats()["errors"]
        for cut in (1, protocol.HEADER_SIZE - 1, protocol.HEADER_SIZE, len(frame) - 1):
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10.0
            ) as sock:
                sock.sendall(frame[:cut])
                sock.shutdown(socket.SHUT_WR)
                msg_type, payload = protocol.read_frame(sock)
                assert msg_type == protocol.MSG_ERROR, f"cut={cut}"
                assert protocol.unpack_error(payload).code == protocol.ERR_MALFORMED
                assert protocol.read_frame(sock) is None
        assert server.stats()["errors"] == errors_before + 4

    def test_assembler_truncation_fuzz(self, pcr_dataset):
        """Feed a three-frame stream to the incremental parser at every split
        point; the reassembled frames must be identical regardless of split
        (the reference is the whole stream in one feed)."""
        frames = [
            _record_frame(pcr_dataset.record_names[0], 1),
            protocol.encode_frame(protocol.MSG_STAT, b""),
            _record_frame(pcr_dataset.record_names[-1], 3),
        ]
        stream = b"".join(frames)
        reference = protocol.FrameAssembler().feed(stream)
        assert [protocol.encode_frame(*frame) for frame in reference] == frames
        for split in range(1, len(stream)):
            assembler = protocol.FrameAssembler()
            got = assembler.feed(stream[:split])
            got += assembler.feed(stream[split:])
            assert got == reference, f"split={split}"
            assert not assembler.mid_frame
        # A stream cut anywhere mid-frame leaves the assembler mid-frame.
        assembler = protocol.FrameAssembler()
        assembler.feed(stream[: protocol.HEADER_SIZE + 1])
        assert assembler.mid_frame


# -- disconnect cleanliness ---------------------------------------------------


class TestDisconnectCleanliness:
    def test_mid_write_disconnect_leaks_nothing(self, pcr_dataset):
        """Clients that vanish without reading their responses must not leak
        selector keys or file descriptors server-side."""
        name = pcr_dataset.record_names[0]
        group = pcr_dataset.n_groups
        frame = _record_frame(name, group)
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            with PCRClient(port=server.port) as warm:
                warm.get_record_bytes(name, group)
            baseline_fds = _n_open_fds()
            for _ in range(50):
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
                # Request a response, then disappear before reading a byte of
                # it: the server's write lands on a dead socket mid-flush.
                sock.sendall(frame * 4)
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),  # RST on close, not FIN
                )
                sock.close()
            assert _wait_until(lambda: server.open_connections == 0), (
                f"{server.open_connections} connections leaked"
            )
            assert _wait_until(lambda: _n_open_fds() <= baseline_fds), (
                f"fd count {_n_open_fds()} never returned to baseline {baseline_fds}"
            )
            # The server is still healthy afterwards.
            with PCRClient(port=server.port) as client:
                assert client.get_record_bytes(name, group) == bytes(
                    pcr_dataset.reader.read_record_bytes(name, group)
                )

    def test_backpressure_pauses_slow_reader(self, pcr_dataset):
        """A client that pipelines many requests but reads nothing trips the
        output high-water mark; once it drains, every response arrives."""
        name = pcr_dataset.record_names[0]
        group = pcr_dataset.n_groups
        n_requests = 64
        with PCRRecordServer(
            pcr_dataset.reader.directory,
            port=0,
            backpressure_bytes=4096,
            socket_buffer_bytes=4096,
        ) as server:
            expected = bytes(pcr_dataset.reader.read_record_bytes(name, group))
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(10.0)
                sock.connect(("127.0.0.1", server.port))
                sock.sendall(_record_frame(name, group) * n_requests)
                # Give the loop time to fill the tiny buffers and pause.
                _wait_until(
                    lambda: server.stats()["event_loop"]["backpressure_pauses"] > 0,
                    timeout=2.0,
                )
                for _ in range(n_requests):
                    msg_type, payload = protocol.read_frame(sock)
                    assert msg_type == protocol.MSG_RECORD_DATA
                    assert payload == expected
            finally:
                sock.close()
            assert server.stats()["event_loop"]["backpressure_pauses"] > 0


class TestLifecycle:
    def test_stop_with_idle_and_mid_frame_clients_is_prompt_and_clean(self, pcr_dataset):
        """``stop()`` closes every connection — idle ones and one holding half
        a frame — within a second, and leaves no thread and no socket."""
        baseline = _n_open_sockets()
        server = PCRRecordServer(pcr_dataset.reader.directory, port=0).start()
        thread_name = f"pcr-record-server:{server.port}"
        clients = [
            socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
            for _ in range(8)
        ]
        try:
            clients[-1].sendall(_record_frame(pcr_dataset.record_names[0], 1)[:5])
            received = server.registry.counter("serving.bytes_received_total")
            assert _wait_until(
                lambda: server.open_connections == len(clients) and received.value == 5
            )
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0
            assert thread_name not in {thread.name for thread in threading.enumerate()}
            for client in clients:
                assert client.recv(1) == b""  # the server closed its side
            assert _n_open_sockets() == baseline + len(clients)
            server.stop()  # a second stop is a no-op
        finally:
            for client in clients:
                client.close()
        assert _n_open_sockets() == baseline

    def test_stop_during_accepts_leaves_no_connection_open(self, pcr_dataset):
        """Clients that connect just before ``stop()`` — accepted, mid-accept
        or still in the listen queue — all see the server's side go away."""
        for _ in range(25):
            server = PCRRecordServer(pcr_dataset.reader.directory, port=0).start()
            clients = [
                socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
                for _ in range(3)
            ]
            server.stop()
            for client in clients:
                with client:
                    try:
                        assert client.recv(1) == b""
                    except ConnectionResetError:
                        pass  # never accepted: the closed listener reset it

    def test_a_never_started_server_stops_without_resource_warnings(self, pcr_dataset):
        """A constructed, never-started server still holds an event loop;
        ``stop()`` must close it (twice is a no-op)."""
        script = (
            "import gc, sys\n"
            "from repro.serving.server import PCRRecordServer\n"
            "server = PCRRecordServer(sys.argv[1], port=0)\n"
            "server.stop()\n"
            "server.stop()\n"
            "del server\n"
            "gc.collect()\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", script,
             str(pcr_dataset.reader.directory)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert "ResourceWarning" not in result.stderr, result.stderr


# -- cache semantics under the loop ------------------------------------------


class TestLockFreeCache:
    """The zero-copy view contract.  (The cache has locked unconditionally
    since the serving diet; the class keeps its name so test ids stay put.)"""

    def test_containment_hit_is_a_view_not_a_copy(self):
        cache = ScanPrefixCache(capacity_bytes=1 << 20)
        data = bytes(range(256)) * 4
        cache.put("record", 5, data)
        exact = cache.get("record", 5, len(data))
        assert exact is data  # exact-length hit: the stored bytes themselves
        view = cache.get("record", 2, 100)
        assert isinstance(view, memoryview)
        assert bytes(view) == data[:100]
        stats = cache.stats()
        assert stats["exact_hits"] == 1 and stats["prefix_hits"] == 1

    def test_view_survives_eviction(self):
        cache = ScanPrefixCache(capacity_bytes=1024)
        first = b"a" * 600
        cache.put("one", 3, first)
        view = cache.get("one", 1, 300)
        cache.put("two", 3, b"b" * 600)  # evicts "one"
        assert cache.get("one", 1, 300) is None
        assert bytes(view) == first[:300]  # the view pins the evicted bytes
