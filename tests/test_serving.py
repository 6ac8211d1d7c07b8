"""Tests for the serving subsystem: wire protocol, cache, server, client, loader."""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.pipeline.batch import Minibatch
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.serving import protocol
from repro.serving.client import PCRClient
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.cache import ScanPrefixCache
from repro.serving.server import PCRRecordServer


@pytest.fixture(scope="module")
def server(pcr_dataset):
    with PCRRecordServer(pcr_dataset.reader.directory, port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    with PCRClient(port=server.port) as connected:
        yield connected


# -- protocol ----------------------------------------------------------------


class TestProtocolFrames:
    def test_frame_roundtrip(self):
        frame = protocol.encode_frame(protocol.MSG_GET_RECORD, b"payload")
        msg_type, length = protocol.parse_header(frame[: protocol.HEADER_SIZE])
        assert msg_type == protocol.MSG_GET_RECORD
        assert length == 7
        assert frame[protocol.HEADER_SIZE :] == b"payload"

    def test_bad_magic_rejected(self):
        frame = bytearray(protocol.encode_frame(protocol.MSG_STAT, b""))
        frame[0:2] = b"XX"
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.parse_header(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(protocol.encode_frame(protocol.MSG_STAT, b""))
        frame[2] = 99
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.parse_header(bytes(frame))

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(protocol.FrameTooLargeError):
            protocol.encode_frame(protocol.MSG_RECORD_DATA, b"x" * 100, max_payload=10)

    def test_oversized_payload_rejected_on_parse(self):
        header = struct.pack(
            "<2sBBI", protocol.PROTOCOL_MAGIC, protocol.PROTOCOL_VERSION,
            protocol.MSG_RECORD_DATA, 1 << 30,
        )
        with pytest.raises(protocol.FrameTooLargeError):
            protocol.parse_header(header, max_payload=1 << 20)

    def test_record_request_roundtrip(self):
        request = protocol.RecordRequest("record-00001.pcr", 7)
        packed = protocol.pack_record_request(request)
        assert protocol.unpack_record_request(packed) == request

    def test_record_request_truncation_rejected(self):
        packed = protocol.pack_record_request(protocol.RecordRequest("record", 3))
        for cut in (1, 3, len(packed) - 1):
            with pytest.raises(protocol.ProtocolError):
                protocol.unpack_record_request(packed[:cut])

    def test_record_request_trailing_bytes_rejected(self):
        packed = protocol.pack_record_request(protocol.RecordRequest("record", 3))
        with pytest.raises(protocol.ProtocolError, match="trailing"):
            protocol.unpack_record_request(packed + b"!")

    def test_error_roundtrip(self):
        error = protocol.unpack_error(protocol.pack_error(protocol.ERR_NOT_FOUND, "nope"))
        assert error.code == protocol.ERR_NOT_FOUND
        assert error.message == "nope"
        assert "not-found" in str(error)


# -- scan-prefix cache -------------------------------------------------------


class TestScanPrefixCache:
    def test_prefix_containment_hit(self):
        cache = ScanPrefixCache(capacity_bytes=1 << 20)
        cache.put("r", 5, b"ABCDEFGHIJ")
        assert cache.get("r", 3, 4) == b"ABCD"
        stats = cache.stats()
        assert stats["prefix_hits"] == 1 and stats["exact_hits"] == 0

    def test_exact_hit_and_miss_above_cached_group(self):
        cache = ScanPrefixCache(capacity_bytes=1 << 20)
        cache.put("r", 3, b"ABCDEF")
        assert cache.get("r", 3, 6) == b"ABCDEF"
        assert cache.get("r", 4, 8) is None
        stats = cache.stats()
        assert stats["exact_hits"] == 1 and stats["misses"] == 1

    def test_longest_prefix_wins(self):
        cache = ScanPrefixCache(capacity_bytes=1 << 20)
        cache.put("r", 5, b"ABCDEFGHIJ")
        cache.put("r", 2, b"ABC")  # shorter prefix must not clobber the longer one
        assert cache.get("r", 5, 10) == b"ABCDEFGHIJ"
        assert cache.cached_bytes == 10

    def test_lru_eviction_by_bytes(self):
        cache = ScanPrefixCache(capacity_bytes=25)
        cache.put("a", 1, b"x" * 10)
        cache.put("b", 1, b"y" * 10)
        cache.get("a", 1, 10)  # touch a so b is the LRU entry
        cache.put("c", 1, b"z" * 10)
        assert cache.get("b", 1, 10) is None
        assert cache.get("a", 1, 10) == b"x" * 10
        assert cache.stats()["evictions"] == 1
        assert cache.cached_bytes <= 25

    def test_entry_larger_than_capacity_not_cached(self):
        cache = ScanPrefixCache(capacity_bytes=4)
        cache.put("r", 1, b"toolarge")
        assert len(cache) == 0

    def test_eviction_follows_lru_order_under_byte_pressure(self):
        """Entries leave strictly least-recently-used-first as bytes overflow."""
        cache = ScanPrefixCache(capacity_bytes=30)
        cache.put("a", 1, b"a" * 10)
        cache.put("b", 1, b"b" * 10)
        cache.put("c", 1, b"c" * 10)
        # Recency now a < b < c; touch a and b so c becomes the LRU entry.
        cache.get("a", 1, 10)
        cache.get("b", 1, 10)
        cache.put("d", 1, b"d" * 10)  # evicts c
        cache.put("e", 1, b"e" * 10)  # evicts a (next LRU after the touches)
        assert cache.get("c", 1, 10) is None
        assert cache.get("a", 1, 10) is None
        assert cache.get("b", 1, 10) == b"b" * 10
        assert cache.get("d", 1, 10) == b"d" * 10
        assert cache.stats()["evictions"] == 2
        assert cache.cached_bytes == 30 and len(cache) == 3

    def test_longer_prefix_replacement_reaccounts_bytes_and_evicts(self):
        """Upgrading an entry to a longer prefix must charge the byte delta
        (not double-count) and evict LRU entries if the upgrade overflows."""
        cache = ScanPrefixCache(capacity_bytes=24)
        cache.put("a", 1, b"a" * 8)
        cache.put("b", 1, b"b" * 8)
        cache.put("a", 3, b"A" * 16)  # upgrade: replaces the 8-byte entry
        assert cache.cached_bytes == 24  # 16 + 8, old 8 bytes released
        assert cache.stats()["evictions"] == 0
        cache.put("b", 5, b"B" * 20)  # upgrade overflows: "a" must go
        assert cache.get("a", 1, 8) is None
        assert cache.get("b", 5, 20) == b"B" * 20
        assert cache.stats()["evictions"] == 1
        assert cache.cached_bytes == 20 and len(cache) == 1

    def test_stats_counters_after_eviction(self):
        cache = ScanPrefixCache(capacity_bytes=20)
        cache.put("a", 2, b"a" * 10)
        cache.put("b", 2, b"b" * 10)
        cache.get("a", 1, 5)  # prefix hit while both entries live
        cache.put("c", 2, b"c" * 10)  # evicts b ("a" was touched)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["cached_bytes"] == 20
        assert cache.get("b", 1, 5) is None  # the evicted entry is a miss now
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["prefix_hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["misses_by_group"]["1"] == 1

    def test_per_group_counters(self):
        cache = ScanPrefixCache(capacity_bytes=1 << 20)
        cache.put("r", 4, b"ABCDEFGH")
        cache.get("r", 2, 4)
        cache.get("r", 2, 4)
        cache.get("r", 9, 16)
        stats = cache.stats()
        assert stats["hits_by_group"]["2"] == 2
        assert stats["misses_by_group"]["9"] == 1
        assert stats["bytes_served_by_group"]["2"] == 8
        assert stats["prefix_hit_rate"] == pytest.approx(2 / 3)


# -- server + client ---------------------------------------------------------


class TestServerClient:
    def test_record_bytes_match_local_reader(self, server, client, pcr_dataset):
        reader = pcr_dataset.reader
        for name in reader.record_names:
            for group in (1, reader.n_groups):
                assert client.get_record_bytes(name, group) == reader.read_record_bytes(
                    name, group
                )

    def test_dataset_meta(self, server, client, pcr_dataset):
        meta = client.dataset_meta()
        assert meta["n_groups"] == pcr_dataset.n_groups
        assert meta["n_samples"] == len(pcr_dataset)
        assert meta["record_names"] == pcr_dataset.record_names

    def test_get_index(self, server, client, pcr_dataset):
        name = pcr_dataset.record_names[0]
        assert client.get_index(name) == pcr_dataset.reader.record_index(name)

    def test_missing_record_raises_remote_error(self, server, client):
        with pytest.raises(protocol.RemoteError) as info:
            client.get_record_bytes("no-such-record.pcr", 1)
        assert info.value.code == protocol.ERR_NOT_FOUND

    def test_bad_scan_group_raises_remote_error(self, server, client, pcr_dataset):
        with pytest.raises(protocol.RemoteError) as info:
            client.get_record_bytes(pcr_dataset.record_names[0], 99)
        assert info.value.code == protocol.ERR_BAD_SCAN_GROUP

    def test_unknown_request_type_gets_error_frame(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(protocol.encode_frame(0x7A, b""))
            msg_type, payload = protocol.read_frame(sock)
        assert msg_type == protocol.MSG_ERROR
        assert protocol.unpack_error(payload).code == protocol.ERR_UNSUPPORTED

    def test_retired_batch_op_is_unsupported_and_the_connection_lives(self, pcr_dataset):
        """0x05 was ``BATCH``: a well-formed frame gets one ``unsupported``
        error, counted once, and the same connection then serves a record."""
        self._assert_retired_op_is_unsupported(
            pcr_dataset, 0x05, lambda request: struct.pack("<H", 1) + request
        )

    def test_retired_report_op_is_unsupported_and_the_connection_lives(self, pcr_dataset):
        """0x07 was ``REPORT_TELEMETRY``: a well-formed report gets one
        ``unsupported`` error, counted once, and the connection lives on."""
        self._assert_retired_op_is_unsupported(
            pcr_dataset, 0x07, lambda request: b'{"scan_group": 1, "n_groups": 10}'
        )

    @staticmethod
    def _assert_retired_op_is_unsupported(pcr_dataset, op, payload):
        reader = pcr_dataset.reader
        name = reader.record_names[0]
        record_request = protocol.pack_record_request(protocol.RecordRequest(name, 1))
        with PCRRecordServer(reader.directory, port=0) as fresh:
            with socket.create_connection(("127.0.0.1", fresh.port), timeout=5) as sock:
                sock.sendall(protocol.encode_frame(op, payload(record_request)))
                msg_type, reply = protocol.read_frame(sock)
                assert msg_type == protocol.MSG_ERROR
                assert protocol.unpack_error(reply).code == protocol.ERR_UNSUPPORTED
                sock.sendall(protocol.encode_frame(protocol.MSG_GET_RECORD, record_request))
                assert protocol.read_frame(sock) == (
                    protocol.MSG_RECORD_DATA, reader.read_record_bytes(name, 1)
                )
            stats = fresh.stats()
        assert stats["errors"] == 1
        assert stats["requests_by_type"] == {"0x01": 1, f"0x{op:02x}": 1}

    def test_truncated_frame_gets_malformed_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            frame = protocol.encode_frame(protocol.MSG_GET_RECORD, b"\x05\x00abc")
            sock.sendall(frame[:-2])  # drop the frame's last bytes, then EOF
            sock.shutdown(socket.SHUT_WR)
            msg_type, payload = protocol.read_frame(sock)
        assert msg_type == protocol.MSG_ERROR
        assert protocol.unpack_error(payload).code == protocol.ERR_MALFORMED

    def test_oversized_announced_payload_rejected(self, server):
        header = struct.pack(
            "<2sBBI", protocol.PROTOCOL_MAGIC, protocol.PROTOCOL_VERSION,
            protocol.MSG_GET_RECORD, protocol.DEFAULT_MAX_PAYLOAD_BYTES + 1,
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(header)
            msg_type, payload = protocol.read_frame(sock)
        assert msg_type == protocol.MSG_ERROR
        assert protocol.unpack_error(payload).code == protocol.ERR_MALFORMED

    def test_stat_counters_and_prefix_cache_hits(self, pcr_dataset):
        # A dedicated server so counters are not shared with other tests.
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as fresh:
            with PCRClient(port=fresh.port) as local_client:
                names = pcr_dataset.record_names
                high = pcr_dataset.n_groups
                for name in names:
                    local_client.get_record_bytes(name, high)  # populate (misses)
                for name in names:
                    local_client.get_record_bytes(name, 1)  # containment hits
                stats = local_client.stat()
        cache = stats["cache"]
        assert cache["misses"] == len(names)
        assert cache["prefix_hits"] == len(names)
        assert cache["prefix_hit_rate"] > 0
        assert cache["bytes_served_by_group"]["1"] > 0
        assert stats["n_requests"] >= 2 * len(names)

    def test_client_reconnects_after_server_restart(self, pcr_dataset):
        directory = pcr_dataset.reader.directory
        first = PCRRecordServer(directory, port=0).start()
        port = first.port
        reconnecting = PCRClient(port=port, pool_size=1)
        name = pcr_dataset.record_names[0]
        expected = pcr_dataset.reader.read_record_bytes(name, 1)
        try:
            assert reconnecting.get_record_bytes(name, 1) == expected
            first.stop()
            with PCRRecordServer(directory, port=port) as second:
                assert second.port == port
                # The pooled socket is stale; the client must retry on a
                # fresh connection transparently.
                assert reconnecting.get_record_bytes(name, 1) == expected
        finally:
            reconnecting.close()

    def test_stop_severs_established_connections(self, pcr_dataset):
        """Graceful shutdown must also end handler threads with live clients."""
        stopping = PCRRecordServer(pcr_dataset.reader.directory, port=0).start()
        holding = PCRClient(port=stopping.port, pool_size=1, retries=0)
        name = pcr_dataset.record_names[0]
        try:
            holding.get_record_bytes(name, 1)  # leaves a pooled live connection
            stopping.stop()
            with pytest.raises(ConnectionError):
                holding.get_record_bytes(name, 1)
        finally:
            holding.close()

    def test_fully_stale_pool_recovers_in_one_retry(self, pcr_dataset):
        """A restart staling *every* pooled socket must not exhaust the retry budget."""
        directory = pcr_dataset.reader.directory
        first = PCRRecordServer(directory, port=0).start()
        port = first.port
        pooled = PCRClient(port=port, pool_size=3, retries=1)
        name = pcr_dataset.record_names[0]
        expected = pcr_dataset.reader.read_record_bytes(name, 1)
        try:
            # Open three real connections so the pool is fully populated.
            connections = [pooled._acquire() for _ in range(3)]
            for connection in connections:
                pooled._release(connection)
            first.stop()
            with PCRRecordServer(directory, port=port) as second:
                assert second.port == port
                assert pooled.get_record_bytes(name, 1) == expected
        finally:
            pooled.close()

    def test_oversized_request_is_the_callers_error_not_a_dead_server(self, pcr_dataset):
        """A request over the client's own frame limit raises before a socket
        is touched: no reconnect, no purged pool, no ``ConnectionError``."""
        name = pcr_dataset.record_names[0]
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as fresh:
            with PCRClient(port=fresh.port, max_payload=1 << 16) as client:
                client.get_record_bytes(name, 1)  # one healthy pooled connection
                pooled = (client._n_open, client._pool.qsize())
                accepted = fresh.stats()["event_loop"]["accepted_connections"]
                with pytest.raises(protocol.FrameTooLargeError):
                    # The longest name a GET_RECORD carries (a u16 length):
                    # 64 KiB of name puts the request over the 64 KiB limit.
                    client.get_record_bytes("x" * 0xFFFF, 1)
                assert (client._n_open, client._pool.qsize()) == pooled == (1, 1)
                assert fresh.stats()["event_loop"]["accepted_connections"] == accepted == 1
                assert client.get_record_bytes(name, 1)  # ... and it still serves

    def test_record_over_the_servers_frame_limit_gets_oversized_error(self, pcr_dataset):
        reader = pcr_dataset.reader
        name = reader.record_names[0]
        limit = reader.bytes_for_group(name, reader.n_groups) - 1
        with PCRRecordServer(reader.directory, port=0, max_payload=limit) as capped:
            with PCRClient(port=capped.port, max_payload=limit) as client:
                assert client.get_record_bytes(name, 1) == reader.read_record_bytes(name, 1)
                with pytest.raises(protocol.RemoteError) as info:
                    client.get_record_bytes(name, reader.n_groups)
                assert info.value.code == protocol.ERR_OVERSIZED

    def test_connection_refused_after_final_stop(self, pcr_dataset):
        server = PCRRecordServer(pcr_dataset.reader.directory, port=0).start()
        port = server.port
        server.stop()
        with pytest.raises(ConnectionError):
            PCRClient(port=port, pool_size=1, retries=0).get_record_bytes("r", 1)

    def test_concurrent_clients_share_cache(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as fresh:
            reader = pcr_dataset.reader
            expected = {
                (name, group): reader.read_record_bytes(name, group)
                for name in reader.record_names
                for group in (1, reader.n_groups)
            }
            failures: list[str] = []

            def fetch_all() -> None:
                with PCRClient(port=fresh.port, pool_size=2) as local_client:
                    for (name, group), want in expected.items():
                        if local_client.get_record_bytes(name, group) != want:
                            failures.append(f"{name}@{group}")

            threads = [threading.Thread(target=fetch_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures
            stats = fresh.cache.stats()
            assert stats["exact_hits"] + stats["prefix_hits"] > 0


# -- remote DataLoader source -----------------------------------------------


def _epoch_batches(loader: DataLoader) -> list[Minibatch]:
    return list(loader.epoch())


class TestRemoteRecordSource:
    """Remote-only extras; the source surface itself is checked once for
    every backend in ``test_record_source.py``."""

    def test_dataloader_multiworker_epoch_complete(self, server, pcr_dataset):
        config = LoaderConfig(batch_size=8, n_workers=3, shuffle=True, seed=7)
        with RemoteRecordSource(port=server.port, scan_group=1) as source:
            batches = _epoch_batches(DataLoader(source, config))
        assert sum(batch.images.shape[0] for batch in batches) == len(pcr_dataset)

    def test_parallel_decode_matches_in_process(self, server, pcr_dataset):
        """A DecodePool behind the remote source changes nothing but the cores used."""
        from repro.codecs.parallel import DecodePool

        names = pcr_dataset.record_names
        with RemoteRecordSource(port=server.port, scan_group=2) as source:
            reference = [source.read_record(name, decode=True) for name in names]
            with DecodePool(2) as pool:
                parallel = [
                    source.read_record(name, decode=True, decode_pool=pool) for name in names
                ]
                assert pool.stats.parallel_batches == len(names)
                for ref_samples, par_samples in zip(reference, parallel):
                    for mine, theirs in zip(ref_samples, par_samples):
                        assert mine.key == theirs.key
                        assert np.array_equal(mine.image.pixels, theirs.image.pixels)
