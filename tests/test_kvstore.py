"""Tests for the SQLite and LSM key-value stores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.interface import detect_backend, open_store
from repro.kvstore.lsm_store import LSMStore
from repro.kvstore.sqlite_store import SQLiteStore


def _backends(tmp_path):
    return [
        SQLiteStore(tmp_path / "store.db"),
        LSMStore(tmp_path / "store.lsm"),
    ]


@pytest.fixture(params=["sqlite", "lsm"])
def store(request, tmp_path):
    if request.param == "sqlite":
        with SQLiteStore(tmp_path / "s.db") as opened:
            yield opened
    else:
        with LSMStore(tmp_path / "s.lsm") as opened:
            yield opened


class TestKVStoreContract:
    def test_put_get(self, store):
        store.put(b"a", b"1")
        assert store.get(b"a") == b"1"

    def test_get_missing_returns_none(self, store):
        assert store.get(b"missing") is None

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_delete_missing_is_noop(self, store):
        store.delete(b"never-there")

    def test_contains(self, store):
        store.put(b"x", b"y")
        assert b"x" in store
        assert b"z" not in store

    def test_put_many_matches_the_put_loop(self, store):
        items = [(b"record/r0", b"index"), (b"sample/b", b"1"), (b"sample/a", b"2")]
        items.append((b"sample/b", b"overwritten"))  # later pairs win, as with put
        store.put(b"sample/a", b"stale")
        store.put_many(items)
        store.put_many([])
        assert dict(store.scan()) == {b"sample/a": b"stale"} | dict(items)

    def test_scan_in_key_order(self, store):
        for key in [b"c", b"a", b"b"]:
            store.put(key, key.upper())
        assert [k for k, _ in store.scan()] == [b"a", b"b", b"c"]

    def test_scan_prefix(self, store):
        store.put(b"record/001", b"x")
        store.put(b"record/002", b"y")
        store.put(b"sample/001", b"z")
        records = list(store.scan(b"record/"))
        assert len(records) == 2
        assert all(key.startswith(b"record/") for key, _ in records)

    def test_len(self, store):
        for i in range(5):
            store.put(f"k{i}".encode(), b"v")
        assert len(store) == 5

    def test_binary_values(self, store):
        payload = bytes(range(256)) * 10
        store.put(b"bin", payload)
        assert store.get(b"bin") == payload

    @given(st.dictionaries(st.binary(min_size=1, max_size=16), st.binary(max_size=64), max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_semantics(self, tmp_path_factory, mapping):
        directory = tmp_path_factory.mktemp("prop")
        for store in _backends(directory):
            with store:
                for key, value in mapping.items():
                    store.put(key, value)
                for key, value in mapping.items():
                    assert store.get(key) == value
                assert dict(store.scan()) == mapping


class TestLSMSpecifics:
    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "persist.lsm"
        with LSMStore(path) as store:
            store.put(b"k1", b"v1")
            store.put(b"k2", b"v2")
        with LSMStore(path) as store:
            assert store.get(b"k1") == b"v1"
            assert store.get(b"k2") == b"v2"

    def test_wal_replay_without_flush(self, tmp_path):
        path = tmp_path / "wal.lsm"
        store = LSMStore(path)
        store.put(b"unflushed", b"value")
        # Simulate a crash: do not close, just reopen from disk state.
        store._wal_file.flush()
        reopened = LSMStore(path)
        assert reopened.get(b"unflushed") == b"value"
        reopened.close()
        store._wal_file.close()

    def test_memtable_flush_creates_runs(self, tmp_path):
        store = LSMStore(tmp_path / "flush.lsm", memtable_limit_bytes=256)
        for i in range(64):
            store.put(f"key-{i:04d}".encode(), b"x" * 32)
        assert store._runs  # at least one sorted run was written
        for i in range(64):
            assert store.get(f"key-{i:04d}".encode()) == b"x" * 32
        store.close()

    def test_compaction_bounds_run_count(self, tmp_path):
        store = LSMStore(
            tmp_path / "compact.lsm", memtable_limit_bytes=128, max_runs_before_compaction=2
        )
        for i in range(200):
            store.put(f"key-{i:05d}".encode(), b"y" * 16)
        assert len(store._runs) <= 3
        assert store.get(b"key-00150") == b"y" * 16
        store.close()

    def test_tombstones_survive_flush(self, tmp_path):
        store = LSMStore(tmp_path / "tomb.lsm", memtable_limit_bytes=128)
        store.put(b"gone", b"value")
        store.delete(b"gone")
        for i in range(50):
            store.put(f"fill-{i}".encode(), b"z" * 16)
        assert store.get(b"gone") is None
        store.close()

    def test_closed_store_rejects_operations(self, tmp_path):
        store = LSMStore(tmp_path / "closed.lsm")
        store.close()
        with pytest.raises(RuntimeError):
            store.put(b"a", b"b")


class TestBackendSelection:
    def test_open_store_sqlite(self, tmp_path):
        store = open_store(tmp_path / "a.db", "sqlite")
        assert isinstance(store, SQLiteStore)
        store.close()

    def test_open_store_lsm(self, tmp_path):
        store = open_store(tmp_path / "a.lsm", "lsm")
        assert isinstance(store, LSMStore)
        store.close()

    def test_open_store_unknown(self, tmp_path):
        with pytest.raises(ValueError):
            open_store(tmp_path / "x", "rocksdb")

    def test_detect_backend(self, tmp_path):
        sqlite_store = SQLiteStore(tmp_path / "d.db")
        sqlite_store.close()
        lsm_store = LSMStore(tmp_path / "d.lsm")
        lsm_store.close()
        assert detect_backend(tmp_path / "d.db") == "sqlite"
        assert detect_backend(tmp_path / "d.lsm") == "lsm"


class TestSQLiteSpecifics:
    def test_put_many_is_one_transaction(self, tmp_path):
        with SQLiteStore(tmp_path / "tx.db") as store:
            statements: list[str] = []
            store._connection.set_trace_callback(statements.append)
            store.put_many([(bytes([65 + i]), b"v") for i in range(9)])
            assert statements.count("COMMIT") == 1
            statements.clear()
            for i in range(9):
                store.put(bytes([75 + i]), b"v")
            assert statements.count("COMMIT") == 9
            assert len(store) == 18
