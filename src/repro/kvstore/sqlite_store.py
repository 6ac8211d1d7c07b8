"""SQLite-backed key-value store."""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterator
from pathlib import Path

from repro.kvstore.interface import KVStore


class SQLiteStore(KVStore):
    """A :class:`KVStore` stored in a single SQLite database file.

    The store may be read from multiple threads (the prefetching data loader
    issues lookups from its worker pool); a process-level lock serializes
    access to the shared connection.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self._connection = sqlite3.connect(str(self._path), check_same_thread=False)
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS kv (key BLOB PRIMARY KEY, value BLOB NOT NULL)"
        )
        self._connection.commit()

    @property
    def path(self) -> Path:
        """Filesystem location of the database file."""
        return self._path

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT INTO kv (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )
            self._connection.commit()

    def put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        """Insert many pairs in one transaction: the writer's one commit per record."""
        with self._lock:
            self._connection.executemany(
                "INSERT INTO kv (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                items,
            )
            self._connection.commit()

    def get(self, key: bytes) -> bytes | None:
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM kv WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else bytes(row[0])

    def delete(self, key: bytes) -> None:
        with self._lock:
            self._connection.execute("DELETE FROM kv WHERE key = ?", (key,))
            self._connection.commit()

    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        with self._lock:
            if prefix:
                upper = prefix[:-1] + bytes([prefix[-1] + 1]) if prefix[-1] < 0xFF else None
                if upper is None:
                    cursor = self._connection.execute(
                        "SELECT key, value FROM kv WHERE key >= ? ORDER BY key", (prefix,)
                    )
                else:
                    cursor = self._connection.execute(
                        "SELECT key, value FROM kv WHERE key >= ? AND key < ? ORDER BY key",
                        (prefix, upper),
                    )
            else:
                cursor = self._connection.execute("SELECT key, value FROM kv ORDER BY key")
            rows = cursor.fetchall()
        for key, value in rows:
            key_bytes = bytes(key)
            if key_bytes.startswith(prefix):
                yield key_bytes, bytes(value)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.commit()
            self._connection.close()
