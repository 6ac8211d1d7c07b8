"""Abstract key-value store interface and backend selection."""

from __future__ import annotations

import abc
from collections.abc import Iterator
from pathlib import Path

SQLITE_BACKEND = "sqlite"
LSM_BACKEND = "lsm"
BACKENDS = (SQLITE_BACKEND, LSM_BACKEND)


class KVStore(abc.ABC):
    """A byte-keyed, byte-valued persistent store.

    Implementations must support point reads/writes, deletes, prefix
    iteration in key order, and explicit close.  Stores are context
    managers; exiting the context closes (and flushes) the store.
    """

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    def put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        """Insert or overwrite every ``(key, value)`` pair, in order.

        The default is the :meth:`put` loop; a backend with transactions
        overrides it to pay for one.
        """
        for key, value in items:
            self.put(key, value)

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None`` if absent."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key`` if present (no error if absent)."""

    @abc.abstractmethod
    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with the given prefix, in key order."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release resources."""

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


def open_store(path: str | Path, backend: str = SQLITE_BACKEND) -> KVStore:
    """Open (creating if necessary) a store of the requested backend."""
    from repro.kvstore.lsm_store import LSMStore
    from repro.kvstore.sqlite_store import SQLiteStore

    if backend == SQLITE_BACKEND:
        return SQLiteStore(path)
    if backend == LSM_BACKEND:
        return LSMStore(path)
    raise ValueError(f"unknown kvstore backend {backend!r}; expected one of {BACKENDS}")


def detect_backend(path: str | Path) -> str:
    """Guess which backend created the store at ``path``.

    SQLite stores are single files; LSM stores are directories containing a
    manifest.
    """
    path = Path(path)
    if path.is_dir():
        return LSM_BACKEND
    return SQLITE_BACKEND
