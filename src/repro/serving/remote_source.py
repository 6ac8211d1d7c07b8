"""Network-backed record sources: a wire fetcher under the shared source.

``RemoteFetcher`` adapts a :class:`~repro.serving.client.RecordClient` (a
``PCRClient`` or a :class:`~repro.serving.cluster.client.ClusterClient`) to
the :class:`~repro.core.source.RecordFetcher` protocol, so
``RemoteRecordSource`` is the same :class:`~repro.core.source.RecordSource`
a local ``PCRDataset`` is — it only fetches record bytes from a
:class:`~repro.serving.server.PCRRecordServer` instead of the local
filesystem.  Decoding stays on the client: the server ships compressed
prefixes, so the network carries exactly the bytes the fidelity target
requires, and a tuner that calls a ``DataLoader``'s ``set_scan_group``
mid-training retargets that loader's every subsequent fetch (the
over-the-network version of the paper's lightweight quality switch).
"""

from __future__ import annotations

import threading

from repro.core.index import RecordIndex
from repro.core.source import RecordSource
from repro.obs import get_tracer
from repro.serving.client import PCRClient, RecordClient


class RemoteFetcher:
    """A :class:`~repro.core.source.RecordFetcher` over a wire client.

    Construction performs the ``DATASET_META`` handshake (and closes the
    client if it fails, so no pooled socket leaks); offset indexes are
    fetched once and cached.  A read is one ``GET_RECORD`` round trip.
    """

    def __init__(self, client: RecordClient) -> None:
        self.client = client
        try:
            meta = client.dataset_meta()
        except BaseException:
            client.close()
            raise
        self.dataset_meta: dict = meta["dataset"]
        self.n_groups: int = int(meta["n_groups"])
        self.n_samples: int = int(meta["n_samples"])
        self._record_names: list[str] = list(meta["record_names"])
        self._indexes: dict[str, RecordIndex] = {}
        self._lock = threading.Lock()

    @property
    def record_names(self) -> list[str]:
        """Record names, as enumerated by the server."""
        return list(self._record_names)

    def record_index(self, record_name: str) -> RecordIndex:
        """Offset index of one record, fetched once and cached."""
        with self._lock:
            index = self._indexes.get(record_name)
        if index is None:
            index = self.client.get_index(record_name)
            with self._lock:
                self._indexes[record_name] = index
        return index

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """One record prefix in one ``GET_RECORD`` round trip."""
        with get_tracer().span("loader.fetch", {"record": record_name}):
            return self.client.get_record_bytes(record_name, scan_group)

    def close(self) -> None:
        self.client.close()


class RemoteRecordSource(RecordSource):
    """Reads PCR records from a record server; drop-in ``DataLoader`` source."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scan_group: int | None = None,
        decode: bool = True,
    ) -> None:
        super().__init__(RemoteFetcher(PCRClient(host=host, port=port)), scan_group, decode)

    @property
    def client(self) -> PCRClient:
        """The pooled wire client this source fetches through."""
        return self.fetcher.client  # type: ignore[attr-defined]
