"""A shard-filtered view over a PCR dataset directory.

Each shard's :class:`~repro.serving.server.PCRRecordServer` must serve only
the records its shard owns — a request routed to the wrong shard has to
fail loudly (``not-found`` on the wire) rather than silently serve bytes
the shard map says belong elsewhere.  ``ShardViewReader`` wraps a
:class:`~repro.core.reader.PCRReader` with exactly the reader surface the
record server consumes, restricted to an owned-name set.

The view recomputes ``n_samples`` from the owned records' indexes so a
shard's ``DATASET_META`` answer describes *its slice*; the cluster client
re-aggregates the slices into the whole-dataset view a ``DataLoader``
expects.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.errors import PCRError
from repro.core.index import RecordIndex
from repro.core.reader import PCRReader, ReadStats


class ShardViewReader:
    """Drop-in ``PCRReader`` facade restricted to one shard's records."""

    def __init__(
        self,
        dataset: str | Path | PCRReader,
        owned_record_names: list[str],
        shard_id: str,
    ) -> None:
        if isinstance(dataset, PCRReader):
            self._reader = dataset
            self._owns_reader = False
        else:
            self._reader = PCRReader(dataset, decode=False)
            self._owns_reader = True
        self.shard_id = shard_id
        available = set(self._reader.record_names)
        unknown = sorted(set(owned_record_names) - available)
        if unknown:
            raise PCRError(
                f"shard {shard_id!r} assigned records missing from the dataset: {unknown[:3]}"
            )
        self._owned = sorted(set(owned_record_names))
        self._owned_set = frozenset(self._owned)
        self._closed = False
        self._n_samples = sum(
            self._reader.record_index(name).n_samples for name in self._owned
        )

    # -- dataset structure (the server's DATASET_META surface) ----------------

    @property
    def directory(self) -> Path:
        return self._reader.directory

    @property
    def dataset_meta(self) -> dict:
        meta = dict(self._reader.dataset_meta)
        meta["shard_id"] = self.shard_id
        return meta

    @property
    def n_groups(self) -> int:
        return self._reader.n_groups

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def record_names(self) -> list[str]:
        return list(self._owned)

    @property
    def stats(self) -> ReadStats:
        return self._reader.stats

    # -- reading ---------------------------------------------------------------

    def _require_owned(self, record_name: str) -> None:
        if record_name not in self._owned_set:
            raise PCRError(
                f"record {record_name!r} is not owned by shard {self.shard_id!r}"
            )

    def record_index(self, record_name: str) -> RecordIndex:
        self._require_owned(record_name)
        return self._reader.record_index(record_name)

    def bytes_for_group(self, record_name: str, scan_group: int) -> int:
        self._require_owned(record_name)
        return self._reader.bytes_for_group(record_name, scan_group)

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        self._require_owned(record_name)
        return self._reader.read_record_bytes(record_name, scan_group)

    def close(self) -> None:
        """Close the underlying reader (idempotent: supervisors may retire a
        replica individually and again during full-cluster shutdown)."""
        if self._owns_reader and not self._closed:
            self._closed = True
            self._reader.close()
