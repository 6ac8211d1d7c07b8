"""PCR record writer: progressive streams into ``.pcr`` records + metadata DB.

Given progressive streams, the record half of the encoder (Section 3.2)
splits each stream into its scans, groups scans of the same quality across
images into scan groups, sorts the groups by quality, and serializes them
after the record's label metadata.  Scan-group byte offsets are stored in the
metadata database so readers can issue exact-length partial reads.  Turning
pixels or baseline bytes into progressive streams is
:func:`repro.core.convert.convert_to_pcr`'s job, not the writer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import PCRError
from repro.core.index import (
    DATASET_META_KEY,
    METADATA_DB_NAME,
    RECORD_KEY_PREFIX,
    SAMPLE_KEY_PREFIX,
    RecordIndex,
    serialize_record,
)
from repro.core.metadata import SampleMetadata
from repro.core.scan_groups import ScanGroupPolicy
from repro.kvstore.interface import SQLITE_BACKEND, open_store

DEFAULT_IMAGES_PER_RECORD = 64
RECORD_NAME_TEMPLATE = "record-{:05d}.pcr"


@dataclass(frozen=True)
class WriteResult:
    """Summary of a completed PCR dataset write."""

    directory: Path
    n_records: int
    n_samples: int
    n_groups: int
    total_bytes: int


class PCRWriter:
    """Writes a PCR dataset directory from already-encoded progressive streams.

    The writer encodes nothing: every sample arrives as a progressive
    stream, whose scan count is checked against the policy.

    Parameters
    ----------
    output_dir:
        Directory to create the dataset in (created if missing).
    images_per_record:
        Number of samples batched into each ``.pcr`` record.
    policy:
        Scan-group policy; its scan count must match the streams' scripts.
    backend:
        Metadata database backend, ``"sqlite"`` or ``"lsm"``.
    """

    def __init__(
        self,
        output_dir: str | Path,
        images_per_record: int = DEFAULT_IMAGES_PER_RECORD,
        policy: ScanGroupPolicy | None = None,
        backend: str = SQLITE_BACKEND,
    ) -> None:
        if images_per_record < 1:
            raise ValueError("images_per_record must be >= 1")
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.images_per_record = images_per_record
        self.policy = policy if policy is not None else ScanGroupPolicy.identity()
        self.backend = backend
        self._store = open_store(self.output_dir / METADATA_DB_NAME[backend], backend)
        # (metadata, header prefix, scan segments) of each buffered sample.
        self._pending: list[tuple[SampleMetadata, bytes, list[bytes]]] = []
        self._record_indexes: list[RecordIndex] = []
        self._n_samples = 0
        self._total_bytes = 0
        self._closed = False

    # -- public API --------------------------------------------------------

    @property
    def pending_samples(self) -> int:
        """Samples buffered but not yet flushed into a record.

        Always ``< images_per_record`` after :meth:`add_sample` returns —
        the bound streaming converters rely on (and tests assert) for
        chunk-sized peak memory.
        """
        return len(self._pending)

    def add_sample(
        self,
        key: str,
        stream: bytes,
        label: int,
        attributes: dict[str, float] | None = None,
    ) -> None:
        """Queue one progressive stream; records are flushed when full.

        A stream whose scan count does not match the policy is rejected here
        with a :class:`PCRError` naming ``key``; nothing is buffered, so the
        writer stays usable for the samples that follow.
        """
        from repro.codecs.progressive import split_scans  # the writer's one codec call

        self._assert_open()
        prefix, scans = split_scans(bytes(stream))
        if len(scans) != self.policy.n_scans:
            raise PCRError(
                f"sample {key!r} has {len(scans)} scans but the scan-group policy "
                f"expects {self.policy.n_scans}; use a matching codec script"
            )
        metadata = SampleMetadata(key=key, label=label, attributes=attributes or {})
        self._pending.append((metadata, prefix, scans))
        self._n_samples += 1
        if len(self._pending) >= self.images_per_record:
            self._flush_record()

    def finalize(self) -> WriteResult:
        """Flush any partial record, write dataset metadata, and close the DB."""
        self._assert_open()
        if self._pending:
            self._flush_record()
        self._write_dataset_metadata()
        self._store.close()
        self._closed = True
        return WriteResult(
            directory=self.output_dir,
            n_records=len(self._record_indexes),
            n_samples=self._n_samples,
            n_groups=self.policy.n_groups,
            total_bytes=self._total_bytes,
        )

    close = finalize

    def __enter__(self) -> "PCRWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._closed:
            return
        if exc_type is None:
            self.finalize()
        else:
            # Abandoned mid-write: no dataset metadata, but no leaked handle.
            self._store.close()
            self._closed = True

    # -- internals ---------------------------------------------------------

    def _assert_open(self) -> None:
        if self._closed:
            raise PCRError("writer already finalized")

    def _flush_record(self) -> None:
        record_name = RECORD_NAME_TEMPLATE.format(len(self._record_indexes))
        samples, header_prefixes, per_sample_scans = map(list, zip(*self._pending))

        grouped_scans: list[list[bytes]] = []
        for group_index in range(1, self.policy.n_groups + 1):
            scan_indices = self.policy.scans_in_group(group_index)
            group_entries = [
                b"".join(scans[scan - 1] for scan in scan_indices)
                for scans in per_sample_scans
            ]
            grouped_scans.append(group_entries)

        record_bytes, index = serialize_record(
            record_name, samples, header_prefixes, grouped_scans
        )
        # The record file lands before its index rows, and the rows land in
        # one transaction: a crash never leaves a row naming a missing file.
        (self.output_dir / record_name).write_bytes(record_bytes)
        self._total_bytes += len(record_bytes)
        self._record_indexes.append(index)
        rows = [(RECORD_KEY_PREFIX + record_name.encode(), index.to_json().encode())]
        for position, metadata in enumerate(samples):
            sample_entry = (
                f'{{"record": "{record_name}", "position": {position}, '
                f'"label": {metadata.label}}}'
            ).encode()
            rows.append((SAMPLE_KEY_PREFIX + metadata.key.encode(), sample_entry))
        self._store.put_many(rows)
        self._pending.clear()

    def _write_dataset_metadata(self) -> None:
        import json

        payload = {
            "version": 1,
            "backend": self.backend,
            "n_records": len(self._record_indexes),
            "n_samples": self._n_samples,
            "n_groups": self.policy.n_groups,
            "n_scans": self.policy.n_scans,
            "group_boundaries": [group[-1] for group in self.policy.groups],
            "images_per_record": self.images_per_record,
        }
        self._store.put(DATASET_META_KEY, json.dumps(payload).encode())
