"""PCR decoder: read records at a chosen scan group with sequential I/O.

To decode a PCR file at quality level *k*, the reader looks the record's
scan-group offsets up in the metadata database, reads the file prefix up to
the end of scan group *k* in one sequential read, re-assembles each sample's
byte stream (header prefix + its scans + EOI), and hands the streams to the
codec (Section 3.2, "Decoding").
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import MissingSampleError, PCRError, ScanGroupError
from repro.core.index import (
    DATASET_META_KEY,
    METADATA_DB_NAME,
    RECORD_KEY_PREFIX,
    SAMPLE_KEY_PREFIX,
    RecordIndex,
    parse_record_prefix,
)
from repro.core.metadata import SampleMetadata
from repro.kvstore.interface import LSM_BACKEND, SQLITE_BACKEND, open_store
from repro.obs import get_registry, get_tracer

if TYPE_CHECKING:
    from repro.codecs.image import ImageBuffer


@dataclass(frozen=True)
class PCRSample:
    """One decoded (or still-encoded) sample returned by the reader."""

    metadata: SampleMetadata
    stream: bytes
    image: ImageBuffer | None = None

    @property
    def key(self) -> str:
        return self.metadata.key

    @property
    def label(self) -> int:
        return self.metadata.label


#: One in-process decode at a time, process-wide.  The entropy and pixel
#: stages are Python and NumPy calls too short to overlap under the
#: interpreter lock: two loader threads decoding at once measured 0.8x the
#: throughput of one (docs/performance.md, "Loader threads").  Threads still
#: overlap what releases the lock for real — file and socket reads, the
#: consumer's collate — and cores are ``DecodePool``'s job, which never
#: takes this gate.
_DECODE_GATE = threading.Lock()


def validate_scan_group(scan_group: int, n_groups: int) -> None:
    """Raise :class:`ScanGroupError` unless ``1 <= scan_group <= n_groups``."""
    if not 1 <= scan_group <= n_groups:
        raise ScanGroupError(f"scan group {scan_group} out of range [1, {n_groups}]")


def assemble_samples(data: bytes, decode: bool, decode_pool=None) -> list[PCRSample]:
    """Parse one record prefix and rebuild one decodable sample per entry.

    Shared by the local reader and every
    :class:`~repro.core.source.RecordSource`, so the stream-reassembly
    invariant lives in exactly one place.  The record decodes through one
    batch call (:func:`~repro.codecs.progressive.decode_progressive_batch`):
    at scan group 1 its streams share one frame-header parse, one sequence
    of entropy walks and one block-resolution colour pass, and an error
    names the sample that broke (``"stream i of n"``).  A ``decode_pool``
    passed in (a :class:`~repro.codecs.parallel.DecodePool`: the same batch
    call with byte-identical output, but on worker processes, each taking a
    chunk of the record, with the pixels coming back through shared memory)
    parallelizes it.

    Without a pool the decode runs under ``_DECODE_GATE``.  The gate is
    taken *before* the ``loader.decode`` span opens, so that span keeps
    meaning decode: time queued behind another thread's decode is its own
    ``loader.decode_wait`` span and ``loader.decode_wait_seconds``
    observation.  The codec is imported here, not at module level, so a
    process that only serves record bytes never loads it.
    """
    from repro.codecs.progressive import assemble_partial_stream, decode_progressive_batch

    parsed = parse_record_prefix(data)
    streams = [
        assemble_partial_stream(prefix, scans)
        for prefix, scans in zip(parsed.header_prefixes, parsed.scans_per_sample)
    ]
    images: list = [None] * len(streams)
    if decode:
        tracer = get_tracer()
        if decode_pool is not None:
            with tracer.span("loader.decode", {"streams": len(streams)}):
                images = decode_pool.decode_batch(streams)
        else:
            wait_start = time.perf_counter()
            with _DECODE_GATE:
                waited = time.perf_counter() - wait_start
                tracer.add_event("loader.decode_wait", wait_start, waited)
                get_registry().histogram("loader.decode_wait_seconds").observe(waited)
                with tracer.span("loader.decode", {"streams": len(streams)}):
                    images = decode_progressive_batch(streams)
    return [
        PCRSample(metadata=metadata, stream=stream, image=image)
        for metadata, stream, image in zip(parsed.samples, streams, images)
    ]


@dataclass
class ReadStats:
    """Aggregate I/O accounting for a reader instance."""

    bytes_read: int = 0
    records_read: int = 0
    samples_decoded: int = 0

    def add(self, n_bytes: int, n_samples: int = 0) -> None:
        """Count one record read of ``n_bytes`` that decoded ``n_samples``."""
        self.bytes_read += n_bytes
        self.records_read += 1
        self.samples_decoded += n_samples

    def reset(self) -> None:
        self.bytes_read = 0
        self.records_read = 0
        self.samples_decoded = 0


class PCRReader:
    """Reads a PCR dataset directory produced by :class:`PCRWriter`.

    One reader may be shared by many threads (``DataLoader`` workers, record
    server handler threads): the index cache, the I/O counters, and metadata
    store access are guarded by an internal lock, and record files are opened
    per-read so no file position is shared across threads.  Decoding happens
    outside the lock — the codec is stateless — so concurrent reads still
    overlap where it matters.
    """

    def __init__(self, directory: str | Path, decode: bool = True) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise PCRError(f"{self.directory} is not a PCR dataset directory")
        self._store = self._open_store()
        meta_raw = self._store.get(DATASET_META_KEY)
        if meta_raw is None:
            raise PCRError("metadata database has no dataset entry; was the writer finalized?")
        self.dataset_meta = json.loads(meta_raw.decode())
        self.n_groups: int = int(self.dataset_meta["n_groups"])
        self.decode_by_default = decode
        self._indexes: dict[str, RecordIndex] = {}
        self._lock = threading.Lock()
        self.stats = ReadStats()

    def _open_store(self):
        for backend in (SQLITE_BACKEND, LSM_BACKEND):
            path = self.directory / METADATA_DB_NAME[backend]
            if path.exists():
                return open_store(path, backend)
        raise PCRError(f"no metadata database found in {self.directory}")

    # -- dataset structure ---------------------------------------------------

    @property
    def record_names(self) -> list[str]:
        """Names of every record in the dataset, in write order."""
        with self._lock:
            names = [
                key[len(RECORD_KEY_PREFIX) :].decode()
                for key, _ in self._store.scan(RECORD_KEY_PREFIX)
            ]
        return sorted(names)

    @property
    def n_samples(self) -> int:
        """Total number of samples in the dataset."""
        return int(self.dataset_meta["n_samples"])

    def record_index(self, record_name: str) -> RecordIndex:
        """Return the offset index of one record (cached)."""
        with self._lock:
            index = self._indexes.get(record_name)
            if index is None:
                raw = self._store.get(RECORD_KEY_PREFIX + record_name.encode())
                if raw is None:
                    raise PCRError(f"record {record_name!r} not found in the metadata database")
                index = RecordIndex.from_json(raw.decode())
                self._indexes[record_name] = index
        return index

    def bytes_for_group(self, record_name: str, scan_group: int) -> int:
        """Bytes a reader must fetch to get ``record_name`` at ``scan_group``."""
        return self.record_index(record_name).bytes_for_group(scan_group)

    def dataset_bytes_for_group(self, scan_group: int) -> int:
        """Total bytes read per epoch at the given scan group."""
        return sum(self.bytes_for_group(name, scan_group) for name in self.record_names)

    # -- reading -------------------------------------------------------------

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """Sequentially read the record prefix up to ``scan_group``."""
        validate_scan_group(scan_group, self.n_groups)
        index = self.record_index(record_name)
        length = index.bytes_for_group(scan_group)
        path = self.directory / record_name
        # A fresh file handle per read: concurrent readers never share a
        # file position, so the lock only needs to cover the counters.
        with get_tracer().span("loader.fetch", {"record": record_name}):
            with open(path, "rb") as handle:
                data = handle.read(length)
        if len(data) != length:
            raise PCRError(f"short read on {record_name}: got {len(data)} of {length} bytes")
        with self._lock:
            self.stats.bytes_read += length
            self.stats.records_read += 1
        return data

    def read_record(
        self, record_name: str, scan_group: int, decode: bool | None = None
    ) -> list[PCRSample]:
        """Read and reassemble every sample in a record at ``scan_group``.

        When ``decode`` is true the samples carry decoded
        :class:`~repro.codecs.image.ImageBuffer` pixels; otherwise only the
        reassembled (partial) codec streams are returned, which is what a
        data-loading pipeline that defers decoding to worker threads uses.
        """
        decode = self.decode_by_default if decode is None else decode
        data = self.read_record_bytes(record_name, scan_group)
        samples = assemble_samples(data, decode)
        if decode:
            with self._lock:
                self.stats.samples_decoded += len(samples)
        return samples

    def read_sample(self, key: str, scan_group: int, decode: bool | None = None) -> PCRSample:
        """Random access to a single sample by key.

        Note that PCRs are optimized for whole-record sequential access; a
        single-sample read still fetches the record prefix.
        """
        with self._lock:
            raw = self._store.get(SAMPLE_KEY_PREFIX + key.encode())
        if raw is None:
            raise MissingSampleError(key)
        entry = json.loads(raw.decode())
        samples = self.read_record(entry["record"], scan_group, decode=decode)
        return samples[entry["position"]]

    def close(self) -> None:
        """Close the metadata database."""
        with self._lock:
            self._store.close()

    def __enter__(self) -> "PCRReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
