"""Record indexes and the on-disk ``.pcr`` record layout.

A ``.pcr`` record file is laid out as::

    +--------------------------------------------------------------+
    | RECORD HEADER  magic, version, n_samples, n_groups, meta len |
    | METADATA BLOCK sample keys/labels + per-image codec headers  |  <- "scan group 0"
    | SCAN GROUP 1   per-sample framed scan bytes                  |
    | SCAN GROUP 2   per-sample framed scan bytes                  |
    | ...                                                          |
    | SCAN GROUP G   per-sample framed scan bytes                  |
    +--------------------------------------------------------------+

Reading the file prefix up to the end of scan group *k* yields every sample
at quality level *k*.  The end offset of each group is recorded in a
:class:`RecordIndex`, which the writer persists in the metadata database so
the reader knows exactly how many bytes to request for a given quality — the
"offsets allow a partial read of the file" mechanism of Section 3.2.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from repro.core.errors import PCRFormatError, ScanGroupError
from repro.core.metadata import (
    SampleMetadata,
    parse_metadata_block,
    serialize_metadata_block,
)
from repro.kvstore.interface import LSM_BACKEND, SQLITE_BACKEND

#: Where a dataset keeps its indexes, and the keys they sit under; the writer
#: puts them there and the reader (which imports no codec) looks them up.
METADATA_DB_NAME = {SQLITE_BACKEND: "metadata.db", LSM_BACKEND: "metadata.lsm"}
DATASET_META_KEY = b"meta/dataset"
RECORD_KEY_PREFIX = b"record/"
SAMPLE_KEY_PREFIX = b"sample/"

RECORD_MAGIC = b"PCR1"
RECORD_VERSION = 1
_RECORD_HEADER_STRUCT = "<4sHHHI"
RECORD_HEADER_SIZE = struct.calcsize(_RECORD_HEADER_STRUCT)


@dataclass(frozen=True)
class RecordIndex:
    """Byte offsets and sample listing for one ``.pcr`` record."""

    record_name: str
    n_samples: int
    n_groups: int
    metadata_end: int
    group_end_offsets: tuple[int, ...]
    sample_keys: tuple[str, ...] = field(default_factory=tuple)

    def bytes_for_group(self, scan_group: int) -> int:
        """Bytes that must be read to obtain quality level ``scan_group``.

        ``scan_group == 0`` reads only the metadata block.
        """
        if scan_group == 0:
            return self.metadata_end
        if not 1 <= scan_group <= self.n_groups:
            raise ScanGroupError(
                f"scan group {scan_group} out of range [0, {self.n_groups}]"
            )
        return self.group_end_offsets[scan_group - 1]

    @property
    def total_bytes(self) -> int:
        """Total record size in bytes (metadata plus every scan group)."""
        return self.group_end_offsets[-1] if self.group_end_offsets else self.metadata_end

    def to_json(self) -> str:
        return json.dumps(
            {
                "record_name": self.record_name,
                "n_samples": self.n_samples,
                "n_groups": self.n_groups,
                "metadata_end": self.metadata_end,
                "group_end_offsets": list(self.group_end_offsets),
                "sample_keys": list(self.sample_keys),
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "RecordIndex":
        raw = json.loads(payload)
        return cls(
            record_name=raw["record_name"],
            n_samples=int(raw["n_samples"]),
            n_groups=int(raw["n_groups"]),
            metadata_end=int(raw["metadata_end"]),
            group_end_offsets=tuple(int(v) for v in raw["group_end_offsets"]),
            sample_keys=tuple(raw.get("sample_keys", [])),
        )


def serialize_record(
    record_name: str,
    samples: list[SampleMetadata],
    header_prefixes: list[bytes],
    grouped_scans: list[list[bytes]],
) -> tuple[bytes, RecordIndex]:
    """Serialize one record.

    Parameters
    ----------
    samples:
        Metadata for each sample, in record order.
    header_prefixes:
        Per-sample codec header prefix (SOI + SOF) bytes.
    grouped_scans:
        ``grouped_scans[g][i]`` is the concatenated scan-segment bytes of
        sample ``i`` belonging to scan group ``g + 1``.

    Returns the record bytes and its :class:`RecordIndex`.
    """
    n_samples = len(samples)
    if len(header_prefixes) != n_samples:
        raise PCRFormatError("one header prefix required per sample")
    for group in grouped_scans:
        if len(group) != n_samples:
            raise PCRFormatError("each scan group must contain one entry per sample")
    n_groups = len(grouped_scans)

    metadata_block = serialize_metadata_block(samples) + _serialize_framed(header_prefixes)
    header = struct.pack(
        _RECORD_HEADER_STRUCT,
        RECORD_MAGIC,
        RECORD_VERSION,
        n_samples,
        n_groups,
        len(metadata_block),
    )
    parts = [header, metadata_block]
    metadata_end = RECORD_HEADER_SIZE + len(metadata_block)
    offset = metadata_end
    group_end_offsets: list[int] = []
    for group in grouped_scans:
        group_bytes = _serialize_framed(group)
        parts.append(group_bytes)
        offset += len(group_bytes)
        group_end_offsets.append(offset)
    index = RecordIndex(
        record_name=record_name,
        n_samples=n_samples,
        n_groups=n_groups,
        metadata_end=metadata_end,
        group_end_offsets=tuple(group_end_offsets),
        sample_keys=tuple(sample.key for sample in samples),
    )
    return b"".join(parts), index


@dataclass
class ParsedRecordPrefix:
    """The decoded contents of a record prefix read up to some scan group."""

    samples: list[SampleMetadata]
    header_prefixes: list[bytes]
    scans_per_sample: list[list[bytes]]
    n_groups_present: int
    n_groups_total: int


def parse_record_prefix(data: bytes) -> ParsedRecordPrefix:
    """Parse a record prefix (any number of complete scan groups).

    ``data`` must contain at least the record header and metadata block; any
    complete scan groups that follow are unpacked into per-sample scan bytes.
    An incomplete trailing group (possible only if the caller read an
    arbitrary prefix rather than a group boundary) is ignored.
    """
    if len(data) < RECORD_HEADER_SIZE:
        raise PCRFormatError("record prefix shorter than the record header")
    magic, version, n_samples, n_groups, metadata_length = struct.unpack_from(
        _RECORD_HEADER_STRUCT, data, 0
    )
    if magic != RECORD_MAGIC:
        raise PCRFormatError(f"bad record magic {magic!r}")
    if version != RECORD_VERSION:
        raise PCRFormatError(f"unsupported record version {version}")
    metadata_end = RECORD_HEADER_SIZE + metadata_length
    if len(data) < metadata_end:
        raise PCRFormatError("record prefix truncated inside the metadata block")
    metadata_block = data[RECORD_HEADER_SIZE:metadata_end]
    samples, samples_end = parse_metadata_block(metadata_block)
    header_prefixes, _ = _parse_framed(metadata_block, samples_end, n_samples)

    scans_per_sample: list[list[bytes]] = [[] for _ in range(n_samples)]
    offset = metadata_end
    groups_present = 0
    for _ in range(n_groups):
        parsed = _try_parse_framed(data, offset, n_samples)
        if parsed is None:
            break
        entries, offset = parsed
        for sample_index, entry in enumerate(entries):
            scans_per_sample[sample_index].append(entry)
        groups_present += 1
    return ParsedRecordPrefix(
        samples=samples,
        header_prefixes=header_prefixes,
        scans_per_sample=scans_per_sample,
        n_groups_present=groups_present,
        n_groups_total=n_groups,
    )


def _serialize_framed(entries: list[bytes]) -> bytes:
    parts = []
    for entry in entries:
        parts.append(struct.pack("<I", len(entry)))
        parts.append(entry)
    return b"".join(parts)


def _parse_framed(data: bytes, offset: int, count: int) -> tuple[list[bytes], int]:
    entries: list[bytes] = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise PCRFormatError("framed entry truncated")
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise PCRFormatError("framed entry payload truncated")
        entries.append(data[offset : offset + length])
        offset += length
    return entries, offset


def _try_parse_framed(data: bytes, offset: int, count: int) -> tuple[list[bytes], int] | None:
    try:
        return _parse_framed(data, offset, count)
    except PCRFormatError:
        return None
