"""Per-sample metadata carried in the PCR metadata block (scan group 0).

The paper stores labels (or other small annotations such as bounding boxes)
ahead of the scan groups; this metadata is "typically ~100 bytes" per record
for classification labels (Figure 16 caption).  ``SampleMetadata`` holds the
sample key, its integer label, and an optional free-form attribute mapping
(e.g. bounding boxes), and serializes compactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SampleMetadata:
    """Metadata for one training sample."""

    key: str
    label: int
    attributes: dict[str, float] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Serialize as length-prefixed key + label + optional attributes."""
        key_bytes = self.key.encode("utf-8")
        attribute_bytes = (
            json.dumps(self.attributes, sort_keys=True).encode("utf-8")
            if self.attributes
            else b""
        )
        return (
            struct.pack("<HqH", len(key_bytes), self.label, len(attribute_bytes))
            + key_bytes
            + attribute_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["SampleMetadata", int]:
        """Deserialize a sample written by :meth:`to_bytes`.

        Returns ``(metadata, next_offset)``.
        """
        key_length, label, attribute_length = struct.unpack_from("<HqH", data, offset)
        cursor = offset + struct.calcsize("<HqH")
        key = data[cursor : cursor + key_length].decode("utf-8")
        cursor += key_length
        attributes: dict[str, float] = {}
        if attribute_length:
            attributes = json.loads(data[cursor : cursor + attribute_length].decode("utf-8"))
        cursor += attribute_length
        return cls(key=key, label=label, attributes=attributes), cursor

    def with_label(self, label: int) -> "SampleMetadata":
        """Return a copy with a remapped label (used for task remapping)."""
        return SampleMetadata(key=self.key, label=label, attributes=dict(self.attributes))


def serialize_metadata_block(samples: list[SampleMetadata]) -> bytes:
    """Serialize the metadata of all samples in a record."""
    parts = [struct.pack("<I", len(samples))]
    parts.extend(sample.to_bytes() for sample in samples)
    return b"".join(parts)


def parse_metadata_block(data: bytes) -> tuple[list[SampleMetadata], int]:
    """Parse a metadata block written by :func:`serialize_metadata_block`.

    Returns ``(samples, end_offset)``: whatever follows the block in ``data``
    starts at ``end_offset``.
    """
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    samples: list[SampleMetadata] = []
    for _ in range(count):
        sample, offset = SampleMetadata.from_bytes(data, offset)
        samples.append(sample)
    return samples, offset
