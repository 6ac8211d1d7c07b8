"""TFRecord-style record files.

Each record file is a sequence of framed examples::

    u64 payload_length | u32 length_crc | payload | u32 payload_crc

The payload is a tiny feature map (key, label, encoded image) serialized
with a minimal tag-length-value scheme standing in for the protobuf
``tf.train.Example`` message.  As in TensorFlow, the file supports only
full sequential iteration at the single quality it was encoded with.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

_LENGTH_STRUCT = "<QI"
_CRC_STRUCT = "<I"

_TAG_KEY = 1
_TAG_LABEL = 2
_TAG_IMAGE = 3


def _masked_crc(data: bytes) -> int:
    """TFRecord-style masked CRC32C (plain CRC32 is used here)."""
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return ((crc >> 15) | (crc << 17)) & 0xFFFFFFFF ^ 0xA282EAD8


@dataclass(frozen=True)
class TFExample:
    """One (key, label, encoded image) example."""

    key: str
    label: int
    image_bytes: bytes

    def to_bytes(self) -> bytes:
        key_bytes = self.key.encode("utf-8")
        parts = [
            struct.pack("<BI", _TAG_KEY, len(key_bytes)),
            key_bytes,
            struct.pack("<BI", _TAG_LABEL, 8),
            struct.pack("<q", self.label),
            struct.pack("<BI", _TAG_IMAGE, len(self.image_bytes)),
            self.image_bytes,
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "TFExample":
        offset = 0
        key = ""
        label = 0
        image_bytes = b""
        while offset < len(payload):
            tag, length = struct.unpack_from("<BI", payload, offset)
            offset += 5
            value = payload[offset : offset + length]
            offset += length
            if tag == _TAG_KEY:
                key = value.decode("utf-8")
            elif tag == _TAG_LABEL:
                (label,) = struct.unpack("<q", value)
            elif tag == _TAG_IMAGE:
                image_bytes = value
        return cls(key=key, label=label, image_bytes=image_bytes)


class TFRecordWriter:
    """Writes examples of already-encoded images into one TFRecord-style file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "wb")
        self.n_examples = 0

    def add_sample(self, key: str, stream: bytes, label: int) -> None:
        """Append one example."""
        payload = TFExample(key=key, label=label, image_bytes=stream).to_bytes()
        length_bytes = struct.pack("<Q", len(payload))
        self._handle.write(length_bytes)
        self._handle.write(struct.pack(_CRC_STRUCT, _masked_crc(length_bytes)))
        self._handle.write(payload)
        self._handle.write(struct.pack(_CRC_STRUCT, _masked_crc(payload)))
        self.n_examples += 1

    def write_dataset(self, samples: Iterable[tuple[str, bytes, int]]) -> int:
        """Append every ``(key, stream, label)`` sample and close the file."""
        for key, stream, label in samples:
            self.add_sample(key, stream, label)
        self.close()
        return self.n_examples

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TFRecordWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TFRecordReader:
    """Iterates examples from a TFRecord-style file."""

    def __init__(self, path: str | Path, verify_crc: bool = True) -> None:
        self.path = Path(path)
        self.verify_crc = verify_crc

    def __iter__(self) -> Iterator[TFExample]:
        data = self.path.read_bytes()
        offset = 0
        while offset < len(data):
            if offset + 12 > len(data):
                raise ValueError(f"truncated example header at offset {offset}")
            length, length_crc = struct.unpack_from(_LENGTH_STRUCT, data, offset)
            if self.verify_crc and _masked_crc(data[offset : offset + 8]) != length_crc:
                raise ValueError(f"corrupt length CRC at offset {offset}")
            start = offset + 12
            end = start + length
            if end + 4 > len(data):
                raise ValueError(f"truncated example at offset {offset}")
            (payload_crc,) = struct.unpack_from(_CRC_STRUCT, data, end)
            if self.verify_crc and _masked_crc(data[start:end]) != payload_crc:
                raise ValueError(f"corrupt payload CRC at offset {offset}")
            yield TFExample.from_bytes(data[start:end])
            offset = end + 4

    def total_bytes(self) -> int:
        """Size of the record file in bytes."""
        return self.path.stat().st_size
