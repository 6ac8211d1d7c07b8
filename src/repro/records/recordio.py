"""MXNet RecordIO / ImageRecord-style record files.

Each item is framed as::

    u32 magic | u32 length | u32 flag | f32 label | payload (encoded image)

mirroring MXNet's ``IRHeader`` + JPEG payload structure.  Like TFRecords,
the format stores a single quality level per file.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

RECORDIO_MAGIC = 0xCED7230A
_HEADER_STRUCT = "<IIIf"


@dataclass(frozen=True)
class RecordIOItem:
    """One item read from a RecordIO file."""

    index: int
    label: int
    image_bytes: bytes


class RecordIOWriter:
    """Writes already-encoded images into one RecordIO-style file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "wb")
        self.n_items = 0

    def add_sample(self, key: str, stream: bytes, label: int) -> None:
        """Append one item (the key is recorded only as the running index)."""
        del key  # RecordIO identifies items positionally
        header = struct.pack(_HEADER_STRUCT, RECORDIO_MAGIC, len(stream), self.n_items, float(label))
        self._handle.write(header)
        self._handle.write(stream)
        self.n_items += 1

    def write_dataset(self, samples: Iterable[tuple[str, bytes, int]]) -> int:
        """Append every ``(key, stream, label)`` sample and close the file."""
        for key, stream, label in samples:
            self.add_sample(key, stream, label)
        self.close()
        return self.n_items

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RecordIOWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordIOReader:
    """Iterates items from a RecordIO-style file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[RecordIOItem]:
        data = self.path.read_bytes()
        offset = 0
        header_size = struct.calcsize(_HEADER_STRUCT)
        while offset < len(data):
            if offset + header_size > len(data):
                raise ValueError(f"truncated RecordIO header at offset {offset}")
            magic, length, index, label = struct.unpack_from(_HEADER_STRUCT, data, offset)
            if magic != RECORDIO_MAGIC:
                raise ValueError(f"bad RecordIO magic at offset {offset}")
            start = offset + header_size
            if start + length > len(data):
                raise ValueError(f"truncated RecordIO item at offset {offset}")
            yield RecordIOItem(index=index, label=int(label), image_bytes=data[start : start + length])
            offset = start + length

    def total_bytes(self) -> int:
        """Size of the record file in bytes."""
        return self.path.stat().st_size
