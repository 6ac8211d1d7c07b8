"""A simulated filesystem over a block device.

Files are allocated as contiguous extents (record files) or deliberately
scattered extents (to model the fragmentation and metadata overhead of a
File-per-Image directory tree).  Reads go through the device so that every
access pattern is charged realistic simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.device import BlockDevice


@dataclass(frozen=True)
class FileExtent:
    """Location of one stored file on the device."""

    name: str
    offset: int
    length: int


class SimulatedFilesystem:
    """A flat namespace of files stored on a :class:`BlockDevice`."""

    def __init__(self, device: BlockDevice, scatter_stride_bytes: int = 0) -> None:
        self.device = device
        self._files: dict[str, FileExtent] = {}
        #: When non-zero, successive files are placed ``scatter_stride_bytes``
        #: apart instead of back to back, modelling allocator fragmentation.
        self.scatter_stride_bytes = scatter_stride_bytes

    # -- writing ---------------------------------------------------------------

    def write_file(self, name: str, data: bytes) -> FileExtent:
        """Store a file; returns its extent."""
        if name in self._files:
            raise FileExistsError(f"file {name!r} already exists")
        if self.scatter_stride_bytes:
            padding = self.scatter_stride_bytes
            self.device.allocate(padding)
        offset = self.device.allocate(len(data))
        self.device.write(offset, data)
        extent = FileExtent(name=name, offset=offset, length=len(data))
        self._files[name] = extent
        return extent

    # -- reading ---------------------------------------------------------------

    def read_file(self, name: str, length: int | None = None) -> tuple[bytes, float]:
        """Read a file (or its first ``length`` bytes); returns (data, latency).

        Reading a prefix is a single sequential device access — exactly the
        PCR partial-read pattern.
        """
        extent = self._require(name)
        read_length = extent.length if length is None else min(length, extent.length)
        return self.device.read(extent.offset, read_length)

    def file_size(self, name: str) -> int:
        """Size of a stored file in bytes."""
        return self._require(name).length

    def total_bytes(self) -> int:
        """Sum of all stored file sizes."""
        return sum(extent.length for extent in self._files.values())

    def _require(self, name: str) -> FileExtent:
        try:
            return self._files[name]
        except KeyError as exc:
            raise FileNotFoundError(name) from exc
