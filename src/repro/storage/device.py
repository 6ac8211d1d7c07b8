"""Simulated block devices.

A :class:`BlockDevice` stores data in memory but charges simulated time for
every access according to a :class:`DeviceProfile`: a fixed per-operation
setup cost (seek + rotational latency for HDDs, command overhead for SSDs)
plus a bandwidth term.  Sequential accesses that continue from the previous
position skip the seek charge — this is what gives record layouts (and PCR
prefix reads) their advantage over File-per-Image random reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.io_stats import IOStats


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/bandwidth parameters of a storage device."""

    name: str
    bandwidth_bytes_per_second: float
    seek_seconds: float
    sequential_threshold_bytes: int = 0

    def access_time(self, n_bytes: int, sequential: bool) -> float:
        """Simulated service time of one access of ``n_bytes``."""
        transfer = n_bytes / self.bandwidth_bytes_per_second
        if sequential:
            return transfer
        return self.seek_seconds + transfer


#: A 7200 RPM SATA HDD (as used by the paper's Ceph OSD nodes): ~8.5 ms average
#: seek + rotational latency, ~160 MiB/s sequential bandwidth.
HDD_PROFILE = DeviceProfile(
    name="hdd-7200rpm",
    bandwidth_bytes_per_second=160 * 1024 * 1024,
    seek_seconds=8.5e-3,
)

#: A SATA SSD comparable to the paper's microbenchmark drive (~400 MiB/s loaded
#: read bandwidth, ~80 us access overhead).
SSD_PROFILE = DeviceProfile(
    name="sata-ssd",
    bandwidth_bytes_per_second=400 * 1024 * 1024,
    seek_seconds=80e-6,
)

#: Main memory, for compute-bound comparisons.
MEMORY_PROFILE = DeviceProfile(
    name="memory",
    bandwidth_bytes_per_second=10 * 1024 * 1024 * 1024,
    seek_seconds=1e-7,
)


class BlockDevice:
    """A byte-addressable simulated device with latency accounting."""

    def __init__(self, profile: DeviceProfile, capacity_bytes: int = 1 << 32) -> None:
        self.profile = profile
        self.capacity_bytes = capacity_bytes
        self._data: dict[int, bytes] = {}
        self._next_free = 0
        self._last_position: int | None = None
        self.stats = IOStats()
        self.clock_seconds = 0.0

    # -- allocation ----------------------------------------------------------

    def allocate(self, n_bytes: int) -> int:
        """Reserve a contiguous extent; returns its start offset."""
        if self._next_free + n_bytes > self.capacity_bytes:
            raise IOError(
                f"device {self.profile.name} out of space "
                f"({self._next_free + n_bytes} > {self.capacity_bytes})"
            )
        offset = self._next_free
        self._next_free += n_bytes
        return offset

    # -- I/O ------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> float:
        """Write bytes at ``offset``; returns the simulated latency."""
        sequential = self._is_sequential(offset)
        latency = self.profile.access_time(len(data), sequential)
        self._data[offset] = bytes(data)
        self._advance(offset, len(data), latency)
        self.stats.record_write(len(data), latency, seek=not sequential)
        return latency

    def read(self, offset: int, length: int) -> tuple[bytes, float]:
        """Read ``length`` bytes from ``offset``; returns (data, latency).

        Reads may start inside a previously written extent; the stored
        extents are stitched together as needed.
        """
        sequential = self._is_sequential(offset)
        latency = self.profile.access_time(length, sequential)
        data = self._read_bytes(offset, length)
        self._advance(offset, length, latency)
        self.stats.record_read(length, latency, seek=not sequential)
        return data, latency

    # -- internals -------------------------------------------------------------

    def _is_sequential(self, offset: int) -> bool:
        return self._last_position is not None and offset == self._last_position

    def _advance(self, offset: int, length: int, latency: float) -> None:
        self._last_position = offset + length
        self.clock_seconds += latency

    def _read_bytes(self, offset: int, length: int) -> bytes:
        # Fast path: the exact extent was written as one piece.
        exact = self._data.get(offset)
        if exact is not None and len(exact) >= length:
            return exact[:length]
        result = bytearray(length)
        for extent_offset, extent in self._data.items():
            extent_end = extent_offset + len(extent)
            read_end = offset + length
            overlap_start = max(offset, extent_offset)
            overlap_end = min(read_end, extent_end)
            if overlap_start < overlap_end:
                result[overlap_start - offset : overlap_end - offset] = extent[
                    overlap_start - extent_offset : overlap_end - extent_offset
                ]
        return bytes(result)

    def reset_position(self) -> None:
        """Forget the head position (forces the next access to seek)."""
        self._last_position = None
