"""Simulated storage substrate.

The paper's experiments run against a 16-node Ceph cluster of 7200 RPM hard
drives and, for microbenchmarks, a SATA SSD.  This package simulates those
devices so the layout arguments (sequential vs random access, bandwidth
saturation) can be exercised and measured without the hardware:

* :mod:`repro.storage.device` — block devices with seek/rotational latency
  and bandwidth models (HDD, SSD, and an in-memory device).
* :mod:`repro.storage.filesystem` — extent-based file allocation over a
  device, used to model File-per-Image fragmentation vs record contiguity.
* :mod:`repro.storage.io_stats` — operation/byte/latency accounting.
"""

from repro.storage.device import (
    BlockDevice,
    DeviceProfile,
    HDD_PROFILE,
    MEMORY_PROFILE,
    SSD_PROFILE,
)
from repro.storage.filesystem import SimulatedFilesystem
from repro.storage.io_stats import IOStats

__all__ = [
    "BlockDevice",
    "DeviceProfile",
    "HDD_PROFILE",
    "IOStats",
    "MEMORY_PROFILE",
    "SSD_PROFILE",
    "SimulatedFilesystem",
]
