"""Tests for the simulated storage substrate: devices, filesystem, I/O accounting."""

from __future__ import annotations

import pytest

from repro.storage.device import HDD_PROFILE, MEMORY_PROFILE, SSD_PROFILE, BlockDevice, DeviceProfile
from repro.storage.filesystem import SimulatedFilesystem
from repro.storage.io_stats import IOStats


class TestDeviceProfile:
    def test_sequential_access_skips_seek(self):
        profile = DeviceProfile("test", bandwidth_bytes_per_second=1e6, seek_seconds=0.01)
        assert profile.access_time(1000, sequential=True) == pytest.approx(0.001)
        assert profile.access_time(1000, sequential=False) == pytest.approx(0.011)

    def test_hdd_seek_dominates_small_random_reads(self):
        small = 100 * 1024
        random_time = HDD_PROFILE.access_time(small, sequential=False)
        sequential_time = HDD_PROFILE.access_time(small, sequential=True)
        assert random_time > 10 * sequential_time

    def test_ssd_less_seek_sensitive_than_hdd(self):
        ratio_hdd = HDD_PROFILE.access_time(4096, False) / HDD_PROFILE.access_time(4096, True)
        ratio_ssd = SSD_PROFILE.access_time(4096, False) / SSD_PROFILE.access_time(4096, True)
        assert ratio_hdd > ratio_ssd


class TestBlockDevice:
    def test_write_read_roundtrip(self):
        device = BlockDevice(MEMORY_PROFILE)
        offset = device.allocate(11)
        device.write(offset, b"hello world")
        data, _ = device.read(offset, 11)
        assert data == b"hello world"

    def test_partial_read_of_extent(self):
        device = BlockDevice(MEMORY_PROFILE)
        offset = device.allocate(10)
        device.write(offset, b"0123456789")
        data, _ = device.read(offset, 4)
        assert data == b"0123"

    def test_read_spanning_extents(self):
        device = BlockDevice(MEMORY_PROFILE)
        first = device.allocate(4)
        device.write(first, b"abcd")
        second = device.allocate(4)
        device.write(second, b"efgh")
        data, _ = device.read(first, 8)
        assert data == b"abcdefgh"

    def test_sequential_reads_avoid_seeks(self):
        device = BlockDevice(HDD_PROFILE)
        offset = device.allocate(2048)
        device.write(offset, b"x" * 2048)
        device.reset_position()
        seeks_before = device.stats.seeks
        device.read(offset, 1024)
        device.read(offset + 1024, 1024)  # continues from previous position
        assert device.stats.seeks - seeks_before == 1  # only the first read seeks

    def test_random_reads_all_seek(self):
        device = BlockDevice(HDD_PROFILE)
        offsets = []
        for _ in range(4):
            offset = device.allocate(512)
            device.write(offset, b"y" * 512)
            offsets.append(offset)
        device.reset_position()
        seeks_before = device.stats.seeks
        for offset in reversed(offsets):
            device.read(offset, 512)
        assert device.stats.seeks - seeks_before == 4

    def test_out_of_space(self):
        device = BlockDevice(MEMORY_PROFILE, capacity_bytes=100)
        with pytest.raises(IOError):
            device.allocate(101)

    def test_clock_advances(self):
        device = BlockDevice(HDD_PROFILE)
        offset = device.allocate(1 << 20)
        device.write(offset, b"z" * (1 << 20))
        before = device.clock_seconds
        device.read(offset, 1 << 20)
        assert device.clock_seconds > before


class TestIOStats:
    def test_throughput(self):
        stats = IOStats()
        stats.record_read(1000, 0.5, seek=True)
        stats.record_read(1000, 0.5, seek=False)
        assert stats.read_throughput_bytes_per_second() == pytest.approx(2000.0)
        assert stats.seeks == 1
        assert stats.mean_latency == pytest.approx(0.5)

    def test_reset(self):
        stats = IOStats()
        stats.record_write(10, 0.1, seek=True)
        stats.reset()
        assert stats.bytes_written == 0
        assert stats.busy_seconds == 0.0
        assert stats.per_op_latencies == []


class TestSimulatedFilesystem:
    def test_write_and_read_file(self):
        filesystem = SimulatedFilesystem(BlockDevice(MEMORY_PROFILE))
        filesystem.write_file("a.rec", b"payload")
        data, _ = filesystem.read_file("a.rec")
        assert data == b"payload"
        assert filesystem.file_size("a.rec") == 7

    def test_prefix_read(self):
        filesystem = SimulatedFilesystem(BlockDevice(MEMORY_PROFILE))
        filesystem.write_file("rec", b"0123456789")
        data, _ = filesystem.read_file("rec", length=4)
        assert data == b"0123"

    def test_duplicate_name_rejected(self):
        filesystem = SimulatedFilesystem(BlockDevice(MEMORY_PROFILE))
        filesystem.write_file("x", b"1")
        with pytest.raises(FileExistsError):
            filesystem.write_file("x", b"2")

    def test_missing_file(self):
        filesystem = SimulatedFilesystem(BlockDevice(MEMORY_PROFILE))
        with pytest.raises(FileNotFoundError):
            filesystem.read_file("nope")

    def test_scattered_files_cost_more_to_read_than_one_record(self):
        # File-per-Image (many small scattered files) vs one contiguous record
        # holding the same bytes: the record wins on an HDD.
        payload = b"i" * (64 * 1024)
        scattered_fs = SimulatedFilesystem(BlockDevice(HDD_PROFILE), scatter_stride_bytes=1 << 20)
        record_fs = SimulatedFilesystem(BlockDevice(HDD_PROFILE))
        for index in range(16):
            scattered_fs.write_file(f"img-{index}", payload)
        record_fs.write_file("record", payload * 16)
        scattered_fs.device.reset_position()
        record_fs.device.reset_position()
        scattered_time = sum(scattered_fs.read_file(f"img-{i}")[1] for i in range(16))
        _, record_time = record_fs.read_file("record")
        assert scattered_time > 2 * record_time
