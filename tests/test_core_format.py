"""Tests for scan groups, metadata, and the record serialization layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PCRFormatError, ScanGroupError
from repro.core.index import (
    RECORD_HEADER_SIZE,
    RecordIndex,
    parse_record_prefix,
    serialize_record,
)
from repro.core.metadata import (
    SampleMetadata,
    parse_metadata_block,
    serialize_metadata_block,
)
from repro.core.scan_groups import ScanGroupPolicy


class TestScanGroupPolicy:
    def test_identity_policy(self):
        policy = ScanGroupPolicy.identity(10)
        assert policy.n_groups == 10
        assert policy.n_scans == 10
        assert policy.scans_in_group(3) == (3,)

    def test_clustered_policy(self):
        policy = ScanGroupPolicy.clustered([1, 4, 10], n_scans=10)
        assert policy.n_groups == 3
        assert policy.scans_in_group(2) == (2, 3, 4)
        assert policy.groups == ((1,), (2, 3, 4), tuple(range(5, 11)))

    def test_clustered_must_end_at_n_scans(self):
        with pytest.raises(ScanGroupError):
            ScanGroupPolicy.clustered([1, 4], n_scans=10)

    def test_non_contiguous_groups_rejected(self):
        with pytest.raises(ScanGroupError):
            ScanGroupPolicy(groups=((1,), (3,)))

    def test_empty_group_rejected(self):
        with pytest.raises(ScanGroupError):
            ScanGroupPolicy(groups=((1,), ()))

    def test_group_out_of_range(self):
        policy = ScanGroupPolicy.identity(5)
        with pytest.raises(ScanGroupError):
            policy.scans_in_group(6)
        with pytest.raises(ScanGroupError):
            policy.scans_in_group(0)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_clustered_boundaries_property(self, raw_boundaries):
        boundaries = sorted(raw_boundaries)
        n_scans = boundaries[-1]
        policy = ScanGroupPolicy.clustered(boundaries, n_scans=n_scans)
        assert policy.n_scans == n_scans
        assert sum(policy.groups, ()) == tuple(range(1, n_scans + 1))


class TestSampleMetadata:
    def test_roundtrip_without_attributes(self):
        metadata = SampleMetadata(key="img-001", label=42)
        restored, offset = SampleMetadata.from_bytes(metadata.to_bytes())
        assert restored == metadata
        assert offset == len(metadata.to_bytes())

    def test_roundtrip_with_attributes(self):
        metadata = SampleMetadata(key="x", label=-3, attributes={"bbox_x": 1.5, "bbox_y": 2.0})
        restored, _ = SampleMetadata.from_bytes(metadata.to_bytes())
        assert restored.attributes == {"bbox_x": 1.5, "bbox_y": 2.0}
        assert restored.label == -3

    def test_unicode_keys(self):
        metadata = SampleMetadata(key="图像-42", label=1)
        restored, _ = SampleMetadata.from_bytes(metadata.to_bytes())
        assert restored.key == "图像-42"

    def test_block_roundtrip(self):
        samples = [SampleMetadata(key=f"k{i}", label=i) for i in range(5)]
        samples.append(SampleMetadata(key="boxed", label=-1, attributes={"w": 0.5, "h": 2.0}))
        block = serialize_metadata_block(samples)
        # The end offset marks where the framed header prefixes begin.
        assert parse_metadata_block(block + b"trailing") == (samples, len(block))

    def test_empty_block(self):
        assert parse_metadata_block(serialize_metadata_block([])) == ([], 4)

    def test_with_label(self):
        metadata = SampleMetadata(key="a", label=7, attributes={"w": 1.0})
        remapped = metadata.with_label(1)
        assert remapped.label == 1
        assert remapped.key == "a"
        assert remapped.attributes == {"w": 1.0}

    def test_metadata_is_small(self):
        # The paper: label metadata is ~a bit per label / ~100 bytes per record.
        metadata = SampleMetadata(key="img-000001", label=3)
        assert len(metadata.to_bytes()) < 32


class TestRecordSerialization:
    def _build(self, n_samples=3, n_groups=4):
        samples = [SampleMetadata(key=f"s{i}", label=i % 2) for i in range(n_samples)]
        # One sample carries attributes: the header prefixes follow its JSON.
        samples[-1] = SampleMetadata(key="boxed", label=1, attributes={"bbox_x": 0.25})
        prefixes = [bytes([i]) * 10 for i in range(n_samples)]
        groups = [
            [bytes([group * 16 + i]) * (group + 1) * 5 for i in range(n_samples)]
            for group in range(n_groups)
        ]
        return samples, prefixes, groups

    def test_roundtrip_full_record(self):
        samples, prefixes, groups = self._build()
        data, index = serialize_record("rec", samples, prefixes, groups)
        parsed = parse_record_prefix(data)
        assert parsed.samples == samples
        assert parsed.header_prefixes == prefixes
        assert parsed.n_groups_present == 4
        assert parsed.n_groups_total == 4
        for sample_index in range(3):
            assert parsed.scans_per_sample[sample_index] == [
                groups[g][sample_index] for g in range(4)
            ]
        assert index.total_bytes == len(data)

    def test_prefix_reads_stop_at_group_boundaries(self):
        samples, prefixes, groups = self._build()
        data, index = serialize_record("rec", samples, prefixes, groups)
        for group_number in range(1, 5):
            prefix = data[: index.bytes_for_group(group_number)]
            parsed = parse_record_prefix(prefix)
            assert parsed.n_groups_present == group_number

    def test_metadata_only_prefix(self):
        samples, prefixes, groups = self._build()
        data, index = serialize_record("rec", samples, prefixes, groups)
        parsed = parse_record_prefix(data[: index.bytes_for_group(0)])
        assert parsed.n_groups_present == 0
        assert parsed.samples == samples

    def test_bytes_for_group_monotone(self):
        samples, prefixes, groups = self._build(n_groups=6)
        _, index = serialize_record("rec", samples, prefixes, groups)
        sizes = [index.bytes_for_group(g) for g in range(0, 7)]
        assert sizes == sorted(sizes)
        assert sizes[0] > RECORD_HEADER_SIZE

    def test_group_count_mismatch_rejected(self):
        samples, prefixes, groups = self._build()
        groups[1] = groups[1][:-1]
        with pytest.raises(PCRFormatError):
            serialize_record("rec", samples, prefixes, groups)

    def test_prefix_count_mismatch_rejected(self):
        samples, prefixes, groups = self._build()
        with pytest.raises(PCRFormatError):
            serialize_record("rec", samples, prefixes[:-1], groups)

    def test_bad_magic_rejected(self):
        samples, prefixes, groups = self._build()
        data, _ = serialize_record("rec", samples, prefixes, groups)
        with pytest.raises(PCRFormatError):
            parse_record_prefix(b"XXXX" + data[4:])

    def test_truncated_metadata_rejected(self):
        samples, prefixes, groups = self._build()
        data, index = serialize_record("rec", samples, prefixes, groups)
        with pytest.raises(PCRFormatError):
            parse_record_prefix(data[: index.metadata_end - 3])

    def test_index_json_roundtrip(self):
        samples, prefixes, groups = self._build()
        _, index = serialize_record("rec", samples, prefixes, groups)
        restored = RecordIndex.from_json(index.to_json())
        assert restored == index

    def test_bytes_for_group_out_of_range(self):
        samples, prefixes, groups = self._build()
        _, index = serialize_record("rec", samples, prefixes, groups)
        with pytest.raises(ScanGroupError):
            index.bytes_for_group(99)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n_samples, n_groups):
        samples, prefixes, groups = self._build(n_samples, n_groups)
        data, index = serialize_record("rec", samples, prefixes, groups)
        parsed = parse_record_prefix(data)
        assert parsed.n_groups_present == n_groups
        assert len(parsed.samples) == n_samples
        assert index.group_end_offsets[-1] == len(data)
