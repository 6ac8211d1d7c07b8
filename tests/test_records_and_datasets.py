"""Tests for the baseline record formats and the synthetic dataset substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.baseline import BaselineCodec
from repro.datasets.labels import (
    binary_task_mapper,
    is_corvette_mapper,
    make_only_mapper,
    n_classes_after,
)
from repro.datasets.registry import (
    CARS_SPEC,
    PAPER_DATASET_STATISTICS,
    all_specs,
    generate_dataset,
    spec_by_name,
)
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec
from repro.metrics.psnr import mse
from repro.records.file_per_image import FilePerImageDataset, FilePerImageWriter
from repro.records.recordio import RecordIOReader, RecordIOWriter
from repro.records.tfrecord import TFExample, TFRecordReader, TFRecordWriter


class TestFilePerImage:
    def test_write_and_discover(self, tmp_path, tiny_baseline_streams):
        writer = FilePerImageWriter(tmp_path / "folder")
        writer.write_dataset(tiny_baseline_streams[:10])
        dataset = FilePerImageDataset(tmp_path / "folder")
        assert len(dataset) == 10
        labels = {sample.label for sample in dataset}
        assert labels == {0, 1, 2, 3}

    def test_read_image_roundtrip(self, tmp_path, tiny_samples, tiny_baseline_streams):
        writer = FilePerImageWriter(tmp_path / "folder2")
        writer.write_dataset(tiny_baseline_streams[:4])
        dataset = FilePerImageDataset(tmp_path / "folder2")
        image, label = dataset.read_image(0)
        original = dict((k, (im, l)) for k, im, l in tiny_samples)[dataset[0].key]
        assert label == original[1]
        assert image.pixels.shape == original[0].pixels.shape
        # Lossy but recognisable: far better than comparing to an unrelated image.
        other = tiny_samples[3][1]
        assert mse(original[0], image) < mse(other, image)

    def test_total_bytes_positive(self, tmp_path, tiny_baseline_streams):
        writer = FilePerImageWriter(tmp_path / "folder3")
        writer.write_dataset(tiny_baseline_streams[:3])
        dataset = FilePerImageDataset(tmp_path / "folder3")
        assert dataset.total_bytes() == writer.total_bytes > 0

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FilePerImageDataset(tmp_path / "missing")


class TestTFRecord:
    def test_roundtrip(self, tmp_path, tiny_samples, tiny_baseline_streams):
        path = tmp_path / "data.tfrecord"
        writer = TFRecordWriter(path)
        writer.write_dataset(tiny_baseline_streams[:6])
        examples = list(TFRecordReader(path))
        assert len(examples) == 6
        assert [e.label for e in examples] == [label for _, _, label in tiny_samples[:6]]
        assert [e.image_bytes for e in examples] == [s for _, s, _ in tiny_baseline_streams[:6]]
        decoded = BaselineCodec().decode(examples[0].image_bytes)
        assert decoded.height == tiny_samples[0][1].height

    def test_example_serialization(self):
        example = TFExample(key="k", label=-5, image_bytes=b"\x01\x02\x03")
        restored = TFExample.from_bytes(example.to_bytes())
        assert restored == example

    def test_crc_detects_corruption(self, tmp_path, tiny_baseline_streams):
        path = tmp_path / "corrupt.tfrecord"
        TFRecordWriter(path).write_dataset(tiny_baseline_streams[:2])
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            list(TFRecordReader(path))

    def test_crc_can_be_skipped(self, tmp_path, tiny_baseline_streams):
        path = tmp_path / "skip.tfrecord"
        TFRecordWriter(path).write_dataset(tiny_baseline_streams[:2])
        assert len(list(TFRecordReader(path, verify_crc=False))) == 2


class TestRecordIO:
    def test_roundtrip(self, tmp_path, tiny_samples, tiny_baseline_streams):
        path = tmp_path / "data.rec"
        writer = RecordIOWriter(path)
        writer.write_dataset(tiny_baseline_streams[:5])
        items = list(RecordIOReader(path))
        assert [item.index for item in items] == list(range(5))
        assert [item.label for item in items] == [label for _, _, label in tiny_samples[:5]]
        assert [item.image_bytes for item in items] == [s for _, s, _ in tiny_baseline_streams[:5]]

    def test_bad_magic_detected(self, tmp_path, tiny_baseline_streams):
        path = tmp_path / "bad.rec"
        RecordIOWriter(path).write_dataset(tiny_baseline_streams[:1])
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            list(RecordIOReader(path))

    def test_total_bytes(self, tmp_path, tiny_baseline_streams):
        path = tmp_path / "size.rec"
        RecordIOWriter(path).write_dataset(tiny_baseline_streams[:3])
        assert RecordIOReader(path).total_bytes() == path.stat().st_size


# Where a cut lands inside the second item, from its start offset and the
# file's end (the TFRecord payload CRC is the file's last four bytes).
TFRECORD_CUTS = {
    "header": lambda start, end: start + 5,
    "payload": lambda start, end: start + 20,
    "crc": lambda start, end: end - 2,
}
RECORDIO_CUTS = {
    "header": lambda start, end: start + 5,
    "payload": lambda start, end: end - 2,
}


class TestTruncatedRecordFiles:
    """A file cut inside an item raises ``ValueError`` naming the item's
    offset; a file cut at an item boundary is a valid, shorter file."""

    @staticmethod
    def _write(writer_cls, path, streams):
        """Write two items; returns ``(bytes, offset of the second item)``."""
        writer_cls(path).write_dataset(streams[:1])
        start = path.stat().st_size
        writer_cls(path).write_dataset(streams[:2])
        return path.read_bytes(), start

    @pytest.mark.parametrize("cut", sorted(TFRECORD_CUTS))
    def test_tfrecord_cut_inside_an_example(self, tmp_path, tiny_baseline_streams, cut):
        path = tmp_path / "cut.tfrecord"
        data, start = self._write(TFRecordWriter, path, tiny_baseline_streams)
        path.write_bytes(data[: TFRECORD_CUTS[cut](start, len(data))])
        for verify_crc in (True, False):
            with pytest.raises(ValueError, match=f"truncated .* at offset {start}$"):
                list(TFRecordReader(path, verify_crc=verify_crc))

    @pytest.mark.parametrize("cut", sorted(RECORDIO_CUTS))
    def test_recordio_cut_inside_an_item(self, tmp_path, tiny_baseline_streams, cut):
        path = tmp_path / "cut.rec"
        data, start = self._write(RecordIOWriter, path, tiny_baseline_streams)
        path.write_bytes(data[: RECORDIO_CUTS[cut](start, len(data))])
        with pytest.raises(ValueError, match=f"truncated .* at offset {start}$"):
            list(RecordIOReader(path))

    def test_cut_at_a_boundary_is_a_shorter_file(self, tmp_path, tiny_baseline_streams):
        first = tiny_baseline_streams[0][1]
        for writer_cls, reader_cls in (
            (TFRecordWriter, TFRecordReader),
            (RecordIOWriter, RecordIOReader),
        ):
            path = tmp_path / writer_cls.__name__
            data, start = self._write(writer_cls, path, tiny_baseline_streams)
            path.write_bytes(data[:start])
            assert [item.image_bytes for item in reader_cls(path)] == [first]
            path.write_bytes(b"")
            assert list(reader_cls(path)) == []


class TestSyntheticGenerator:
    def test_images_of_same_class_are_similar_but_not_identical(self):
        generator = SyntheticImageGenerator(n_classes=4, seed=0)
        a = generator.generate(1, sample_seed=1)
        b = generator.generate(1, sample_seed=2)
        c = generator.generate(3, sample_seed=3)
        assert mse(a, b) < mse(a, c)
        assert mse(a, b) > 0

    def test_label_out_of_range(self):
        generator = SyntheticImageGenerator(n_classes=3)
        with pytest.raises(ValueError):
            generator.generate(3)

    def test_coarse_group_assignment(self):
        spec = SyntheticImageSpec(n_coarse_groups=4)
        generator = SyntheticImageGenerator(n_classes=12, spec=spec)
        assert generator.coarse_group(0) == generator.coarse_group(4) == generator.coarse_group(8)

    def test_batch_generation(self):
        generator = SyntheticImageGenerator(n_classes=5, seed=1)
        batch = generator.generate_batch(12, seed=2)
        assert len(batch) == 12
        assert [label for _, _, label in batch[:5]] == [0, 1, 2, 3, 4]
        assert len({key for key, _, _ in batch}) == 12

    def test_deterministic_given_seeds(self):
        spec = SyntheticImageSpec(image_size=24)
        a = SyntheticImageGenerator(4, spec=spec, seed=3).generate(2, sample_seed=9)
        b = SyntheticImageGenerator(4, spec=spec, seed=3).generate(2, sample_seed=9)
        assert np.array_equal(a.pixels, b.pixels)

    def test_fine_signal_lives_in_high_frequencies(self):
        # Blurring (removing high frequencies) should hurt within-group class
        # separation more than across-group separation.
        from repro.codecs.progressive import ProgressiveCodec

        spec = SyntheticImageSpec(image_size=48, n_coarse_groups=2, noise_sigma=2.0)
        generator = SyntheticImageGenerator(n_classes=4, spec=spec, seed=5)
        codec = ProgressiveCodec(quality=90)
        # classes 0 and 2 share coarse group 0; class 1 is in group 1
        same_group_a = generator.generate(0, sample_seed=1)
        same_group_b = generator.generate(2, sample_seed=2)
        low_a = codec.decode(codec.encode(same_group_a), max_scans=1)
        low_b = codec.decode(codec.encode(same_group_b), max_scans=1)
        # At scan 1 the two same-group classes look more alike than at full quality.
        assert mse(low_a, low_b) < mse(same_group_a, same_group_b)


class TestDatasetRegistry:
    def test_four_specs(self):
        specs = all_specs()
        assert len(specs) == 4
        assert {spec.name for spec in specs} == {"imagenet", "celebahq", "ham10000", "cars"}

    def test_spec_lookup(self):
        assert spec_by_name("cars") is CARS_SPEC
        with pytest.raises(KeyError):
            spec_by_name("mnist")

    def test_generate_dataset_counts_and_labels(self):
        samples = list(generate_dataset(CARS_SPEC, seed=0, n_samples=30))
        assert len(samples) == 30
        assert all(0 <= label < CARS_SPEC.n_classes for _, _, label in samples)
        assert all(image.height == CARS_SPEC.image_size for _, image, _ in samples)

    def test_paper_statistics_table(self):
        assert set(PAPER_DATASET_STATISTICS) == {"ImageNet", "HAM10000", "Stanford Cars", "CelebAHQ"}
        assert PAPER_DATASET_STATISTICS["ImageNet"]["classes"] == 1000

    def test_specs_mirror_paper_ordering(self):
        # HAM10000 has the largest images; CelebA-HQ is binary; Cars is fine-grained.
        from repro.datasets.registry import CELEBAHQ_SPEC, HAM10000_SPEC, IMAGENET_SPEC

        assert HAM10000_SPEC.image_size >= max(IMAGENET_SPEC.image_size, CARS_SPEC.image_size)
        assert CELEBAHQ_SPEC.n_classes == 2
        assert CARS_SPEC.fine_grained
        assert HAM10000_SPEC.jpeg_quality == 100


class TestLabelMappers:
    def test_make_only(self):
        mapper = make_only_mapper(6)
        assert mapper(0) == 0
        assert mapper(6) == 0
        assert mapper(7) == 1
        assert n_classes_after(mapper, 24) == 6

    def test_is_corvette(self):
        mapper = is_corvette_mapper(6, target_group=2)
        assert mapper(2) == 1
        assert mapper(8) == 1
        assert mapper(3) == 0
        assert n_classes_after(mapper, 24) == 2

    def test_binary_mapper(self):
        mapper = binary_task_mapper({1, 3})
        assert mapper(1) == 1
        assert mapper(2) == 0
        assert n_classes_after(mapper, 4) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_only_mapper(0)
        with pytest.raises(ValueError):
            is_corvette_mapper(4, target_group=7)
