"""End-to-end tests of the PCR writer, reader, dataset view, and converters."""

from __future__ import annotations

import dataclasses
import sqlite3

import numpy as np
import pytest

from repro.codecs.baseline import BaselineCodec
from repro.codecs.progressive import ProgressiveCodec
from repro.codecs.transcode import is_lossless_roundtrip, transcode_to_progressive
from repro.core.convert import build_static_copies, convert_to_pcr, reference_record_bytes
from repro.core.dataset import PCRDataset
from repro.core.errors import MissingSampleError, PCRError, ScanGroupError
from repro.core.reader import PCRReader
from repro.core.scan_groups import ScanGroupPolicy
from repro.core.writer import PCRWriter
from repro.kvstore.sqlite_store import SQLiteStore
from repro.metrics.psnr import mse


class TestWriterReader:
    def test_dataset_structure(self, pcr_dataset, tiny_samples):
        assert len(pcr_dataset) == len(tiny_samples)
        assert pcr_dataset.n_groups == 10
        assert len(pcr_dataset.record_names) == 3  # 20 samples / 8 per record

    def test_labels_preserved(self, pcr_dataset, tiny_samples):
        expected = {key: label for key, _, label in tiny_samples}
        for sample in pcr_dataset:
            assert sample.label == expected[sample.key]

    def test_epoch_bytes_monotone_in_group(self, pcr_dataset):
        by_group = pcr_dataset.epoch_bytes_by_group()
        sizes = [by_group[g] for g in sorted(by_group)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_scan_group_one_reads_far_fewer_bytes(self, pcr_dataset):
        by_group = pcr_dataset.epoch_bytes_by_group()
        assert by_group[10] / by_group[1] > 2.0  # the paper reports 2-10x

    def test_quality_improves_with_scan_group(self, pcr_dataset, tiny_samples):
        originals = {key: image for key, image, _ in tiny_samples}
        errors = {}
        for group in (1, 5, 10):
            errors[group] = np.mean([
                mse(originals[s.key], s.image)
                for name in pcr_dataset.record_names
                for s in pcr_dataset.read_record(name, group)
            ])
        assert errors[1] > errors[5] > errors[10]

    def test_bytes_read_accounting(self, tmp_path, tiny_samples):
        dataset = PCRDataset.build(tiny_samples[:8], tmp_path / "acct", images_per_record=8)
        for name in dataset.record_names:
            dataset.read_record(name, 2)
        expected = dataset.reader.dataset_bytes_for_group(2)
        assert dataset.reader.stats.bytes_read == expected

    def test_read_sample_random_access(self, pcr_dataset, tiny_samples):
        key = tiny_samples[5][0]
        sample = pcr_dataset.reader.read_sample(key, scan_group=3)
        assert sample.key == key
        assert sample.image is not None

    def test_missing_sample_raises(self, pcr_dataset):
        with pytest.raises(MissingSampleError):
            pcr_dataset.reader.read_sample("does-not-exist", scan_group=1)

    def test_invalid_scan_group_raises(self, pcr_dataset):
        name = pcr_dataset.record_names[0]
        with pytest.raises(ScanGroupError):
            pcr_dataset.read_record(name, 0)
        with pytest.raises(ScanGroupError):
            pcr_dataset.read_record(name, 11)

    def test_decode_false_returns_streams_only(self, pcr_dataset):
        record = pcr_dataset.record_names[0]
        samples = pcr_dataset.reader.read_record(record, scan_group=2, decode=False)
        assert all(sample.image is None for sample in samples)
        assert all(len(sample.stream) > 0 for sample in samples)
        # The streams are themselves decodable.
        image = ProgressiveCodec().decode(samples[0].stream)
        assert image.height > 0

    def test_writer_rejects_wrong_scan_count(self, tmp_path, tiny_samples):
        key, image, label = tiny_samples[0]
        baseline = BaselineCodec(quality=90).encode(image)  # 3 scans, policy expects 10
        writer = PCRWriter(tmp_path / "bad", images_per_record=1)
        with pytest.raises(PCRError):
            writer.add_sample(key, baseline, label)

    def test_bad_stream_is_rejected_on_entry_and_writer_stays_usable(
        self, tmp_path, tiny_samples
    ):
        # A full record away from any flush: the check must not wait for one.
        writer = PCRWriter(tmp_path / "mixed", images_per_record=8)
        good = tiny_samples[:3]
        writer.add_sample(*good[0])
        bad_key, bad_image, bad_label = tiny_samples[3]
        with pytest.raises(PCRError, match=f"'{bad_key}' has 3 scans"):
            writer.add_sample(bad_key, BaselineCodec(quality=90).encode(bad_image), bad_label)
        assert writer.pending_samples == 1
        for sample in good[1:]:
            writer.add_sample(*sample)
        result = writer.finalize()
        assert result.n_samples == 3
        reader = PCRReader(tmp_path / "mixed")
        assert [s.key for s in reader.read_record(reader.record_names[0], 10)] == [
            key for key, _, _ in good
        ]

    def test_exit_on_exception_closes_the_store(self, tmp_path, tiny_samples):
        with pytest.raises(RuntimeError, match="boom"):
            with PCRWriter(tmp_path / "abandoned", images_per_record=4) as writer:
                writer.add_sample(*tiny_samples[0])
                raise RuntimeError("boom")
        with pytest.raises(sqlite3.ProgrammingError):  # closed, not leaked
            writer._store.get(b"meta/dataset")
        with pytest.raises(PCRError):
            writer.add_sample(*tiny_samples[1])

    def test_one_index_transaction_per_record(self, tmp_path, tiny_samples):
        writer = PCRWriter(tmp_path / "tx", images_per_record=4)
        # sqlite3.Connection.commit cannot be patched (C type): count the
        # statements that end a transaction through the trace hook instead.
        commits: list[str] = []
        writer._store._connection.set_trace_callback(
            lambda statement: commits.append(statement) if statement == "COMMIT" else None
        )
        for sample in tiny_samples[:10]:
            writer.add_sample(*sample)
        assert len(commits) == 2  # two full records; was 2 * (1 + 4)
        writer.finalize()
        assert len(commits) == 4  # + the partial record + the dataset-metadata row
        reader = PCRReader(tmp_path / "tx")
        assert reader.n_samples == 10
        assert reader.read_sample(tiny_samples[9][0], 1).key == tiny_samples[9][0]

    def test_writer_accepts_preencoded_progressive(self, tmp_path, tiny_samples):
        writer = PCRWriter(tmp_path / "pre", images_per_record=4)
        for key, image, label in tiny_samples[:4]:
            stream = transcode_to_progressive(BaselineCodec(quality=90).encode(image))
            writer.add_sample(key, stream, label)
        result = writer.finalize()
        assert result.n_samples == 4
        reader = PCRReader(tmp_path / "pre")
        assert reader.n_samples == 4

    def test_lsm_backend_roundtrip(self, tmp_path, tiny_samples):
        dataset = PCRDataset.build(
            tiny_samples[:6], tmp_path / "lsm", images_per_record=3, backend="lsm"
        )
        assert len(dataset.record_names) == 2
        assert sum(len(dataset.read_record(name, 1)) for name in dataset.record_names) == 6

    def test_lsm_dataset_reads_back_like_sqlite(self, tmp_path, tiny_samples):
        # The LSM store has no put_many of its own: the default loop serves it.
        def build(backend):
            return PCRDataset.build(
                tiny_samples[:7], tmp_path / backend, images_per_record=3, backend=backend
            )

        with build("sqlite") as sqlite_ds, build("lsm") as lsm_ds:
            assert lsm_ds.record_names == sqlite_ds.record_names
            for name in sqlite_ds.record_names:
                assert (tmp_path / "lsm" / name).read_bytes() == (
                    tmp_path / "sqlite" / name
                ).read_bytes()
                assert lsm_ds.reader.record_index(name) == sqlite_ds.reader.record_index(name)
            for ours, theirs in zip(lsm_ds, sqlite_ds, strict=True):
                assert (ours.key, ours.label) == (theirs.key, theirs.label)
                assert np.array_equal(ours.image.pixels, theirs.image.pixels)
            key = tiny_samples[4][0]
            assert (
                lsm_ds.reader.read_sample(key, 2).stream
                == sqlite_ds.reader.read_sample(key, 2).stream
            )

    def test_clustered_policy_reduces_group_count(self, tmp_path, tiny_samples):
        policy = ScanGroupPolicy.clustered([1, 4, 10])
        dataset = PCRDataset.build(
            tiny_samples[:6],
            tmp_path / "clustered",
            images_per_record=3,
            policy=policy,
        )
        assert dataset.n_groups == 3
        by_group = dataset.epoch_bytes_by_group()
        assert set(by_group) == {1, 2, 3}

    def test_partial_record_is_flushed_on_finalize(self, tmp_path, tiny_samples):
        writer = PCRWriter(tmp_path / "partial", images_per_record=16)
        for key, image, label in tiny_samples[:5]:
            writer.add_sample(key, image, label)
        result = writer.finalize()
        assert result.n_records == 1
        assert result.n_samples == 5

    def test_writer_double_finalize_raises(self, tmp_path, tiny_samples):
        writer = PCRWriter(tmp_path / "double", images_per_record=4)
        writer.add_sample(*tiny_samples[0])
        writer.finalize()
        with pytest.raises(PCRError):
            writer.finalize()

    def test_reader_on_missing_directory(self, tmp_path):
        with pytest.raises(PCRError):
            PCRReader(tmp_path / "nope")

    def test_no_space_overhead_vs_plain_progressive(self, tmp_path, tiny_samples):
        # Total PCR bytes should be within a few percent of the sum of the
        # individual progressive streams (the paper: within 5%).
        codec = ProgressiveCodec(quality=90)
        plain_total = sum(len(codec.encode(image)) for _, image, _ in tiny_samples)
        dataset = PCRDataset.build(tiny_samples, tmp_path / "overhead", images_per_record=8)
        pcr_total = sum(
            dataset.reader.record_index(name).total_bytes for name in dataset.record_names
        )
        assert pcr_total / plain_total < 1.10

    def test_label_mapper_view(self, pcr_dataset):
        view = pcr_dataset.with_label_mapper(lambda label: label % 2)
        labels = {sample.label for sample in view}
        assert labels <= {0, 1}
        # the underlying dataset is unchanged
        assert {sample.label for sample in pcr_dataset} == {0, 1, 2, 3}


class TestConverters:
    @pytest.fixture(scope="class")
    def few_samples(self, tiny_samples):
        return tiny_samples[:8]

    def test_convert_to_pcr_report(self, tmp_path, few_samples):
        result, report = convert_to_pcr(few_samples, tmp_path / "conv", images_per_record=4)
        assert result.n_samples == 8
        assert report.approach == "pcr"
        assert report.total_seconds > 0
        assert report.output_bytes == result.total_bytes
        assert report.n_copies == 1

    def test_mixed_payloads_convert_to_identical_records(self, tmp_path, few_samples):
        """Pixels, baseline bytes and progressive bytes of the same images
        are the same dataset: each payload takes its one job, order is kept."""
        mixed = []
        for index, (key, image, label) in enumerate(few_samples):
            if index % 3 == 1:
                payload = BaselineCodec(quality=90).encode(image)
            elif index % 3 == 2:
                payload = ProgressiveCodec(quality=90).encode(image)
            else:
                payload = image
            mixed.append((key, payload, label))
        kwargs = dict(images_per_record=4, quality=90, chunk_size=3)
        pixels_result, _ = convert_to_pcr(few_samples, tmp_path / "pixels", **kwargs)
        mixed_result, mixed_report = convert_to_pcr(iter(mixed), tmp_path / "mixed", **kwargs)
        assert mixed_result == dataclasses.replace(pixels_result, directory=tmp_path / "mixed")
        assert mixed_report.n_images == len(few_samples)
        names = sorted(path.name for path in (tmp_path / "pixels").glob("*.pcr"))
        assert names == sorted(path.name for path in (tmp_path / "mixed").glob("*.pcr"))
        assert len(names) == 2
        for name in names:
            assert (tmp_path / "mixed" / name).read_bytes() == (
                tmp_path / "pixels" / name
            ).read_bytes()
        with PCRDataset(tmp_path / "mixed") as dataset:
            assert [s.key for s in dataset] == [key for key, _, _ in few_samples]

    def test_encoded_source_is_never_requantised(self, tmp_path, few_samples):
        source = [
            (key, BaselineCodec(quality=60).encode(image), label)
            for key, image, label in few_samples[:3]
        ]
        # quality=95 would re-quantise a pixel source; bytes keep their own.
        convert_to_pcr(source, tmp_path / "q60", images_per_record=4, quality=95)
        reader = PCRReader(tmp_path / "q60", decode=False)
        stored = reader.read_record(reader.record_names[0], reader.n_groups)
        for (_, original, _), sample in zip(source, stored):
            assert is_lossless_roundtrip(original, sample.stream)

    def test_each_job_runs_once(self, tmp_path, few_samples, monkeypatch):
        """Regression guard for the double work: a pixel source is never
        entropy-decoded; an encoded source is decoded exactly once each."""
        import repro.codecs.progressive as progressive_mod
        import repro.codecs.transcode as transcode_mod

        decodes: list[int] = []
        real_decode = progressive_mod.decode_coefficients

        def spy(data, max_scans=None):
            decodes.append(len(data))
            return real_decode(data, max_scans=max_scans)

        monkeypatch.setattr(progressive_mod, "decode_coefficients", spy)
        monkeypatch.setattr(transcode_mod, "decode_coefficients", spy)
        convert_to_pcr(few_samples, tmp_path / "from-pixels", images_per_record=4, chunk_size=3)
        assert decodes == []
        encoded = [
            (key, BaselineCodec(quality=90).encode(image), label)
            for key, image, label in few_samples
        ]
        convert_to_pcr(encoded, tmp_path / "from-bytes", images_per_record=4, chunk_size=3)
        assert len(decodes) == len(encoded)

    def test_failed_conversion_closes_the_index_store(self, tmp_path, few_samples, monkeypatch):
        key, image, label = few_samples[0]
        samples = [(key, image, label), ("broken", b"not a stream", 0)]
        closed: list[SQLiteStore] = []
        real_close = SQLiteStore.close

        def recording_close(store):
            closed.append(store)
            real_close(store)

        monkeypatch.setattr(SQLiteStore, "close", recording_close)
        with pytest.raises(ValueError):
            convert_to_pcr(samples, tmp_path / "broken", images_per_record=4)
        assert len(closed) == 1

    def test_static_copies_cost_more(self, tmp_path, few_samples):
        _, pcr_report = convert_to_pcr(few_samples, tmp_path / "pcr2", images_per_record=4)
        static_report = build_static_copies(few_samples, tmp_path / "static", qualities=(50, 75, 90, 95))
        assert static_report.n_copies == 4
        assert len(static_report.per_copy_bytes) == 4
        # Four full copies occupy far more space than one PCR dataset.
        assert static_report.output_bytes > 2 * pcr_report.output_bytes

    def test_space_amplification_reference(self, tmp_path, few_samples):
        reference = reference_record_bytes(few_samples, tmp_path / "ref", quality=90)
        static_report = build_static_copies(few_samples, tmp_path / "static2", qualities=(75, 90))
        amplification = static_report.space_amplification(reference)
        assert amplification > 1.2

    def test_amplification_requires_positive_reference(self, tmp_path, few_samples):
        report = build_static_copies(few_samples, tmp_path / "static3", qualities=(75,))
        with pytest.raises(ValueError):
            report.space_amplification(0)


class TestReaderConcurrency:
    """Regression: one PCRReader shared by many threads must behave like one."""

    def test_concurrent_reads_match_sequential(self, pcr_dataset):
        import threading

        reader = PCRReader(pcr_dataset.reader.directory, decode=False)
        names = reader.record_names
        groups = list(range(1, reader.n_groups + 1))
        expected = {
            (name, group): reader.read_record_bytes(name, group)
            for name in names
            for group in (1, reader.n_groups)
        }
        reader.stats.reset()
        mismatches: list[str] = []
        errors: list[BaseException] = []

        def hammer(thread_index: int) -> None:
            try:
                for round_index in range(3):
                    for name in names:
                        group = groups[(thread_index + round_index) % len(groups)]
                        data = reader.read_record_bytes(name, group)
                        want = reader.record_index(name).bytes_for_group(group)
                        if len(data) != want:
                            mismatches.append(f"{name}@{group}: {len(data)} != {want}")
                    for name in names:
                        for group in (1, reader.n_groups):
                            if reader.read_record_bytes(name, group) != expected[(name, group)]:
                                mismatches.append(f"{name}@{group}: payload drift")
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert not mismatches, mismatches[:5]
        # Counters under the lock must account for every read exactly once.
        n_reads = 8 * 3 * (len(names) + 2 * len(names))
        assert reader.stats.records_read == n_reads
        reader.close()

    def test_concurrent_decoded_reads(self, pcr_dataset):
        """Decoding readers share index cache, stats, and the kvstore handle."""
        import threading

        reader = pcr_dataset.reader
        name = pcr_dataset.record_names[0]
        baseline = reader.read_record(name, 1, decode=True)
        results: list[list] = [[] for _ in range(4)]
        errors: list[BaseException] = []

        def decode_worker(slot: int) -> None:
            try:
                results[slot] = reader.read_record(name, 1, decode=True)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=decode_worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        for decoded in results:
            assert [s.key for s in decoded] == [s.key for s in baseline]
            for mine, ref in zip(decoded, baseline):
                assert np.array_equal(mine.image.pixels, ref.image.pixels)
