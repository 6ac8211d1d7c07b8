"""Tests for augmentations, batching, the loader, and stall tracking."""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.pipeline.augment import (
    CenterCrop,
    Compose,
    HorizontalFlip,
    RandomCrop,
    Resize,
    bilinear_resize,
    standard_training_augmentations,
)
from repro.pipeline.batch import collate
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.pipeline.stall import StallTracker


class TestAugmentations:
    def _image(self, height=20, width=30):
        rng = np.random.default_rng(0)
        return rng.uniform(0, 255, size=(height, width, 3))

    def test_resize_shape(self):
        rng = np.random.default_rng(1)
        out = Resize(16)(self._image(), rng)
        assert out.shape == (16, 16, 3)

    def test_bilinear_resize_preserves_constant_images(self):
        constant = np.full((10, 10), 7.0)
        assert np.allclose(bilinear_resize(constant, 23, 17), 7.0)

    def test_bilinear_resize_identity(self):
        image = self._image(8, 8)
        assert np.allclose(bilinear_resize(image, 8, 8), image)

    def test_random_crop_shape_and_content(self):
        rng = np.random.default_rng(2)
        image = self._image(20, 20)
        out = RandomCrop(12)(image, rng)
        assert out.shape == (12, 12, 3)

    def test_random_crop_pads_small_images(self):
        rng = np.random.default_rng(3)
        out = RandomCrop(32)(self._image(20, 20), rng)
        assert out.shape == (32, 32, 3)

    def test_center_crop_is_deterministic(self):
        rng = np.random.default_rng(4)
        image = self._image(21, 21)
        a = CenterCrop(10)(image, rng)
        b = CenterCrop(10)(image, rng)
        assert np.array_equal(a, b)

    def test_horizontal_flip_probability_one(self):
        rng = np.random.default_rng(5)
        image = self._image(6, 6)
        flipped = HorizontalFlip(probability=1.0)(image, rng)
        assert np.array_equal(flipped, image[:, ::-1])

    def test_horizontal_flip_probability_zero(self):
        rng = np.random.default_rng(6)
        image = self._image(6, 6)
        assert np.array_equal(HorizontalFlip(probability=0.0)(image, rng), image)

    def test_compose_and_standard_recipe(self):
        rng = np.random.default_rng(7)
        recipe = standard_training_augmentations(24)
        assert isinstance(recipe, Compose)
        out = recipe(self._image(48, 40), rng)
        assert out.shape == (24, 24, 3)

    def test_eval_recipe_deterministic(self):
        rng = np.random.default_rng(8)
        recipe = standard_training_augmentations(24, train=False)
        image = self._image(48, 40)
        assert np.array_equal(recipe(image, rng), recipe(image, rng))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Resize(0)
        with pytest.raises(ValueError):
            HorizontalFlip(probability=1.5)


class TestCollate:
    def test_shapes_and_scaling(self):
        images = [np.full((8, 8, 3), 255.0), np.zeros((8, 8, 3))]
        batch = collate(images, [1, 0])
        assert batch.images.shape == (2, 8, 8, 3)
        assert batch.images.dtype == np.float32
        assert batch.images.max() <= 1.0
        assert batch.labels.tolist() == [1, 0]
        assert len(batch) == 2

    def test_grayscale_gets_channel_axis(self):
        batch = collate([np.zeros((8, 8))], [0])
        assert batch.images.shape == (1, 8, 8, 1)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            collate([np.zeros((4, 4, 3))], [0, 1])

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            collate([], [])

    def test_classes_present(self):
        batch = collate([np.zeros((4, 4, 3))] * 3, [0, 0, 2])
        assert batch.n_classes_present == 2

    def test_dark_uint8_image_is_scaled_by_type_not_by_value(self):
        """uint8 levels 0 and 1 are nearly black, not black and white."""
        dark = np.ones((8, 8, 3), dtype=np.uint8)
        batch = collate([dark, np.full((8, 8, 3), 200, dtype=np.uint8)], [0, 1])
        assert batch.images[0].max() == np.float32(1) / np.float32(255)
        assert batch.images[1].max() == np.float32(200) / np.float32(255)

    def test_batch_conversion_is_bit_identical_to_per_image(self):
        rng = np.random.default_rng(5)
        images = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8) for _ in range(6)]
        images.append(np.zeros((16, 16, 3), dtype=np.uint8))
        batch = collate(images, list(range(7)))
        per_image = np.stack([image.astype(np.float32) / 255.0 for image in images])
        assert batch.images.dtype == np.float32
        assert np.array_equal(batch.images, per_image)

    def test_mixed_float_and_uint8_inputs(self):
        levels = np.full((4, 4, 3), 255.0)  # float 0-255 levels: scaled
        unit = np.full((4, 4, 3), 0.5)  # float already in [0, 1]: kept
        dark = np.ones((4, 4, 3), dtype=np.uint8)  # integer: scaled by type
        batch = collate([levels, unit, dark], [0, 1, 2])
        assert batch.images.dtype == np.float32
        assert batch.images[0].max() == 1.0
        assert batch.images[1].max() == 0.5
        assert batch.images[2].max() == np.float32(1) / np.float32(255)

    def test_grayscale_uint8_and_mixed_rank(self):
        gray = np.full((8, 8), 51, dtype=np.uint8)
        batch = collate([gray, gray[..., None]], [0, 1])
        assert batch.images.shape == (2, 8, 8, 1)
        assert np.all(batch.images == np.float32(51) / np.float32(255))

    def test_inputs_are_not_modified(self):
        levels = np.full((4, 4, 3), 255.0, dtype=np.float32)
        collate([levels], [0])
        assert levels.max() == 255.0


class TestDataLoader:
    def test_epoch_covers_every_sample_once(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=6, n_workers=2, shuffle=True))
        total = sum(len(batch) for batch in loader.epoch())
        assert total == len(pcr_dataset)

    def test_batches_per_epoch(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=6))
        assert loader.batches_per_epoch() == 4  # 20 samples -> 3 full + 1 partial
        loader_drop = DataLoader(pcr_dataset, LoaderConfig(batch_size=6, drop_last=True))
        assert loader_drop.batches_per_epoch() == 3

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            LoaderConfig(batch_size=batch_size)

    @pytest.mark.parametrize(
        "field, value",
        [("n_workers", 0), ("n_workers", -2), ("prefetch_batches", 0), ("decode_workers", -1)],
    )
    def test_worker_counts_out_of_range_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            LoaderConfig(**{field: value})

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_an_epoch_records_one_wait_per_record(self, pcr_dataset, n_workers):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=n_workers))
        list(loader.epoch())
        assert len(loader.stalls.wait_seconds) == len(pcr_dataset.record_names)
        assert len(loader.stalls.compute_seconds) == loader.batches_per_epoch()

    def test_drop_last(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=6, drop_last=True))
        sizes = [len(batch) for batch in loader.epoch()]
        assert all(size == 6 for size in sizes)

    def test_augmented_batches_have_requested_size(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset,
            LoaderConfig(batch_size=4, n_workers=1, shuffle=False),
            augmentations=standard_training_augmentations(24),
        )
        batch = next(iter(loader.epoch()))
        assert batch.images.shape[1:] == (24, 24, 3)

    def test_scan_group_switch_changes_bytes_read(self, pcr_dataset):
        # Open an independent dataset view so byte accounting is not shared
        # with other tests' loaders.
        from repro.core.dataset import PCRDataset

        dataset = PCRDataset(pcr_dataset.reader.directory, scan_group=1)
        loader = DataLoader(dataset, LoaderConfig(batch_size=8, n_workers=1))
        list(loader.epoch())
        low_bytes = dataset.reader.stats.bytes_read
        dataset.reader.stats.reset()
        loader.set_scan_group(10)
        list(loader.epoch())
        high_bytes = dataset.reader.stats.bytes_read
        assert low_bytes == dataset.reader.dataset_bytes_for_group(1)
        assert high_bytes == dataset.reader.dataset_bytes_for_group(10)
        assert high_bytes > 1.5 * low_bytes
        assert dataset.scan_group == 1  # the loader switched, not the dataset
        dataset.close()

    def test_a_probe_during_an_epoch_leaves_the_epoch_at_its_group(self, tmp_path, tiny_samples):
        """A tuner's gradient probe reads at the group it measures; the epoch
        it runs inside keeps delivering the loader's group, sample for sample."""
        from collections import Counter

        from repro.core.dataset import PCRDataset
        from repro.training.gradients import dataset_gradient
        from repro.training.loop import Trainer
        from repro.training.models import LinearProbe

        dataset = PCRDataset.build(tiny_samples, tmp_path / "probe", images_per_record=2)
        with dataset:
            expected = Counter(
                collate([sample.image.pixels], [0]).images[0].tobytes() for sample in dataset
            )
            loader = DataLoader(
                dataset, LoaderConfig(batch_size=2, n_workers=2, prefetch_batches=1)
            )
            trainer = Trainer(LinearProbe(n_classes=4, input_size=32))
            delivered: Counter = Counter()
            for batch in loader.epoch():
                dataset_gradient(trainer, dataset, 1)
                delivered.update(image.tobytes() for image in batch.images)
        assert delivered == expected

    def test_stalls_are_recorded(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1))
        list(loader.epoch())
        assert len(loader.stalls.wait_seconds) > 0

    def test_the_partial_last_batch_counts_its_compute(self, pcr_dataset):
        """20 samples in batches of 8: the 4-sample batch is trained on too,
        so its compute is part of the stall fraction a control hook reads."""
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1))
        for _ in loader.epoch():
            time.sleep(0.02)
        assert len(loader.stalls.compute_seconds) == loader.batches_per_epoch() == 3
        assert loader.stalls.total_compute >= 3 * 0.02


def _wait_for_thread_count(limit: int, deadline_seconds: float = 5.0) -> int:
    deadline = time.monotonic() + deadline_seconds
    while threading.active_count() > limit and time.monotonic() < deadline:
        time.sleep(0.02)
    return threading.active_count()


class TestDataLoaderShutdown:
    """Regression tests: error/abandonment paths must not leak worker threads.

    A one-record read-ahead leaves reads queued and in flight when the
    epoch ends early, which is the state the executor shutdown must clear.
    """

    def test_worker_error_joins_all_workers(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset,
            LoaderConfig(batch_size=4, n_workers=2, prefetch_batches=1, shuffle=False),
        )
        original_load = loader._load_record
        failures = {"count": 0}

        def failing_load(record_name, rng):
            failures["count"] += 1
            if failures["count"] == 1:
                raise RuntimeError("injected worker failure")
            return original_load(record_name, rng)

        loader._load_record = failing_load
        baseline_threads = threading.active_count()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            for _ in loader.epoch():
                pass
        assert _wait_for_thread_count(baseline_threads) <= baseline_threads

    def test_abandoned_iterator_joins_all_workers(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset,
            LoaderConfig(batch_size=4, n_workers=2, prefetch_batches=1, shuffle=False),
        )
        baseline_threads = threading.active_count()
        iterator = loader.epoch()
        next(iterator)
        iterator.close()  # GeneratorExit inside epoch() must trigger shutdown
        assert _wait_for_thread_count(baseline_threads) <= baseline_threads

    def test_clean_epoch_leaves_no_threads(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=4, n_workers=2))
        baseline_threads = threading.active_count()
        list(loader.epoch())
        assert _wait_for_thread_count(baseline_threads) <= baseline_threads


class TestDataLoaderParallelDecode:
    """`decode_workers` must change throughput mechanics, never results."""

    @staticmethod
    def _epoch(dataset, decode_workers: int):
        # Decode parallelism must not change the *content*; worker counts
        # are TestDeterministicEpochs' subject.
        loader = DataLoader(
            dataset,
            LoaderConfig(batch_size=8, n_workers=1, seed=11, decode_workers=decode_workers),
        )
        try:
            return [(b.images.copy(), b.labels.copy()) for b in loader.epoch()]
        finally:
            loader.close()

    def test_epoch_identical_to_in_process(self, pcr_dataset):
        reference = self._epoch(pcr_dataset, 0)
        parallel = self._epoch(pcr_dataset, 4)
        assert len(reference) == len(parallel)
        for (ref_images, ref_labels), (par_images, par_labels) in zip(reference, parallel):
            assert np.array_equal(ref_images, par_images)
            assert np.array_equal(ref_labels, par_labels)

    def test_pool_persists_across_epochs_then_close(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset, LoaderConfig(batch_size=8, n_workers=1, decode_workers=2)
        )
        list(loader.epoch())
        pool = loader._decode_pool
        assert pool is not None and not pool.closed
        list(loader.epoch())
        assert loader._decode_pool is pool  # warm fleet reused
        assert pool.stats.parallel_batches > 0
        loader.close()
        assert loader._decode_pool is None
        assert pool.closed

    def test_two_loaders_decode_through_their_own_pools(self, pcr_dataset):
        """One dataset, two loaders: each epoch lands in its own loader's pool."""
        config = LoaderConfig(batch_size=8, n_workers=1, decode_workers=2)
        n_records = len(pcr_dataset.record_names)
        with DataLoader(pcr_dataset, config) as a, DataLoader(pcr_dataset, config) as b:
            list(a.epoch())
            list(b.epoch())
            pool_a, pool_b = a._decode_pool, b._decode_pool
            assert pool_a is not pool_b
            list(a.epoch())
            assert pool_a.stats.batches == 2 * n_records
            assert pool_b.stats.batches == n_records
            a.close()
            assert pool_a.closed and not pool_b.closed
            list(b.epoch())
            assert b._decode_pool is pool_b
            assert pool_b.stats.parallel_batches == pool_b.stats.batches == 2 * n_records
            assert pool_a.stats.batches == 2 * n_records

    def test_keyboard_interrupt_tears_down_decode_workers(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset,
            LoaderConfig(batch_size=4, n_workers=2, prefetch_batches=1, decode_workers=2),
        )
        iterator = loader.epoch()
        next(iterator)
        pool = loader._decode_pool
        assert pool is not None
        workers = list(pool._state.workers)
        with pytest.raises(KeyboardInterrupt):
            iterator.throw(KeyboardInterrupt)
        assert loader._decode_pool is None
        assert pool.closed
        deadline = time.monotonic() + 5.0
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert all(not w.is_alive() for w in workers)

    def test_abandoned_iterator_tears_down_decode_workers(self, pcr_dataset):
        loader = DataLoader(
            pcr_dataset,
            LoaderConfig(batch_size=4, n_workers=2, prefetch_batches=1, decode_workers=2),
        )
        iterator = loader.epoch()
        next(iterator)
        pool = loader._decode_pool
        iterator.close()  # GeneratorExit
        assert loader._decode_pool is None
        assert pool.closed


class _OverlapCounter:
    """Counts how many threads are inside a region at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.entered = 0

    def __enter__(self) -> None:
        with self._lock:
            self.active += 1
            self.entered += 1
            self.max_active = max(self.max_active, self.active)

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self.active -= 1


class _SleepyFetcher:
    """A reader whose prefix reads block like a disk or a socket would."""

    def __init__(self, reader, delay: float = 0.02) -> None:
        self._reader = reader
        self._delay = delay
        self.reads = _OverlapCounter()

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        with self.reads:
            time.sleep(self._delay)
            return self._reader.read_record_bytes(record_name, scan_group)


class _ForwardingPool:
    """Stands in for a ``DecodePool``: same batch API, decodes in-process."""

    def __init__(self, decode_batch) -> None:
        self._decode_batch = decode_batch
        self.batches = 0

    def decode_batch(self, streams):
        self.batches += 1
        return self._decode_batch(streams)


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self) -> None:
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


class TestDecodeGate:
    """Loader threads overlap I/O; in-process decode runs one at a time."""

    @pytest.fixture()
    def gated(self, tmp_path, tiny_samples, monkeypatch):
        """(source, fetcher, decode overlap counter) over ten 2-image records."""
        from repro.codecs import progressive
        from repro.core.dataset import PCRDataset
        from repro.core.source import RecordSource

        dataset = PCRDataset.build(tiny_samples, tmp_path, images_per_record=2, quality=90)
        fetcher = _SleepyFetcher(dataset.fetcher)
        source = RecordSource(fetcher)
        decodes = _OverlapCounter()
        decode_batch = progressive.decode_progressive_batch

        def spy(streams):
            with decodes:
                time.sleep(0.002)  # wide enough for an ungated thread to enter
                return decode_batch(streams)

        monkeypatch.setattr(progressive, "decode_progressive_batch", spy)
        yield source, fetcher, decodes
        dataset.close()

    @staticmethod
    def _samples(
        source, n_workers: int, decode_workers: int = 0, ordered: bool = False
    ) -> list[tuple[int, bytes]]:
        loader = DataLoader(
            source,
            LoaderConfig(
                batch_size=4, n_workers=n_workers, shuffle=False, decode_workers=decode_workers
            ),
        )
        samples = []
        for batch in loader.epoch():
            samples.extend(
                (int(label), image.tobytes())
                for image, label in zip(batch.images, batch.labels)
            )
        return samples if ordered else sorted(samples)

    def test_decodes_never_overlap_while_fetches_do(self, gated):
        source, fetcher, decodes = gated
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            samples = self._samples(source, n_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(samples) == len(source)
        assert decodes.entered == len(source.record_names)
        assert decodes.max_active == 1
        assert fetcher.reads.max_active >= 2

    def test_one_decode_worker_is_gated_in_process(self, gated):
        # decode_workers=1 builds no pool: a pool is a fleet of >= 2, so
        # one decode worker means in-process decode under the gate.
        source, _, decodes = gated
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            samples = self._samples(source, n_workers=4, decode_workers=1)
        finally:
            sys.setswitchinterval(interval)
        assert len(samples) == len(source)
        assert decodes.entered == len(source.record_names)
        assert decodes.max_active == 1

    def test_batches_byte_identical_to_one_worker(self, gated):
        source, _, _ = gated
        assert self._samples(source, n_workers=4, ordered=True) == self._samples(
            source, n_workers=1, ordered=True
        )

    def test_pool_wired_source_never_takes_the_gate(self, gated, monkeypatch):
        from repro.codecs import parallel, progressive
        from repro.core import reader

        source, _, decodes = gated
        gate = _CountingLock()
        monkeypatch.setattr(reader, "_DECODE_GATE", gate)
        pool = _ForwardingPool(progressive.decode_progressive_batch)
        # The loader builds its pool and passes it to every read.
        monkeypatch.setattr(parallel, "DecodePool", lambda n_workers: pool)
        pooled = self._samples(source, n_workers=4, decode_workers=2)
        assert pool.batches == len(source.record_names)
        assert gate.acquired == 0
        assert self._samples(source, n_workers=4) == pooled
        assert gate.acquired == len(source.record_names)

    def test_exception_inside_decode_releases_the_gate(self, gated, monkeypatch):
        from repro.codecs import progressive
        from repro.core import reader

        source, _, _ = gated
        healthy = progressive.decode_progressive_batch
        failures = []

        def failing(streams):
            if not failures:
                failures.append(1)
                raise RuntimeError("injected decode failure")
            return healthy(streams)

        monkeypatch.setattr(progressive, "decode_progressive_batch", failing)
        with pytest.raises(RuntimeError, match="injected decode failure"):
            self._samples(source, n_workers=2)
        assert not reader._DECODE_GATE.locked()
        assert len(self._samples(source, n_workers=2)) == len(source)

    def test_queueing_is_traced_as_decode_wait_not_decode(self, gated):
        """Each decode span is preceded, on its thread, by its wait span."""
        from repro.obs import diff_snapshots, get_registry, get_tracer

        source, _, decodes = gated
        tracer = get_tracer()
        before = get_registry().snapshot()
        tracer.clear()
        tracer.set_enabled(True)
        try:
            self._samples(source, n_workers=4)
            events = tracer.events()
        finally:
            tracer.set_enabled(False)
            tracer.clear()
        delta = diff_snapshots(get_registry().snapshot(), before)
        assert delta["histograms"]["loader.decode_wait_seconds"]["count"] == decodes.entered
        spans = [e for e in events if e.name == "loader.decode"]
        waits = [e for e in events if e.name == "loader.decode_wait"]
        assert len(spans) == len(waits) == decodes.entered
        # Decode spans are disjoint in time: queueing is in the wait spans.
        spans.sort(key=lambda event: event.start)
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.start + earlier.duration <= later.start
        assert sum(event.duration for event in waits) > 0


class _JitteryFetcher:
    """A reader whose record reads take a random time; one record may fail."""

    def __init__(self, reader, failing: str | None = None, delay: float = 0.004) -> None:
        self._reader = reader
        self._failing = failing
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        # Unseeded on purpose: the order reads finish in varies run to run.
        time.sleep(random.uniform(0, self._delay))
        if record_name == self._failing:
            raise RuntimeError(f"injected read failure at {record_name}")
        return self._reader.read_record_bytes(record_name, scan_group)


@pytest.fixture(scope="module")
def ten_records(tmp_path_factory, tiny_samples):
    """Ten 2-image records."""
    from repro.core.dataset import PCRDataset

    directory = tmp_path_factory.mktemp("deterministic")
    PCRDataset.build(tiny_samples, directory, images_per_record=2, quality=90).close()
    return directory


def _jittery_source(directory, failing: str | None = None):
    from repro.core.reader import PCRReader
    from repro.core.source import RecordSource

    return RecordSource(_JitteryFetcher(PCRReader(directory), failing))


def _record_owners(directory) -> dict[bytes, str]:
    """Each sample's collated pixels -> the name of the record holding it."""
    from repro.core.dataset import PCRDataset

    with PCRDataset(directory) as dataset:
        return {
            collate([sample.image.pixels], [0]).images[0].tobytes(): name
            for name in dataset.record_names
            for sample in dataset.read_record(name, dataset.scan_group, decode=True)
        }


def _record_order(loader, owners: dict[bytes, str]) -> list[str]:
    """One epoch's records in delivery order (batches of one record each)."""
    order = []
    for batch in loader.epoch():
        (name,) = {owners[image.tobytes()] for image in batch.images}
        order.append(name)
    return order


class TestDeterministicEpochs:
    """An epoch is a function of (seed, epoch number), whatever the worker count."""

    @staticmethod
    def _digest(source, n_workers: int, decode_workers: int, augment: bool) -> str:
        loader = DataLoader(
            source,
            LoaderConfig(
                batch_size=3, n_workers=n_workers, seed=3, decode_workers=decode_workers
            ),
            augmentations=standard_training_augmentations(24) if augment else None,
        )
        digest = hashlib.sha1()
        with loader:
            for _ in range(2):
                for batch in loader.epoch():
                    digest.update(batch.labels.tobytes())
                    digest.update(batch.images.tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("decode_workers, augment", [(0, False), (0, True), (2, False)])
    def test_two_epochs_hash_alike_at_every_worker_count(
        self, ten_records, decode_workers, augment
    ):
        with _jittery_source(ten_records) as source:
            digests = {
                self._digest(source, n_workers, decode_workers, augment)
                for n_workers in (1, 2, 4)
                for _ in range(10)
            }
        assert len(digests) == 1

    def test_records_come_in_write_order_without_shuffle(self, ten_records):
        owners = _record_owners(ten_records)
        with _jittery_source(ten_records) as source:
            for n_workers in (1, 2, 4):
                loader = DataLoader(
                    source, LoaderConfig(batch_size=2, n_workers=n_workers, shuffle=False)
                )
                for _ in range(2):
                    assert _record_order(loader, owners) == source.record_names

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_a_failed_read_surfaces_at_its_position(self, ten_records, n_workers):
        position = 5
        owners = _record_owners(ten_records)
        names = list(dict.fromkeys(owners.values()))  # write order
        with _jittery_source(ten_records, failing=names[position]) as source:
            for _ in range(5):
                loader = DataLoader(
                    source,
                    LoaderConfig(
                        batch_size=2, n_workers=n_workers, prefetch_batches=1, shuffle=False
                    ),
                )
                delivered = []
                with pytest.raises(RuntimeError, match="injected read failure"):
                    for batch in loader.epoch():
                        (name,) = {owners[image.tobytes()] for image in batch.images}
                        delivered.append(name)
                assert delivered == names[:position]


class TestSamplers:
    """The loader's shuffled record order is drawn from (seed, epoch) alone."""

    def test_shuffle_is_permutation(self, ten_records):
        owners = _record_owners(ten_records)
        with _jittery_source(ten_records) as source:
            loader = DataLoader(source, LoaderConfig(batch_size=2, n_workers=2, seed=3))
            order = _record_order(loader, owners)
            assert sorted(order) == sorted(source.record_names)
            assert order != source.record_names

    def test_shuffle_differs_across_epochs(self, ten_records):
        owners = _record_owners(ten_records)
        with _jittery_source(ten_records) as source:
            loader = DataLoader(source, LoaderConfig(batch_size=2, n_workers=2, seed=1))
            orders = [_record_order(loader, owners) for _ in range(3)]
        assert orders[0] != orders[1] and orders[1] != orders[2]

    def test_shuffle_reproducible_with_seed(self, ten_records):
        owners = _record_owners(ten_records)
        runs = []
        with _jittery_source(ten_records) as source:
            for n_workers in (1, 2, 4):
                loader = DataLoader(
                    source, LoaderConfig(batch_size=2, n_workers=n_workers, seed=5)
                )
                runs.append([_record_order(loader, owners) for _ in range(3)])
        assert runs[0] == runs[1] == runs[2]


class TestStallTracker:
    def test_fraction_and_totals(self):
        tracker = StallTracker()
        tracker.record_wait(1.0)
        tracker.record_compute(3.0)
        assert tracker.total_wait == 1.0
        assert tracker.stall_fraction == pytest.approx(0.25)

    def test_stalled_iterations_threshold(self):
        tracker = StallTracker()
        tracker.record_wait(0.0001)
        tracker.record_wait(0.5)
        assert tracker.stalled_iterations(threshold_seconds=1e-3) == 1

    def test_timeline(self):
        tracker = StallTracker()
        tracker.record_wait(0.1)
        tracker.record_wait(0.2)
        assert tracker.timeline() == [(0, 0.1), (1, 0.2)]

    def test_empty_tracker(self):
        assert StallTracker().stall_fraction == 0.0

    def test_running_totals_equal_the_lists(self):
        """The totals are kept beside the per-iteration lists, not summed from
        them per read, and need no live registry."""
        from repro.obs import MetricsRegistry

        tracker = StallTracker(
            wait_seconds=[0.25, 0.5],
            compute_seconds=[1.0],
            registry=MetricsRegistry(enabled=False),
        )
        assert tracker.total_wait == 0.75 and tracker.total_compute == 1.0
        for index in range(50):
            tracker.record_wait(index * 1e-3)
            if index % 3:
                tracker.record_compute(index * 2e-3)
        assert len(tracker.wait_seconds) == 52
        assert tracker.total_wait == pytest.approx(sum(tracker.wait_seconds))
        assert tracker.total_compute == pytest.approx(sum(tracker.compute_seconds))
        assert tracker.timeline()[:2] == [(0, 0.25), (1, 0.5)]
