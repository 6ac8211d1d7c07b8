"""Differential and lifecycle tests for the process-parallel codec engine.

The contract under test: :class:`repro.codecs.parallel.DecodePool` output is
*byte-identical* to in-process fast-path decoding — across scan groups,
colour modes, odd dimensions, worker counts, and every failure path (worker
kill mid-batch, dead fleet, closed pool) — its frames are ordinary arrays
copied out of the pool's one shared-memory slab, and a pool never leaks
worker processes or shared-memory segments.  ``TestPoolConformance`` runs the
engine-level part of that contract over both public pools, since
:class:`~repro.codecs.parallel.EncodePool` is the same engine with the data
flow reversed.
"""

from __future__ import annotations

import gc
import glob
import inspect
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.markers import EOI, CodecFormatError, find_scan_segments, write_scan_segment
from repro.codecs import parallel
from repro.codecs.parallel import DecodePool, EncodePool, _chunk_by_bytes
from repro.codecs.progressive import (
    ProgressiveCodec,
    assemble_partial_stream,
    decode_progressive_batch,
    encode_progressive_batch,
    split_scans,
)
from tests.conftest import make_structured_image

N_GROUPS = 10


def _live_slabs() -> list[str]:
    return glob.glob("/dev/shm/pcrslab_*")


def _assert_identical(expected, actual) -> None:
    assert len(expected) == len(actual)
    for index, (ref, out) in enumerate(zip(expected, actual)):
        assert ref.pixels.dtype == out.pixels.dtype == np.uint8
        assert ref.pixels.shape == out.pixels.shape, f"image {index}"
        assert np.array_equal(ref.pixels, out.pixels), f"image {index} differs"


@pytest.fixture(scope="module")
def images() -> list:
    """Gray/colour images over even and odd dimensions."""
    return [
        make_structured_image(48, seed=1, color=True),
        make_structured_image(48, seed=2, color=False),
        make_structured_image(37, seed=3, color=True),  # odd dims, colour
        make_structured_image(21, seed=4, color=False),  # odd dims, gray
        make_structured_image(40, seed=5, color=True),
    ]


@pytest.fixture(scope="module")
def streams(images) -> list[bytes]:
    """Full 10-scan streams of ``images``."""
    codec = ProgressiveCodec(quality=90)
    return [codec.encode(image) for image in images]


@pytest.fixture(scope="module")
def big_image():
    """One colour image whose pixels exceed the smallest slab (1 MiB)."""
    return make_structured_image(600, seed=6, color=True)


@pytest.fixture(scope="module")
def big_stream(big_image) -> bytes:
    return ProgressiveCodec(quality=90).encode(big_image)


@pytest.fixture(scope="module")
def group_payloads(streams) -> dict[int, list[bytes]]:
    """The same streams truncated to every scan-group prefix 1..10."""
    split = [split_scans(stream) for stream in streams]
    return {
        group: [assemble_partial_stream(prefix, scans[:group]) for prefix, scans in split]
        for group in range(1, N_GROUPS + 1)
    }


# -- chunking ---------------------------------------------------------------


class TestChunking:
    @pytest.mark.parametrize(
        "sizes,n_chunks",
        [
            ([5] * 10, 8),
            ([1000, 1, 1, 1, 1], 4),
            ([1, 1, 1, 1, 1000], 4),
            ([7], 8),
            ([3, 3], 1),
            (list(range(1, 30)), 6),
        ],
    )
    def test_partition_invariants(self, sizes, n_chunks):
        chunks = _chunk_by_bytes(sizes, n_chunks)
        # Every index exactly once, in order, no empty chunk, bounded count.
        assert [i for chunk in chunks for i in chunk] == list(range(len(sizes)))
        assert all(chunks)
        assert len(chunks) <= max(1, min(n_chunks, len(sizes)))

    def test_uneven_sizes_get_split(self):
        # A huge stream must not drag the whole tail into one chunk.
        chunks = _chunk_by_bytes([1000] + [10] * 8, 4)
        assert len(chunks) >= 3


# -- differential decoding --------------------------------------------------


class TestDifferentialDecode:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_byte_identical_across_scan_groups(self, group_payloads, n_workers):
        with DecodePool(n_workers) as pool:
            for group in range(1, N_GROUPS + 1):
                payloads = group_payloads[group]
                expected = decode_progressive_batch(payloads)
                _assert_identical(expected, pool.decode_batch(payloads))

    def test_max_scans_forwarded(self, streams):
        with DecodePool(2) as pool:
            expected = decode_progressive_batch(streams, max_scans=3)
            _assert_identical(expected, pool.decode_batch(streams, max_scans=3))

    def test_empty_and_single(self, streams):
        with DecodePool(2) as pool:
            assert pool.decode_batch([]) == []
            _assert_identical(
                decode_progressive_batch(streams[:1]), pool.decode_batch(streams[:1])
            )

    def test_garbage_payload_raises(self, streams):
        with DecodePool(2) as pool:
            with pytest.raises(CodecFormatError):
                pool.decode_batch([b"not a stream"])
            # Pool unharmed.
            _assert_identical(decode_progressive_batch(streams), pool.decode_batch(streams))

    def test_worker_decode_error_surfaces_in_process(self, streams):
        # A stream whose first scan payload is truncated decodes to EOFError;
        # the worker reports it, the pool restarts the fleet and re-decodes
        # in-process, and the caller sees the genuine exception.
        stream = streams[0]
        prefix, _ = split_scans(stream)
        segment = find_scan_segments(stream)[0]
        body = stream[segment.payload_start : segment.end]
        bad = prefix + write_scan_segment(segment.header, body[:-8]) + EOI
        with DecodePool(2) as pool:
            with pytest.raises(EOFError):
                pool.decode_batch([bad])
            assert pool.stats.fallback_batches == 1
            # The fleet comes back for the next batch.
            _assert_identical(decode_progressive_batch(streams), pool.decode_batch(streams))
            assert pool.stats.parallel_batches >= 1

    def test_an_error_names_its_stream_by_its_place_in_the_batch(self, streams):
        """As in-process: the lowest-index defect's own error, noted with its
        position in the whole batch, whether a worker or the parent's frame
        sizing finds it."""
        stream = streams[0]
        prefix, _ = split_scans(stream)
        segment = find_scan_segments(stream)[0]
        body = stream[segment.payload_start : segment.end]
        bad = prefix + write_scan_segment(segment.header, body[:-8]) + EOI
        n = len(streams)
        with DecodePool(2) as pool:
            with pytest.raises(EOFError) as caught:
                pool.decode_batch([*streams[:-1], bad])
            assert caught.value.__notes__ == [f"stream {n - 1} of {n}"]
            with pytest.raises(EOFError) as caught:
                pool.decode_batch([*streams[:2], bad, b"not a stream", *streams[2:]])
            assert caught.value.__notes__ == [f"stream 2 of {n + 2}"]


# -- frames copied out of the slab --------------------------------------------


def _frame_flags(pixels: np.ndarray) -> tuple:
    flags = pixels.flags
    return type(pixels), pixels.dtype, flags.writeable, flags.c_contiguous, flags.aligned


class TestFramesCopiedOut:
    def test_frames_are_plain_writable_arrays(self, streams):
        expected = decode_progressive_batch(streams)
        with DecodePool(2) as pool:
            out = pool.decode_batch(streams)
            assert pool.stats.parallel_batches == 1
        for ref, img in zip(expected, out):
            assert type(img.pixels) is np.ndarray
            assert img.pixels.base is None  # owns its memory: no slab behind it
            assert _frame_flags(img.pixels) == _frame_flags(ref.pixels)
            assert img.pixels.flags.writeable
        _assert_identical(expected, out)

    def test_frames_stay_intact_across_batches_and_close(self, streams, big_stream):
        # Holding batch-1 frames while later batches reuse the slab, and
        # after a larger one replaces it and the pool closes, must not
        # change them: they were copied out before batch 1 returned.
        with DecodePool(2) as pool:
            first = pool.decode_batch(streams)
            snapshots = [img.pixels.copy() for img in first]
            pool.decode_batch(list(reversed(streams)))
            pool.decode_batch([big_stream])
        for img, snap in zip(first, snapshots):
            assert np.array_equal(img.pixels, snap)
        _assert_identical(decode_progressive_batch(streams), first)


# -- failure and fallback ---------------------------------------------------


class TestFailurePaths:
    def test_worker_kill_mid_batch(self, streams):
        payloads = streams * 20
        expected = decode_progressive_batch(payloads)
        pool = DecodePool(2)
        try:
            state = pool._state

            def assassin():
                time.sleep(0.01)
                for worker in list(state.workers):
                    worker.terminate()

            killer = threading.Thread(target=assassin)
            killer.start()
            out = pool.decode_batch(payloads)
            killer.join()
            _assert_identical(expected, out)
            # Whatever the interleaving, the next batch must also be exact.
            _assert_identical(decode_progressive_batch(streams), pool.decode_batch(streams))
        finally:
            pool.close()

    def test_closed_pool_decodes_in_process(self, streams):
        pool = DecodePool(2)
        pool.close()
        _assert_identical(decode_progressive_batch(streams), pool.decode_batch(streams))


# -- one engine, both directions ---------------------------------------------


class _PoolCase:
    """How to drive one public pool class through the shared contract."""

    def __init__(self, pool_cls, images, streams, big_image, big_stream):
        self.pool_cls = pool_cls
        if pool_cls is DecodePool:
            self.items = streams
            self.run = lambda pool, items: pool.decode_batch(items)
            self.reference = decode_progressive_batch
            # A first scan truncated mid-symbol: the worker hits EOFError.
            prefix, _ = split_scans(streams[0])
            segment = find_scan_segments(streams[0])[0]
            body = streams[0][segment.payload_start : segment.end]
            bad = prefix + write_scan_segment(segment.header, body[:-8]) + EOI
            self.poison = lambda pool: pool.decode_batch([bad])
            self.poison_error = EOFError
            self.large = [big_stream]
        else:
            self.items = images
            self.large = [big_image]
            self.run = lambda pool, items: pool.encode_batch(items)
            self.reference = encode_progressive_batch
            self.poison = lambda pool: pool.encode_batch(images, layout="interleaved")
            self.poison_error = ValueError

    def expected(self, items=None) -> list:
        return self.reference(self.items if items is None else items)

    @staticmethod
    def assert_same(expected, actual) -> None:
        if expected and isinstance(expected[0], bytes):
            assert actual == expected
        else:
            _assert_identical(expected, actual)


@pytest.fixture(params=[DecodePool, EncodePool], ids=lambda cls: cls.__name__)
def direction(request, images, streams, big_image, big_stream) -> _PoolCase:
    return _PoolCase(request.param, images, streams, big_image, big_stream)


def _kill_fleet(state) -> None:
    for worker in state.workers:
        worker.kill()  # SIGKILL: no cleanup, may die holding a queue lock
    for worker in state.workers:
        worker.join(timeout=5.0)
        assert not worker.is_alive()


def _kill_fleet_unseen(state, monkeypatch) -> None:
    """Kill the fleet where only the next batch's wait loop can notice.

    With the between-batches respawn stubbed out for one batch, its chunks
    go to a queue no worker reads, the wait loop finds the workers dead,
    and the whole batch takes the crash fallback — deterministically.
    """
    _kill_fleet(state)
    real = state.ensure_workers

    def once() -> None:
        monkeypatch.setattr(state, "ensure_workers", real)

    monkeypatch.setattr(state, "ensure_workers", once)


class TestPoolConformance:
    """The engine contract, one body, over ``DecodePool`` and ``EncodePool``."""

    def test_constructor_takes_only_workers(self, direction):
        parameters = inspect.signature(direction.pool_cls).parameters
        assert list(parameters) == ["n_workers"]
        assert list(inspect.signature(direction.pool_cls.close).parameters) == ["self"]

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_fewer_than_two_workers_raise(self, direction, n_workers):
        before = set(_live_slabs())
        children = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="at least 2 worker processes"):
            direction.pool_cls(n_workers)
        assert set(multiprocessing.active_children()) == children
        assert set(_live_slabs()) == before

    def test_closed_pool_runs_inline(self, direction):
        pool = direction.pool_cls(2)
        pool.close()
        assert pool.closed
        direction.assert_same(direction.expected(), direction.run(pool, direction.items))
        assert pool.stats.parallel_batches == 0

    def test_fleet_killed_between_batches_is_replaced(self, direction):
        with direction.pool_cls(2) as pool:
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            _kill_fleet(pool._state)
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            stats = pool.stats
            assert (stats.parallel_batches, stats.fallback_batches) == (2, 0)
            assert stats.fleet_restarts == 1
            assert stats.workers_started == 4  # 2 initial + 2 replacements
            assert all(worker.is_alive() for worker in pool._state.workers)

    def test_fleet_dying_during_a_batch_falls_back(self, direction, monkeypatch):
        with direction.pool_cls(2) as pool:
            _kill_fleet_unseen(pool._state, monkeypatch)
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            stats = pool.stats
            assert (stats.parallel_batches, stats.fallback_batches) == (0, 1)
            assert stats.fleet_restarts == 1
            # The next batch runs parallel again on a fresh fleet.
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            assert stats.parallel_batches == 1
            assert stats.workers_started == 4

    def test_sigkill_mid_batch_output_identical(self, direction):
        items = direction.items * 20
        expected = direction.expected(items)
        with direction.pool_cls(2) as pool:
            state = pool._state

            def assassin():
                time.sleep(0.01)
                for worker in list(state.workers):
                    worker.kill()

            killer = threading.Thread(target=assassin)
            killer.start()
            out = direction.run(pool, items)
            killer.join(timeout=30)
            assert not killer.is_alive()
            direction.assert_same(expected, out)
            # Whatever the interleaving, the next batch must also be exact.
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))

    def test_worker_side_error_surfaces_with_its_own_class(self, direction):
        with direction.pool_cls(2) as pool:
            with pytest.raises(direction.poison_error):
                direction.poison(pool)
            assert pool.stats.fallback_batches == 1
            assert direction.poison_error.__name__ in pool.stats.last_worker_error
            # The fleet comes back for the next batch.
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            assert pool.stats.parallel_batches >= 1

    def test_close_leaves_no_slab_and_no_worker(self, direction):
        before = set(_live_slabs())
        pool = direction.pool_cls(2)
        out = direction.run(pool, direction.items)
        workers = list(pool._state.workers)
        assert len(workers) == 2
        del out
        gc.collect()
        pool.close()
        pool.close()  # idempotent
        assert all(not worker.is_alive() for worker in workers)
        assert set(_live_slabs()) == before

    def test_stats_count_batches_items_and_reuse_one_slab(self, direction):
        before = set(_live_slabs())
        with direction.pool_cls(2) as pool:
            held = [direction.run(pool, direction.items) for _ in range(3)]
            assert direction.run(pool, []) == []  # an empty batch counts for nothing
            stats = pool.stats
            assert (stats.batches, stats.parallel_batches, stats.fallback_batches) == (3, 3, 0)
            assert stats.items == 3 * len(direction.items)
            assert (stats.workers_started, stats.fleet_restarts) == (2, 0)
            # Frames still held from every batch pin nothing: one slab.
            assert len(set(_live_slabs()) - before) == 1
        assert len(held) == 3

    def test_one_slab_renamed_only_when_outgrown(self, direction):
        before = set(_live_slabs())
        with direction.pool_cls(2) as pool:

            def slab() -> str:
                (name,) = set(_live_slabs()) - before
                return name

            assert set(_live_slabs()) == before  # made by the first batch
            direction.run(pool, direction.items)
            first = slab()
            direction.run(pool, direction.items[:1])
            assert slab() == first  # a smaller batch reuses it
            direction.assert_same(
                direction.expected(direction.large), direction.run(pool, direction.large)
            )
            grown = slab()
            assert grown != first  # replaced: workers remap by the new name
            direction.assert_same(direction.expected(), direction.run(pool, direction.items))
            assert slab() == grown
            assert pool.stats.parallel_batches == 4
        assert set(_live_slabs()) == before


# -- lifecycle / leak hygiene ----------------------------------------------


def _blas_probe(read_threads) -> parallel._Direction:
    """A pool direction whose every item is the BLAS thread count
    ``read_threads()`` reads where the item runs."""
    return parallel._Direction(
        metrics="blasprobe",
        inprocess=lambda items, params: [read_threads()] * len(items),
        measure=lambda item: ((1,), 1, 1, None),
        work=lambda shm, params, jobs: [read_threads()] * len(jobs),
    )


def _threads_in_workers(direction) -> tuple[list[int], parallel.PoolStats]:
    state = parallel._PoolState(direction, 2)
    try:
        return state.run_batch(list(range(8)), None), state.stats
    finally:
        state.shutdown()


class TestBlasThreads:
    """A pool worker caps the OpenBLAS NumPy loaded to one thread before
    its first task; the parent, and in-process decode, keep the default."""

    @pytest.fixture()
    def get_threads(self):
        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("NumPy's BLAS exports no OpenBLAS thread setter here")
        return calls[1]

    def test_a_worker_runs_one_blas_thread_and_the_parent_keeps_its_own(self, get_threads):
        from repro.obs import get_registry

        parent = get_threads()
        threads, stats = _threads_in_workers(_blas_probe(get_threads))
        assert stats.parallel_batches == 1 and stats.fallback_batches == 0
        assert threads == [1] * 8
        assert get_threads() == parent >= 1
        assert get_registry().gauge("codec.pool.blas_threads").value == 1

    def test_without_a_setter_workers_keep_the_default_and_the_gauge_says_so(
        self, get_threads, monkeypatch
    ):
        from repro.obs import get_registry

        monkeypatch.setattr(parallel, "_openblas_thread_calls", lambda: None)
        threads, stats = _threads_in_workers(_blas_probe(get_threads))
        assert stats.parallel_batches == 1
        assert threads == [get_threads()] * 8
        assert get_registry().gauge("codec.pool.blas_threads").value == 0


class TestLifecycle:
    def test_close_reaps_workers_and_slabs(self, streams):
        pool = DecodePool(2)
        out = pool.decode_batch(streams)
        workers = list(pool._state.workers)
        del out
        gc.collect()
        pool.close()
        assert all(not worker.is_alive() for worker in workers)
        assert _live_slabs() == []

    def test_close_with_frames_held_leaves_no_slab(self, streams):
        pool = DecodePool(2)
        out = pool.decode_batch(streams)
        pool.close()
        # The slab is gone at once, and the frames never depended on it.
        assert _live_slabs() == []
        _assert_identical(decode_progressive_batch(streams), out)

    def test_double_close_is_idempotent(self):
        pool = DecodePool(2)
        pool.close()
        pool.close()

    def test_resource_tracker_stays_quiet(self, tmp_path):
        """End-to-end child run: no leaked shm, no resource_tracker noise.

        The child exercises both shutdown paths — an explicitly closed pool
        and an abandoned one cleaned up by GC finalizers at interpreter
        exit — with decoded frames still held.
        """
        script = """
import sys
from repro.codecs.parallel import DecodePool
from repro.codecs.progressive import ProgressiveCodec
from tests.conftest import make_structured_image

codec = ProgressiveCodec(quality=90)
streams = [codec.encode(make_structured_image(32, seed=s, color=True)) for s in range(3)]
explicit = DecodePool(2)
held = explicit.decode_batch(streams)
explicit.close()
abandoned = DecodePool(2)
held2 = abandoned.decode_batch(streams)
sys.exit(0)
"""
        repo_root = Path(__file__).resolve().parent.parent
        before = set(_live_slabs())
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=repo_root,
            env=dict(os.environ, PYTHONPATH=f"{repo_root / 'src'}:{repo_root}"),
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        assert set(_live_slabs()) <= before
