"""Process-parallel minibatch codecs through one shared-memory pixel slab.

The fast decode path is mostly entropy decode: per 224-px image on one
thread, 3.19 ms of it against ≈ 0.5 ms of pixel decode at scan group 10
(≈ 86 %), and 0.55 against 0.49–0.51 ms at group 1 (2 shared vCPUs; the
end-to-end benchmark reports the two as
``codecs.entropy.decode_ms_per_sample`` and
``codecs.pixelpath.decode_ms_per_sample``).  The sequential per-symbol
Huffman loop cannot be vectorized inside one Python interpreter.
:class:`DecodePool` beats that wall with *software* parallelism instead: a
persistent fleet of worker processes decodes the streams of a minibatch
concurrently, one core per worker, and hands the pixels back through a
``multiprocessing.shared_memory`` slab so no pixel data is ever pickled.

:class:`EncodePool` is the same engine with the data flow inverted for
ingest (dataset conversion): the parent lays a chunk of images out in the
slab (pixels *in* via shared memory, one memcpy each), workers run the
batched float32 forward path + entropy encoder
(:func:`~repro.codecs.progressive.encode_progressive_batch`), and the
encoded streams — orders of magnitude smaller than the pixels — return
through the ordinary result queue.  The two public classes are one batch
method each over a shared lifecycle base (:class:`_Pool`): one engine
(:class:`_PoolState`: worker fleet, work-stealing chunk queue, the slab,
batch wait loop, crash fallback) runs both, parameterised by a
:class:`_Direction` that says how an item is measured, what a worker does
with a chunk, and what the in-process equivalent is.

Architecture
------------

* **A pool is a fleet.**  ``n_workers >= 2`` processes are started once
  (fork where available, spawn otherwise) and loop on a shared task queue
  until the pool closes; fewer is a ``ValueError``, because one worker
  process only adds queue and copy overhead to in-process decode.  Worker
  startup cost is paid once per pool, not per batch.
* **Chunked task queue (work stealing).**  A batch is split into
  ``CHUNKS_PER_WORKER`` chunks per worker, balanced by the bytes that drive
  the work (compressed bytes to decode, pixel bytes to encode), and all
  chunks go onto one shared queue.  Workers pull the next chunk whenever
  they finish one, so uneven item sizes self-balance instead of serializing
  on the slowest pre-assigned partition.
* **One shared-memory slab.**  The parent gives every item's pixels a
  fixed region inside the pool's one slab and sends workers only
  ``(stream or None, offset, nbytes, shape)`` metadata.  Decode workers run
  the ordinary in-process decoder
  (:func:`~repro.codecs.progressive.decode_progressive_batch`) and write
  the uint8 pixels straight into the slab; the parent copies each frame out
  into an ordinary array before the batch returns.  Encode workers read the
  pixels the parent laid out and return streams.  One batch runs at a time
  and every worker is done with the slab (or killed) before a batch
  returns, so nothing outside the pool ever sees the slab and the next
  batch reuses it; a batch that needs more bytes replaces it with a larger
  one under a new name, and a worker remaps only when the name changes.
* **Transparent fallback.**  A closed pool, a worker crash, a stalled
  batch, or a worker-side codec error all degrade to the in-process batch
  codec.  After a failure the whole fleet is restarted with fresh queues
  (a killed process can die holding a queue lock, so the old plumbing is
  never trusted again), and the unfinished part of the batch is finished
  in-process — the caller sees identical results either way.

* **One BLAS thread per worker.**  Before its first task a worker caps
  the OpenBLAS that NumPy loaded to one thread (:func:`_cap_blas_threads`,
  through ``ctypes``): a forked worker otherwise keeps a BLAS thread pool
  sized to the machine, and on 2 vCPUs two workers ran up to four busy
  threads and read about half the rate of in-process decode.  In-process
  decode keeps the library default.  The parent's
  ``codec.pool.blas_threads`` gauge reads 1 when workers cap, and 0 when
  no OpenBLAS thread setter was found and they run with the default.

Pooled output is *byte-identical* to in-process output: workers
run exactly the same code on exactly the same bytes, and the batch layout
never mixes pixels across images.  ``tests/test_codecs_parallel.py`` pins
this for both directions across scan groups, worker counts, and mid-batch
worker kills.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import signal
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from itertools import accumulate
from multiprocessing import shared_memory
from queue import Empty
from typing import Callable, NamedTuple

import numpy as np

from repro.codecs.image import ImageBuffer
from repro.codecs.markers import parse_frame_header
from repro.codecs.progressive import decode_progressive_batch, encode_progressive_batch
from repro.obs import diff_snapshots, get_registry

__all__ = ["DecodePool", "EncodePool", "PoolStats"]

#: Chunks created per worker and batch: enough granularity that a worker
#: finishing early steals meaningful work, few enough that queue overhead
#: stays negligible.
CHUNKS_PER_WORKER = 4

#: Smallest slab allocated (a new slab rounds up to this), so a stream of
#: small batches of varying size keeps one slab instead of regrowing it.
MIN_SLAB_BYTES = 1 << 20

#: Seconds without any chunk completing (workers alive) before a batch is
#: declared stalled and finished in-process.  At in-process decode rates this
#: corresponds to tens of MB of compressed data per chunk — far beyond any
#: realistic record.
STALL_TIMEOUT = 30.0

#: How often the parent re-checks worker liveness while waiting on results.
_POLL_SECONDS = 0.05

_SENTINEL = None


def _frame_geometry(payload: bytes) -> tuple[tuple[int, ...], int]:
    """Decoded shape and byte size of a stream, from its frame header only."""
    header, _ = parse_frame_header(payload)
    if header.n_components == 1:
        shape: tuple[int, ...] = (header.height, header.width)
    else:
        shape = (header.height, header.width, 3)
    nbytes = int(np.prod(shape))
    return shape, nbytes


def _region(buf, offset: int, nbytes: int) -> np.ndarray:
    """The flat uint8 view of one item's pixel region in a slab buffer."""
    return np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=offset)


def _chunk_by_bytes(sizes: list[int], n_chunks: int) -> list[list[int]]:
    """Split item indices into <= ``n_chunks`` contiguous, byte-balanced runs."""
    n_chunks = max(1, min(n_chunks, len(sizes)))
    total = sum(sizes)
    target = total / n_chunks
    chunks: list[list[int]] = []
    current: list[int] = []
    accumulated = 0
    for index, size in enumerate(sizes):
        current.append(index)
        accumulated += size
        remaining_items = len(sizes) - index - 1
        remaining_chunks = n_chunks - len(chunks) - 1
        if (accumulated >= target * (len(chunks) + 1) and remaining_chunks > 0) or (
            remaining_items == remaining_chunks and remaining_chunks > 0 and current
        ):
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


# --------------------------------------------------------------------------
# The two directions
# --------------------------------------------------------------------------


class _Direction(NamedTuple):
    """Everything that differs between decoding and encoding a batch.

    A job on the task queue is ``(stream or None, offset, nbytes, shape)``:
    the item's pixel region in the slab, plus the compressed stream when
    that is the input.  Whichever side of an item is *not* pixels — the
    input stream of a decode, the output stream of an encode — rides the
    queues; pixels only ever cross through the slab.
    """

    #: Metric namespace of the worker-side chunk timing (``<metrics>.pool.*``)
    #: and stem of the worker process names.
    metrics: str
    #: ``(items, params) -> outputs``: the in-process batch codec — what a
    #: worker runs on its chunk and what every fallback runs instead.
    inprocess: Callable
    #: ``(item) -> (shape, nbytes, weight, pixels or None)``: the item's slab
    #: region, its share of the batch's work (what chunks are balanced by),
    #: and the pixels the parent must lay out in the region beforehand.
    measure: Callable
    #: ``(shm, params, jobs) -> streams or None``: one chunk, worker side.
    work: Callable


def _measure_stream(payload: bytes):
    # Decode cost scales with the compressed bytes; no pixels go in.
    shape, nbytes = _frame_geometry(payload)
    return shape, nbytes, len(payload), None


def _decode_chunk(shm, max_scans, jobs) -> None:
    """Decode a chunk with the ordinary batch decoder, pixels into the slab."""
    images = decode_progressive_batch([payload for payload, _, _, _ in jobs], max_scans)
    for image, (_, offset, nbytes, shape) in zip(images, jobs):
        pixels = image.pixels
        if pixels.shape != tuple(shape) or pixels.nbytes != nbytes:
            raise ValueError(
                f"decoded frame is {pixels.shape}, slab region expects {shape}"
            )
        _region(shm.buf, offset, nbytes)[:] = pixels.reshape(-1)


def _encode_inprocess(images: list[ImageBuffer], params) -> list[bytes]:
    quality, layout = params
    return encode_progressive_batch(images, quality=quality, layout=layout)


def _measure_image(image: ImageBuffer):
    # Encode cost scales with the uncompressed size, unlike decode.
    pixels = image.pixels
    return pixels.shape, pixels.nbytes, pixels.nbytes, pixels


def _slab_image(shm, offset: int, nbytes: int, shape) -> ImageBuffer:
    """Wrap a slab region as a zero-copy read-only ImageBuffer."""
    region = _region(shm.buf, offset, nbytes).reshape(shape)
    # Read-only view: ImageBuffer.from_array wraps read-only arrays without
    # copying, so the encoder reads straight out of the slab.
    region.flags.writeable = False
    return ImageBuffer.from_array(region)


def _encode_chunk(shm, params, jobs) -> list[bytes]:
    """Encode a chunk straight out of the slab; the streams ride the queue.

    The slab views die with this frame, before the result ships, so a
    remap or worker exit can unmap the segment cleanly.
    """
    images = [_slab_image(shm, offset, nbytes, shape) for _, offset, nbytes, shape in jobs]
    return _encode_inprocess(images, params)


_DECODE = _Direction(
    metrics="decode",
    inprocess=decode_progressive_batch,  # (payloads, max_scans)
    measure=_measure_stream,
    work=_decode_chunk,
)
_ENCODE = _Direction(
    metrics="ingest",
    inprocess=_encode_inprocess,
    measure=_measure_image,
    work=_encode_chunk,
)


# --------------------------------------------------------------------------
# BLAS threads
# --------------------------------------------------------------------------

#: ``(set_num_threads, get_num_threads)`` symbol names, tried in order:
#: NumPy 2 wheels bundle ``scipy_openblas`` with a 64-bit-integer suffix;
#: a NumPy built against a system OpenBLAS has the plain names.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_calls():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS this process
    mapped, or ``None``.

    NumPy maps its BLAS at import, so the library is a file named
    ``*openblas*`` in ``/proc/self/maps``; a platform without that file, no
    such library or none of the known symbols gives ``None``.  Resolved
    once per process: a forked worker inherits the parent's resolution.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        library = ctypes.CDLL(path)
        for setter_name, getter_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, setter_name) and hasattr(library, getter_name):
                setter, getter = getattr(library, setter_name), getattr(library, getter_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _cap_blas_threads() -> None:
    """Run this process's OpenBLAS on one thread (a worker's first step)."""
    calls = _openblas_thread_calls()
    if calls is not None:
        calls[0](1)


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------


def _worker_main(direction: _Direction, task_queue, result_queue) -> None:
    """Long-lived worker loop: pull a chunk, run the direction's step, report.

    Workers ignore SIGINT so a Ctrl-C in the parent tears the fleet down
    through the pool's shutdown protocol (sentinels, then terminate) rather
    than corrupting a queue mid-put.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _cap_blas_threads()
    # The registry's fork hook already zeroed inherited totals (and a
    # spawned worker starts fresh); reset again defensively so the first
    # chunk's delta is exactly this worker's own work.
    registry = get_registry()
    registry.reset()
    slab: shared_memory.SharedMemory | None = None
    try:
        last_snapshot = registry.snapshot()
        while True:
            task = task_queue.get()
            if task is _SENTINEL:
                break
            batch_id, chunk_id, slab_name, params, jobs = task
            try:
                chunk_started = time.perf_counter()
                if slab is None or slab.name != slab_name:
                    # First task, or the parent replaced its slab for a
                    # larger batch: drop the old mapping (an unlinked
                    # segment stays resident while mapped) and map this one.
                    if slab is not None:
                        slab.close()
                    slab = shared_memory.SharedMemory(name=slab_name)
                streams = direction.work(slab, params, jobs)
                # Per-worker chunk timing plus the registry delta since
                # the previous chunk ride back in the result tuple; the
                # parent merges the delta so fleet-wide metrics aggregate
                # exactly as if the chunk had run in-process (fork-aware
                # aggregation — see tests/test_obs.py parity test).
                registry.histogram(f"{direction.metrics}.pool.chunk_seconds").observe(
                    time.perf_counter() - chunk_started
                )
                registry.counter(f"{direction.metrics}.pool.chunks_total").inc()
                snapshot = registry.snapshot()
                delta = diff_snapshots(snapshot, last_snapshot)
                last_snapshot = snapshot
                result_queue.put((batch_id, chunk_id, None, streams, delta))
            except Exception:
                last_snapshot = registry.snapshot()
                result_queue.put((batch_id, chunk_id, traceback.format_exc(), None, None))
    except (KeyboardInterrupt, EOFError, OSError):
        pass  # parent is gone or tearing down; exit quietly
    finally:
        if slab is not None:
            try:
                slab.close()
            except Exception:
                pass


# --------------------------------------------------------------------------
# The slab
# --------------------------------------------------------------------------


def _create_slab(nbytes: int) -> shared_memory.SharedMemory:
    while True:
        name = f"pcrslab_{os.getpid()}_{os.urandom(4).hex()}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:
            continue


def _destroy_slab(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except OSError:
        pass


# --------------------------------------------------------------------------
# The engine (detached from the user-facing objects so a GC'd pool can still
# be shut down by its finalizer)
# --------------------------------------------------------------------------


@dataclass
class PoolStats:
    """Counters a pool accumulates over its lifetime.

    ``items`` counts streams decoded or images encoded.  Byte volumes are on
    the :mod:`repro.obs` registry (``decode.bytes_total``,
    ``ingest.pixel_bytes_total``, ``ingest.encoded_bytes_total``), where
    pooled and in-process work aggregate identically.
    """

    batches: int = 0
    parallel_batches: int = 0
    fallback_batches: int = 0
    items: int = 0
    fleet_restarts: int = 0
    workers_started: int = 0
    last_worker_error: str = field(default="", repr=False)


class _PoolState:
    """One pool's fleet, queues, slab and stats, for either direction.

    A batch holds ``lock`` from start to finish, so batches never overlap
    and every stats write happens under it.
    """

    def __init__(self, direction: _Direction, n_workers: int):
        self.direction = direction
        self.n_workers = n_workers
        self.lock = threading.RLock()
        self.closed = False
        self.workers: list = []
        self.tasks = None
        self.results = None
        self.slab: shared_memory.SharedMemory | None = None
        self.batch_counter = 0
        self.stats = PoolStats()
        # Fork where the platform has it (workers inherit warm module state
        # and start in milliseconds), spawn otherwise.
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        # Start the shared-memory resource tracker *before* forking workers:
        # children then inherit the parent's tracker instead of each lazily
        # spawning their own (a per-worker tracker would try to "clean up"
        # the parent's live slab when its worker exits).  Registrations are
        # set-deduplicated in the tracker, so worker-side attach registers
        # collapse into the parent's single register/unlink pair.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        get_registry().gauge("codec.pool.blas_threads").set(
            0 if _openblas_thread_calls() is None else 1
        )
        with self.lock:
            self.ensure_workers()

    # -- workers ----------------------------------------------------------

    def ensure_workers(self) -> None:
        # A worker that died *between* batches (OOM killer, external SIGKILL)
        # may have been blocked in task_queue.get() holding the queue's
        # shared read lock — forking replacements onto the same queues would
        # deadlock the whole fleet with every process "alive".  Any death
        # therefore discards the old plumbing wholesale, same as a mid-batch
        # crash.
        if any(not worker.is_alive() for worker in self.workers):
            self.restart_fleet()
        if self.tasks is None:
            self.tasks = self.ctx.Queue()
            self.results = self.ctx.Queue()
        while len(self.workers) < self.n_workers:
            worker = self.ctx.Process(
                target=_worker_main,
                args=(self.direction, self.tasks, self.results),
                daemon=True,
                name=f"pcr-{self.direction.metrics}-{len(self.workers)}",
            )
            worker.start()
            self.workers.append(worker)
            self.stats.workers_started += 1

    def restart_fleet(self) -> None:
        """Kill every worker and discard the queues (crash recovery).

        A process that died mid-``put``/``get`` can leave a queue lock held
        forever, so after any failure the old queues are abandoned wholesale
        and the next batch starts from fresh plumbing.
        """
        workers, self.workers = self.workers, []
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=1.0)
        self._discard_queues()
        self.stats.fleet_restarts += 1

    def _discard_queues(self) -> None:
        for q in (self.tasks, self.results):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
        self.tasks = None
        self.results = None

    # -- the slab ---------------------------------------------------------

    def slab_for(self, nbytes: int) -> shared_memory.SharedMemory:
        """The pool's one slab, replaced by a larger one when a batch outgrows it.

        The replacement is created before the old slab is unlinked, so it
        cannot reuse the old name: a worker remaps exactly when the name a
        task carries changes.
        """
        if self.slab is None or self.slab.size < nbytes:
            old, self.slab = self.slab, _create_slab(max(nbytes, MIN_SLAB_BYTES))
            if old is not None:
                _destroy_slab(old)
        return self.slab

    # -- batches ----------------------------------------------------------

    def run_batch(self, items, params) -> list:
        """Run one minibatch; output is identical whichever path it takes."""
        items = list(items)
        if not items:
            # Nothing to spread, but the in-process codec still refuses bad
            # parameters, as it does for a batch of one.
            return self.direction.inprocess(items, params)
        # One batch is in flight at a time: the pool parallelizes *within*
        # a batch, which is where the minibatch-shaped work lives.
        with self.lock:
            if self.closed:
                outputs = self.direction.inprocess(items, params)
            else:
                outputs = self._run_parallel(items, params)
            self.stats.batches += 1
            self.stats.items += len(items)
            return outputs

    def _run_parallel(self, items: list, params) -> list:
        self.ensure_workers()
        try:
            shapes, sizes, weights, inbound = zip(*map(self.direction.measure, items))
        except ValueError:
            # An item the parent cannot even size: the in-process codec
            # raises what the batch raises there, naming its item.
            return self.direction.inprocess(items, params)
        # Regions are laid out back-to-back in item order.
        ends = list(accumulate(sizes))
        offsets = [0, *ends[:-1]]
        slab = self.slab_for(ends[-1])
        for pixels, offset, nbytes in zip(inbound, offsets, sizes):
            if pixels is not None:
                # Pixels in: one memcpy per image is the only parent-side
                # pixel movement.
                _region(slab.buf, offset, nbytes)[:] = pixels.reshape(-1)
        streams = [item if pixels is None else None for item, pixels in zip(items, inbound)]
        chunks = _chunk_by_bytes(weights, self.n_workers * CHUNKS_PER_WORKER)
        self.batch_counter += 1
        batch_id = self.batch_counter
        for chunk_id, indices in enumerate(chunks):
            jobs = [(streams[i], offsets[i], sizes[i], shapes[i]) for i in indices]
            self.tasks.put((batch_id, chunk_id, slab.name, params, jobs))
        pending = set(range(len(chunks)))
        returned: dict[int, list | None] = {}
        failed = reported = False
        last_progress = time.monotonic()
        while pending and not failed:
            try:
                done_batch, done_chunk, error, chunk_streams, delta = self.results.get(
                    timeout=_POLL_SECONDS
                )
            except Empty:
                # Dead workers are detected directly; a worker that is
                # alive but wedged (e.g. a replacement fork that inherited
                # a lock held at fork time) trips the stall timeout, so
                # a batch can degrade but never hang.
                if any(not worker.is_alive() for worker in self.workers):
                    failed = True
                elif time.monotonic() - last_progress > STALL_TIMEOUT:
                    self.stats.last_worker_error = "batch stalled"
                    failed = True
                continue
            if done_batch != batch_id:
                continue  # stale result from an aborted batch
            if error is not None:
                self.stats.last_worker_error = error
                failed = reported = True
                break
            returned[done_chunk] = chunk_streams
            pending.discard(done_chunk)
            last_progress = time.monotonic()
            if delta:
                # Fold the worker's per-chunk registry delta into the
                # parent: fleet metrics equal in-process metrics.
                get_registry().merge(delta)

        outputs: list = [None] * len(items)
        if failed:
            # Tear the fleet down to a clean slate (a killed worker can
            # die holding a queue lock), then finish the batch with the
            # ordinary in-process codec; completed chunks keep their
            # results (identical either way).  After a worker reported a
            # codec *error* the whole batch is redone, so it re-raises here
            # with the real exception, naming the item by its place in the
            # batch as an in-process batch does.
            self.stats.fallback_batches += 1
            self.restart_fleet()
            if reported:
                fallback = list(range(len(items)))
            else:
                fallback = sorted(index for chunk_id in pending for index in chunks[chunk_id])
            redone = self.direction.inprocess([items[i] for i in fallback], params)
            for index, output in zip(fallback, redone):
                outputs[index] = output
        for chunk_id, chunk_outputs in returned.items():
            indices = chunks[chunk_id]
            if chunk_outputs is None:
                # Pixels came back through the slab: copy each frame out, so
                # the caller holds ordinary arrays and the slab is free for
                # the next batch.
                chunk_outputs = [
                    ImageBuffer(_region(slab.buf, offsets[i], sizes[i]).reshape(shapes[i]).copy())
                    for i in indices
                ]
            for index, output in zip(indices, chunk_outputs):
                outputs[index] = output
        if returned:
            # Only count batches where workers actually ran chunks; an
            # all-fallback batch must not masquerade as parallel.
            self.stats.parallel_batches += 1
        return outputs

    # -- shutdown ---------------------------------------------------------

    def shutdown(self) -> None:
        with self.lock:
            if self.closed:
                return
            self.closed = True
            workers, self.workers = self.workers, []
            tasks = self.tasks
            slab, self.slab = self.slab, None
        if tasks is not None:
            for _ in workers:
                try:
                    tasks.put(_SENTINEL)
                except Exception:
                    break
        for worker in workers:
            worker.join(timeout=5.0)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=1.0)
        self._discard_queues()
        if slab is not None:
            _destroy_slab(slab)


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


class _Pool:
    """The lifecycle both public pools share; a subclass adds its batch call.

    One batch is in flight at a time (concurrent callers serialize on an
    internal lock).  Use a pool as a context manager or call :meth:`close`;
    an abandoned pool is also shut down by a GC finalizer so no worker
    processes or shared-memory segments outlive the interpreter.
    """

    _direction: _Direction

    def __init__(self, n_workers: int) -> None:
        self.n_workers = int(n_workers)
        if self.n_workers < 2:
            raise ValueError(
                f"a pool is a fleet of at least 2 worker processes, got {n_workers}; "
                "run the in-process batch codec instead"
            )
        self._state = _PoolState(self._direction, self.n_workers)
        self._finalizer = weakref.finalize(self, _PoolState.shutdown, self._state)

    @property
    def stats(self) -> PoolStats:
        return self._state.stats

    @property
    def closed(self) -> bool:
        return self._state.closed

    def close(self) -> None:
        """Stop the workers and unlink the shared-memory slab.

        Frames a pool has returned are ordinary arrays and stay valid.  A
        batch sent to a closed pool transparently runs in-process.
        """
        self._state.shutdown()
        self._finalizer.detach()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DecodePool(_Pool):
    """A persistent process pool that decodes minibatches of PCR streams.

    ``decode_batch`` is a drop-in replacement for
    :func:`repro.codecs.progressive.decode_progressive_batch`: it takes
    the same list of stream bytes and returns the same list of
    :class:`~repro.codecs.image.ImageBuffer` — ordinary writable arrays,
    byte-identical to in-process decoding — except the entropy
    loops of the batch run on ``n_workers`` cores concurrently and the
    pixels come back through shared memory.

    ``n_workers`` must be at least 2; callers that take a worker count
    (``DataLoader``'s ``decode_workers``) decode in-process below that.

    The initial fleet forks at construction time (create the pool before
    starting reader threads, as ``DataLoader`` does).  Respawning after a
    crash may fork from an already-threaded parent; a replacement child
    that wedges on a lock inherited at fork time is caught by the
    ``STALL_TIMEOUT`` watchdog and the batch finishes in-process.
    """

    _direction = _DECODE

    def decode_batch(self, payloads, max_scans: int | None = None) -> list[ImageBuffer]:
        """Decode a minibatch of streams; byte-identical to in-process decode."""
        return self._state.run_batch(payloads, max_scans)


class EncodePool(_Pool):
    """A persistent process pool that encodes minibatches of images.

    ``encode_batch`` is a drop-in replacement for
    :func:`repro.codecs.progressive.encode_progressive_batch`: it takes the
    same list of :class:`~repro.codecs.image.ImageBuffer` and returns the
    same list of encoded streams, identical to in-process encoding —
    except the forward DCT + entropy loops of the batch run on
    ``n_workers`` cores concurrently, and the pixels travel to the workers
    through the shared-memory slab (one parent-side memcpy per image, zero
    pickling of pixel data).  Encoded streams are orders of magnitude
    smaller than pixels, so they return through the ordinary result queue.

    ``n_workers`` must be at least 2; the converters' ``encode_workers``
    encode in-process below that.

    Everything else — fleet lifecycle, chunked work stealing, the slab,
    crash fallback, the stall watchdog — is :class:`DecodePool`'s engine
    (see the module docstring); after any worker failure the unfinished
    remainder of the batch is encoded in-process and the caller sees
    identical streams either way.
    """

    _direction = _ENCODE

    def encode_batch(
        self,
        images,
        *,
        quality: int = 90,
        layout: str = "progressive",
    ) -> list[bytes]:
        """Encode a minibatch of images; identical to in-process encoding.

        ``layout`` is ``"progressive"`` or ``"sequential"``, as in
        :func:`~repro.codecs.progressive.encode_progressive_batch`.
        """
        return self._state.run_batch(images, (quality, layout))
