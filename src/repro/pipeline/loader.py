"""A prefetching data loader over a PCR record source.

The loader follows the closed-system model of §A.1: a pool of worker threads
continuously reads the next record at the loader's scan group, decodes and
augments its samples, shuffles them, and pushes minibatches into a bounded
queue.  The consumer (the training loop) pops minibatches; whenever the
queue is empty the consumer's wait is recorded as a data stall.

Fidelity is the loader's own: it starts at its dataset's scan group and
passes its current group to every ``read_record``, so
:meth:`DataLoader.set_scan_group` retargets this loader's next record read
and nothing else — not a second loader over the same dataset, not a tuner's
probe of it.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.codecs.parallel import DecodePool
from repro.core.reader import ReadStats, validate_scan_group
from repro.core.source import RecordSource
from repro.obs import get_registry, get_tracer
from repro.pipeline.augment import Compose
from repro.pipeline.batch import Minibatch, collate
from repro.pipeline.sampler import SequentialSampler, ShuffleSampler
from repro.pipeline.stall import StallTracker

_END_OF_EPOCH = object()


@dataclass(frozen=True)
class LoaderConfig:
    """Configuration of a :class:`DataLoader`."""

    batch_size: int = 32
    n_workers: int = 2
    prefetch_batches: int = 8
    shuffle: bool = True
    drop_last: bool = False
    seed: int = 0
    #: Decode worker *processes* (a :class:`~repro.codecs.parallel.DecodePool`
    #: of this loader's own, shared by its reader threads).  ``0`` and ``1``
    #: decode in-process, one decode at a time under the process-wide decode
    #: gate; ``>= 2`` fans each record's streams out across that many cores.
    #: Batches are byte-identical either way.
    decode_workers: int = 0


class LoaderHook(Protocol):
    """Runs inside a :class:`DataLoader`'s read path.

    ``bind`` is called once, by the loader's constructor; ``after_read``
    after every record read, in the reader thread that did it, with that
    read's own :class:`~repro.core.reader.ReadStats` — at the record
    boundary where a :meth:`DataLoader.set_scan_group` takes effect.
    :class:`~repro.control.adaptive.AdaptiveScanGroupHook` is the one in
    this repository: it runs a fidelity policy over the loader's windows.
    """

    def bind(self, loader: "DataLoader") -> None: ...

    def after_read(self, read: ReadStats) -> None: ...


class DataLoader:
    """Iterates minibatches from any :class:`~repro.core.source.RecordSource`
    (local ``PCRDataset``, remote or sharded), at a scan group of its own."""

    def __init__(
        self,
        dataset: RecordSource,
        config: LoaderConfig | None = None,
        augmentations: Compose | None = None,
        hook: LoaderHook | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config if config is not None else LoaderConfig()
        self.augmentations = augmentations
        self.stalls = StallTracker()
        self._scan_group = dataset.scan_group
        self._rng = np.random.default_rng(self.config.seed)
        self._decode_pool: DecodePool | None = None
        self.hook = hook
        if hook is not None:
            hook.bind(self)

    # -- public API -------------------------------------------------------------

    @property
    def scan_group(self) -> int:
        """The scan group this loader reads at."""
        return self._scan_group

    def set_scan_group(self, scan_group: int) -> None:
        """Switch this loader's fidelity from its next record read on.

        This is the lightweight runtime switch PCRs provide: no re-encoding,
        no extra copies, no reconnect — only the number of bytes read per
        record changes.  A record read already under way finishes at the
        old group.  Every actual switch bumps
        ``loader.scan_group_switches_total``.
        """
        validate_scan_group(scan_group, self.dataset.n_groups)
        if scan_group != self._scan_group:
            self._scan_group = scan_group
            get_registry().counter("loader.scan_group_switches_total").inc()

    def __iter__(self) -> Iterator[Minibatch]:
        return self.epoch()

    def epoch(self) -> Iterator[Minibatch]:
        """Yield the minibatches of one epoch, prefetching in background threads.

        Shutdown is cooperative: workers block on the bounded output queue
        only with a timeout and re-check a stop event, and the consumer's
        ``finally`` sets that event and drains the queue until every worker
        has exited.  This holds on *every* exit path — a worker error being
        re-raised, the consumer abandoning the iterator mid-epoch
        (``GeneratorExit``), or normal completion — so no thread is left
        blocked on ``output_queue.put``.

        With ``decode_workers >= 2`` the loader builds a persistent
        :class:`~repro.codecs.parallel.DecodePool` of its own before the
        reader threads start and passes it to every ``read_record``; the
        dataset is not touched, so loaders sharing one dataset each decode
        through their own pool.  It survives across epochs (worker startup
        is paid once), but any *abnormal* epoch exit — ``KeyboardInterrupt``,
        ``GeneratorExit``, a re-raised worker error — tears it down along
        with the threads, so no decode processes or shared-memory slabs
        outlive an interrupted run.
        """
        if self.config.decode_workers > 1 and self._decode_pool is None:
            self._decode_pool = DecodePool(self.config.decode_workers)
        record_names = self.dataset.record_names
        sampler = (
            ShuffleSampler(record_names, seed=int(self._rng.integers(0, 2**31)))
            if self.config.shuffle
            else SequentialSampler(record_names)
        )
        work_queue: queue.Queue = queue.Queue()
        for record_name in sampler:
            work_queue.put(record_name)
        n_workers = max(1, self.config.n_workers)
        output_queue: queue.Queue = queue.Queue(maxsize=max(1, self.config.prefetch_batches))
        stop_event = threading.Event()
        workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(work_queue, output_queue, self.config.seed + worker_index, stop_event),
                daemon=True,
            )
            for worker_index in range(n_workers)
        ]
        for worker in workers:
            worker.start()

        tracer = get_tracer()
        batches_total = get_registry().counter("loader.batches_total")
        try:
            finished_workers = 0
            leftovers: list[tuple[np.ndarray, int]] = []
            while finished_workers < n_workers:
                # One wait interval feeds the stall tracker *and* the trace
                # from the same measurement, so the exported "loader.wait"
                # spans reproduce the stall timeline exactly.
                wait_start = time.perf_counter()
                item = output_queue.get()
                waited = time.perf_counter() - wait_start
                self.stalls.record_wait(waited)
                tracer.add_event("loader.wait", wait_start, waited)
                if item is _END_OF_EPOCH:
                    finished_workers += 1
                    continue
                if isinstance(item, BaseException):
                    raise item
                images, labels = item
                leftovers.extend(zip(images, labels))
                while len(leftovers) >= self.config.batch_size:
                    chunk = leftovers[: self.config.batch_size]
                    leftovers = leftovers[self.config.batch_size :]
                    with tracer.span("loader.collate"):
                        batch = collate(
                            [image for image, _ in chunk], [label for _, label in chunk]
                        )
                    batches_total.inc()
                    # The gap between handing a batch out and being resumed
                    # is the consumer's compute time — the other half of the
                    # stall fraction — recorded automatically instead of
                    # asking the training loop to time itself.
                    yielded_at = time.perf_counter()
                    yield batch
                    self.stalls.record_compute(time.perf_counter() - yielded_at)
            if leftovers and not self.config.drop_last:
                with tracer.span("loader.collate"):
                    batch = collate(
                        [image for image, _ in leftovers],
                        [label for _, label in leftovers],
                    )
                batches_total.inc()
                yielded_at = time.perf_counter()
                yield batch
                self.stalls.record_compute(time.perf_counter() - yielded_at)
        except BaseException:
            # Abnormal exit (KeyboardInterrupt, GeneratorExit, worker error):
            # the decode processes must die with the epoch.  Stop the reader
            # threads *first* — closing the pool waits on its in-flight
            # batch, and readers must not keep feeding it new ones
            # meanwhile.  On normal completion the pool stays warm for the
            # next epoch; `close()` retires it for good.
            stop_event.set()
            self.shutdown_decode_pool()
            raise
        finally:
            stop_event.set()
            self._drain_and_join(workers, output_queue)

    @staticmethod
    def _drain_and_join(
        workers: list[threading.Thread],
        output_queue: queue.Queue,
        deadline_seconds: float = 5.0,
    ) -> None:
        """Drain the output queue until every worker exits (bounded wait).

        Draining is what unblocks workers that are mid-``put`` on the
        bounded queue; they notice the stop event on their next timeout.
        Workers are daemons, so if one is wedged inside a record read past
        the deadline it cannot block interpreter exit.
        """
        deadline = time.monotonic() + deadline_seconds
        for worker in workers:
            while worker.is_alive() and time.monotonic() < deadline:
                try:
                    while True:
                        output_queue.get_nowait()
                except queue.Empty:
                    pass
                worker.join(timeout=0.05)

    def shutdown_decode_pool(self) -> None:
        """Stop the decode worker processes and release their shared memory.

        Idempotent; this loader's later reads decode in-process until its
        next epoch builds a fresh pool.  Called automatically on abnormal
        epoch exit and by :meth:`close`.
        """
        pool, self._decode_pool = self._decode_pool, None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Release loader-owned resources (the decode pool, if any)."""
        self.shutdown_decode_pool()

    def __enter__(self) -> "DataLoader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def batches_per_epoch(self) -> int:
        """Number of minibatches one epoch produces."""
        n_samples = len(self.dataset)
        full, remainder = divmod(n_samples, self.config.batch_size)
        if remainder and not self.config.drop_last:
            return full + 1
        return full

    # -- internals ----------------------------------------------------------------

    def _worker_loop(
        self,
        work_queue: queue.Queue,
        output_queue: queue.Queue,
        seed: int,
        stop_event: threading.Event,
    ) -> None:
        rng = np.random.default_rng(seed)
        while not stop_event.is_set():
            try:
                record_name = work_queue.get_nowait()
            except queue.Empty:
                break
            try:
                images, labels = self._load_record(record_name, rng)
            except Exception as error:  # surfaced to the consumer, which re-raises
                self._put_cooperative(output_queue, error, stop_event)
                break
            if not self._put_cooperative(output_queue, (images, labels), stop_event):
                return  # consumer is gone; no one reads the end-of-epoch marker
        self._put_cooperative(output_queue, _END_OF_EPOCH, stop_event)

    @staticmethod
    def _put_cooperative(
        output_queue: queue.Queue, item, stop_event: threading.Event
    ) -> bool:
        """Put onto the bounded queue without deadlocking a shut-down loader.

        Returns False (dropping ``item``) once the stop event is set, so a
        worker blocked against a full queue always exits shortly after the
        consumer stops draining.
        """
        while not stop_event.is_set():
            try:
                output_queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _load_record(
        self, record_name: str, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], list[int]]:
        # ``read_record`` decodes the whole record through the codec's
        # minibatch API (shared pixel-stage buffers, one setup per record) —
        # a record is the loader's unit of batched decode work.
        read = ReadStats()
        samples = self.dataset.read_record(
            record_name,
            self._scan_group,
            decode=True,
            decode_pool=self._decode_pool,
            stats=read,
        )
        if self.hook is not None:
            self.hook.after_read(read)
        order = rng.permutation(len(samples))
        images: list[np.ndarray] = []
        labels: list[int] = []
        if self.augmentations is not None:
            # Augmentations are defined over float64 pixel arrays.
            with get_tracer().span("loader.augment", {"record": record_name}):
                for index in order:
                    sample = samples[index]
                    images.append(self.augmentations(sample.image.as_float(), rng))
                    labels.append(sample.label)
        else:
            # No augmentation: hand ``collate`` the uint8 pixels as-is.
            # Its float32 conversion of uint8 values is bit-identical to
            # casting through float64 first, so this skips one full-image
            # float64 copy per sample on the hot path.
            for index in order:
                sample = samples[index]
                images.append(sample.image.pixels)
                labels.append(sample.label)
        return images, labels
