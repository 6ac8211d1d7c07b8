"""A prefetching data loader over a PCR record source.

The loader follows the closed-system model of §A.1: ``n_workers`` threads
read the epoch's records ahead of the consumer at the loader's scan group,
decode and augment their samples and shuffle them within the record; the
consumer (the training loop) takes the records in epoch order and cuts them
into minibatches.  Whenever the next record is not ready, the consumer's
wait is recorded as a data stall.  One seed is one run: an epoch's batches
depend on ``(seed, epoch number)`` only, never on the worker count.

Fidelity is the loader's own: it starts at its dataset's scan group and
passes its current group to every ``read_record``, so
:meth:`DataLoader.set_scan_group` retargets this loader's next record read
and nothing else — not a second loader over the same dataset, not a tuner's
probe of it.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.reader import ReadStats, validate_scan_group
from repro.core.source import RecordSource
from repro.obs import get_registry, get_tracer
from repro.pipeline.augment import Compose
from repro.pipeline.batch import Minibatch, collate
from repro.pipeline.stall import StallTracker

if TYPE_CHECKING:
    from repro.codecs.parallel import DecodePool


@dataclass(frozen=True)
class LoaderConfig:
    """Configuration of a :class:`DataLoader`."""

    batch_size: int = 32
    n_workers: int = 2
    #: *Records* (not batches) read ahead beyond the ``n_workers`` in
    #: flight: at most ``n_workers + prefetch_batches`` records are pending.
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

    def __post_init__(self) -> None:
        for name, value, least in (
            ("batch_size", self.batch_size, 1),
            ("n_workers", self.n_workers, 1),
            ("prefetch_batches", self.prefetch_batches, 1),
            ("decode_workers", self.decode_workers, 0),
        ):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


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
        self._epochs = 0  # epochs started: the second half of each epoch's seed
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
        """Yield the minibatches of one epoch, reading ahead in background threads.

        An epoch is a function of ``(seed, epoch number)``: with ``shuffle``
        the records come in ``default_rng([seed, epoch]).permutation(n)``
        order, else in write order, and the record at position ``k`` orders
        its samples and draws its augmentations from
        ``default_rng([seed, epoch, k])``.  Reads run on a
        :class:`~concurrent.futures.ThreadPoolExecutor` of ``n_workers``
        threads, at most ``n_workers + prefetch_batches`` records ahead of
        the consumer, and are handed out in epoch order, so the batches do
        not depend on the worker count or on thread timing.  A group switch
        lands on whichever read starts next, so an epoch is reproducible
        only under a fixed group schedule, not under a hook that steers on
        timing.  A failed read is re-raised at its record's position, after
        the batches of the records before it.

        Every exit path — normal completion, a re-raised read error, the
        consumer abandoning the iterator (``GeneratorExit``) or a
        ``KeyboardInterrupt`` — shuts the executor down: reads that have
        not started are dropped and the threads are joined.  The threads
        are not daemons, so that join waits for at most one in-flight read
        per thread; every fetcher bounds a read (a remote one by its socket
        timeout).

        With ``decode_workers >= 2`` the loader builds a persistent
        :class:`~repro.codecs.parallel.DecodePool` of its own before the
        first read and passes it to every ``read_record``; the dataset is
        not touched, so loaders sharing one dataset each decode through
        their own pool.  It survives across epochs (worker startup is paid
        once), but any *abnormal* epoch exit tears it down after the
        threads, so no decode processes or shared-memory slabs outlive an
        interrupted run.
        """
        config = self.config
        if config.decode_workers > 1 and self._decode_pool is None:
            from repro.codecs.parallel import DecodePool  # only a pool loads multiprocessing

            self._decode_pool = DecodePool(config.decode_workers)
        epoch, self._epochs = self._epochs, self._epochs + 1
        names = self.dataset.record_names
        if config.shuffle:
            order = np.random.default_rng([config.seed, epoch]).permutation(len(names))
            names = [names[index] for index in order]
        pending = enumerate(names)
        read_ahead = config.n_workers + config.prefetch_batches
        window: deque[Future] = deque()
        executor = ThreadPoolExecutor(config.n_workers, thread_name_prefix="pcr-loader")

        def fill_window() -> None:
            for position, name in islice(pending, read_ahead - len(window)):
                rng = np.random.default_rng([config.seed, epoch, position])
                window.append(executor.submit(self._load_record, name, rng))

        tracer = get_tracer()
        batches_total = get_registry().counter("loader.batches_total")
        try:
            fill_window()
            leftovers: list[tuple[np.ndarray, int]] = []
            while window:
                # One wait interval feeds the stall tracker *and* the trace
                # from the same measurement, so the exported "loader.wait"
                # spans reproduce the stall timeline exactly.
                wait_start = time.perf_counter()
                images, labels = window.popleft().result()
                waited = time.perf_counter() - wait_start
                self.stalls.record_wait(waited)
                tracer.add_event("loader.wait", wait_start, waited)
                fill_window()
                leftovers.extend(zip(images, labels))
                while len(leftovers) >= config.batch_size:
                    chunk = leftovers[: config.batch_size]
                    leftovers = leftovers[config.batch_size :]
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
            if leftovers and not config.drop_last:
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
            # Abnormal exit: the decode processes must die with the epoch.
            # Stop the reader threads *first* — closing the pool waits on
            # its in-flight batch, and readers must not keep feeding it new
            # ones meanwhile.  On normal completion the pool stays warm for
            # the next epoch; `close()` retires it for good.
            executor.shutdown(cancel_futures=True)
            self.shutdown_decode_pool()
            raise
        finally:
            executor.shutdown(cancel_futures=True)

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

    def _load_record(
        self, record_name: str, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], list[int]]:
        # ``read_record`` decodes the whole record through one call of the
        # codec's minibatch API (at group 1: one header parse, one sequence
        # of entropy walks, one colour pass) — a record is the loader's
        # unit of batched decode work.
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
