"""One sample-level record source over a byte-level record fetcher.

A :class:`RecordFetcher` says *where record bytes live*: a local dataset
directory (:class:`~repro.core.reader.PCRReader`), one shard's slice of it
(:class:`~repro.serving.cluster.views.ShardViewReader`), or a record server
or cluster behind a wire client
(:class:`~repro.serving.remote_source.RemoteFetcher`).

:class:`RecordSource` is everything above the bytes, written once: the
switchable scan group (the lightweight quality switch PCRs enable), stream
reassembly and minibatch decode, label remapping so one stored dataset can
serve different training tasks (Section 4.3), and the byte accounting the
tuners and the control loop read.  Its one read verb, ``read_record``, is
fetch → assemble → count → map labels: a record *is* the batching unit
(Section 3.2), so there is no multi-record read above it.  ``PCRDataset``,
``RemoteRecordSource`` and ``ShardedRemoteRecordSource`` are constructors
that pick a fetcher.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from dataclasses import replace
from typing import Protocol, runtime_checkable

from repro.codecs.progressive import ProgressiveCodec
from repro.core.index import RecordIndex
from repro.core.reader import PCRSample, ReadStats, assemble_samples, validate_scan_group
from repro.obs import get_registry

LabelMapper = Callable[[int], int]


@runtime_checkable
class RecordFetcher(Protocol):
    """Where record bytes live: structure, offset indexes and prefix reads.

    Seven members, one read verb: ``read_record_bytes`` fetches one record
    prefix at one scan group — the record is the batching unit — and emits
    its own ``loader.fetch`` span, so the source above never has to know
    what a fetch costs.
    """

    dataset_meta: dict
    n_groups: int
    n_samples: int
    record_names: list[str]

    def record_index(self, record_name: str) -> RecordIndex:
        """The offset index of one record."""

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """The record's byte prefix up to the end of ``scan_group``."""

    def close(self) -> None:
        """Release files, databases or sockets."""


class RecordSource:
    """PCR samples from a :class:`RecordFetcher`, at a (switchable) scan group.

    One source may be shared by many ``DataLoader`` worker threads: the
    fetcher is thread-safe, decoding is stateless, and the I/O counters are
    guarded by an internal lock.  The source owns its fetcher and closes it;
    a :meth:`with_label_mapper` view borrows its parent's and does not.
    """

    def __init__(
        self,
        fetcher: RecordFetcher,
        scan_group: int | None = None,
        decode: bool = True,
        label_mapper: LabelMapper | None = None,
    ) -> None:
        self.fetcher = fetcher
        self._owns_fetcher = True
        self.dataset_meta: dict = fetcher.dataset_meta
        self.n_groups: int = fetcher.n_groups
        self.n_samples: int = fetcher.n_samples
        self._scan_group = scan_group if scan_group is not None else self.n_groups
        try:
            validate_scan_group(self._scan_group, self.n_groups)
        except BaseException:
            fetcher.close()
            raise
        self.decode_by_default = decode
        self._label_mapper = label_mapper
        self._codec = ProgressiveCodec(quality=int(self.dataset_meta.get("quality", 90)))
        self._lock = threading.Lock()
        self.stats = ReadStats()
        get_registry().gauge("serving.client.scan_group").set(self._scan_group)

    # -- dataset structure ---------------------------------------------------

    def __len__(self) -> int:
        return self.n_samples

    @property
    def record_names(self) -> list[str]:
        """Record names, in write order."""
        return self.fetcher.record_names

    def record_index(self, record_name: str) -> RecordIndex:
        """Offset index of one record (cached by the fetcher)."""
        return self.fetcher.record_index(record_name)

    # -- quality control -----------------------------------------------------

    @property
    def scan_group(self) -> int:
        """The scan group used by iteration and record reads."""
        return self._scan_group

    def set_scan_group(self, scan_group: int) -> None:
        """Switch the data quality used for subsequent reads.

        This is the lightweight runtime switch PCRs provide: no re-encoding,
        no extra copies, no reconnect — only the number of bytes read per
        record changes.  Every actual switch is visible in snapshots: the
        current target is a ``serving.client.scan_group`` gauge and each
        mid-run change bumps ``serving.client.scan_group_switches_total`` on
        the default registry — so a controller-driven (or manual) fidelity
        change shows up next to the loader/stall metrics it affects.
        """
        validate_scan_group(scan_group, self.n_groups)
        changed = scan_group != self._scan_group
        self._scan_group = scan_group
        registry = get_registry()
        registry.gauge("serving.client.scan_group").set(scan_group)
        if changed:
            registry.counter("serving.client.scan_group_switches_total").inc()

    # -- loader hooks --------------------------------------------------------

    def bind_stall_tracker(self, stalls) -> None:
        """Called by ``DataLoader.epoch()`` with its stall tracker; only
        telemetry-reporting wrappers (``repro.control``) keep it."""

    # -- label remapping -----------------------------------------------------

    def with_label_mapper(self, mapper: LabelMapper) -> "RecordSource":
        """Return a view of this source with remapped labels.

        The fetcher (and so the storage or connection) is shared; only the
        labels visible to the consumer change — the mechanism behind the
        Cars "Make-Only" and "Is-Corvette" tasks.  Closing the view leaves
        the fetcher open for its owner.
        """
        view = RecordSource(self.fetcher, self._scan_group, self.decode_by_default, mapper)
        view._owns_fetcher = False
        return view

    # -- reading -------------------------------------------------------------

    def read_record(
        self, record_name: str, decode: bool | None = None, decode_pool=None
    ) -> list[PCRSample]:
        """Fetch and reassemble one record at the current scan group.

        ``decode_pool`` (a :class:`~repro.codecs.parallel.DecodePool`) decodes
        this read's streams on worker processes instead of in-process: the
        fetcher feeds exactly the bytes the fidelity target needs while every
        local core chews on the entropy loops.  The pool is the caller's
        (typically one ``DataLoader``'s), per read, so two loaders over one
        source never decode through each other's workers.
        """
        data = self.fetcher.read_record_bytes(record_name, self._scan_group)
        decode = self.decode_by_default if decode is None else decode
        samples = assemble_samples(data, self._codec, decode, decode_pool)
        with self._lock:
            self.stats.bytes_read += len(data)
            self.stats.records_read += 1
            if decode:
                self.stats.samples_decoded += len(samples)
        mapper = self._label_mapper
        if mapper is None:
            return samples
        return [replace(s, metadata=s.metadata.with_label(mapper(s.label))) for s in samples]

    def __iter__(self) -> Iterator[PCRSample]:
        for record_name in self.record_names:
            yield from self.read_record(record_name)

    # -- accounting ----------------------------------------------------------

    def bytes_for_group(self, record_name: str, scan_group: int) -> int:
        """Bytes one record costs to fetch at ``scan_group``."""
        return self.record_index(record_name).bytes_for_group(scan_group)

    def _dataset_bytes(self, scan_group: int) -> int:
        return sum(self.bytes_for_group(name, scan_group) for name in self.record_names)

    def epoch_bytes(self) -> int:
        """Bytes fetched per epoch at the current scan group."""
        return self._dataset_bytes(self._scan_group)

    def epoch_bytes_by_group(self) -> dict[int, int]:
        """Bytes per epoch for every scan group (Figure 16 data)."""
        return {group: self._dataset_bytes(group) for group in range(1, self.n_groups + 1)}

    def mean_sample_bytes(self, scan_group: int | None = None) -> float:
        """Average bytes per sample at a scan group (drives the speedup model)."""
        group = self._scan_group if scan_group is None else scan_group
        return self._dataset_bytes(group) / max(1, len(self))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the fetcher (reader, client or cluster client); idempotent."""
        if self._owns_fetcher:
            self.fetcher.close()

    def __enter__(self) -> "RecordSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
