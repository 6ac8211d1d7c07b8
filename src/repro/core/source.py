"""One sample-level record source over a byte-level record fetcher.

A :class:`RecordFetcher` says *where record bytes live*: a local dataset
directory (:class:`~repro.core.reader.PCRReader`), one shard's slice of it
(:class:`~repro.serving.cluster.views.ShardViewReader`), or a record server
or cluster behind a wire client
(:class:`~repro.serving.remote_source.RemoteFetcher`).

:class:`RecordSource` is everything above the bytes, written once: reads at
any scan group (the lightweight quality switch PCRs enable), stream
reassembly and minibatch decode, label remapping so one stored dataset can
serve different training tasks (Section 4.3), and the byte accounting the
tuners read.  Its one read verb, ``read_record``, is
fetch → assemble → count → map labels: a record *is* the batching unit
(Section 3.2), so there is no multi-record read above it.  Fidelity is an
argument of that read, not state of the source: the source holds only a
default group, and whoever reads — a ``DataLoader``, a tuner's probe —
passes the group it wants, so no reader can switch another's.  ``PCRDataset``,
``RemoteRecordSource`` and ``ShardedRemoteRecordSource`` are constructors
that pick a fetcher.

:class:`BandwidthThrottle` is the capped link: a fetcher around another
fetcher, so ``RecordSource(BandwidthThrottle(PCRReader(directory), rate))``
is a source behind slow storage whether or not a loader hook steers it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import replace
from typing import Protocol, runtime_checkable

from repro.core.index import RecordIndex
from repro.core.reader import PCRSample, ReadStats, assemble_samples, validate_scan_group

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


class BandwidthThrottle:
    """A capped link in front of a fetcher: reads sleep to cap the byte rate.

    Models the bandwidth-capped storage link of the paper's experiments
    (§A.2: the loader runs at ``bandwidth / bytes per image``) without
    touching sockets.  Every ``read_record_bytes`` charges the bytes it
    returns and sleeps the calling (reader) thread just long enough that the
    cumulative rate never exceeds ``bytes_per_s``, so the delay lands in the
    loader's own stall tracker like a slow real link.  Charges serialize on
    one ``ready_at`` horizon: every loader and label view over one source
    shares the one link, as threads multiplexed over one physical pipe do.

    ``set_rate`` retargets (or, with ``None``, lifts) the cap mid-run.  The
    other ``RecordFetcher`` members forward to the wrapped fetcher, which
    the throttle owns and closes.
    """

    def __init__(self, fetcher: RecordFetcher, bytes_per_s: float | None) -> None:
        self.fetcher = fetcher
        self.dataset_meta: dict = fetcher.dataset_meta
        self.n_groups: int = fetcher.n_groups
        self.n_samples: int = fetcher.n_samples
        self._lock = threading.Lock()
        self._rate = self._validated(bytes_per_s)
        self._ready_at = 0.0
        self.bytes_charged = 0

    @staticmethod
    def _validated(bytes_per_s: float | None) -> float | None:
        if bytes_per_s is not None and bytes_per_s <= 0:
            raise ValueError("bytes_per_s must be positive (or None to uncap)")
        return bytes_per_s

    def set_rate(self, bytes_per_s: float | None) -> None:
        """Retarget the link cap (``None`` = uncapped) for subsequent reads."""
        rate = self._validated(bytes_per_s)
        with self._lock:
            self._rate = rate
            if rate is None:
                self._ready_at = 0.0

    @property
    def record_names(self) -> list[str]:
        return self.fetcher.record_names

    def record_index(self, record_name: str) -> RecordIndex:
        return self.fetcher.record_index(record_name)

    def read_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """The wrapped fetcher's prefix, after its bytes cross the link."""
        data = self.fetcher.read_record_bytes(record_name, scan_group)
        now = time.monotonic()
        with self._lock:
            self.bytes_charged += len(data)
            if self._rate is None:
                return data
            self._ready_at = max(now, self._ready_at) + len(data) / self._rate
            delay = self._ready_at - now
        time.sleep(delay)
        return data

    def close(self) -> None:
        self.fetcher.close()


class RecordSource:
    """PCR samples from a :class:`RecordFetcher`, at any scan group.

    ``scan_group`` is the default: the group a read uses when it passes
    none, and the one a ``DataLoader`` over this source starts at.  It is
    fixed at construction; switching fidelity is the reader's business.

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
        self._lock = threading.Lock()
        self.stats = ReadStats()

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

    # -- fidelity ------------------------------------------------------------

    @property
    def scan_group(self) -> int:
        """The default scan group of reads, iteration and byte accounting."""
        return self._scan_group

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
        self,
        record_name: str,
        scan_group: int | None = None,
        decode: bool | None = None,
        decode_pool=None,
        stats: ReadStats | None = None,
    ) -> list[PCRSample]:
        """Fetch and reassemble one record at ``scan_group`` (default: the
        source's).

        ``decode_pool`` (a :class:`~repro.codecs.parallel.DecodePool`) decodes
        this read's streams on worker processes instead of in-process: the
        fetcher feeds exactly the bytes the fidelity target needs while every
        local core chews on the entropy loops.  The pool is the caller's
        (typically one ``DataLoader``'s), per read, so two loaders over one
        source never decode through each other's workers.  ``stats``, the
        caller's own :class:`~repro.core.reader.ReadStats`, is charged this
        read besides the source's shared counters — how a loader hook counts
        exactly its own loader's bytes and samples.
        """
        group = self._scan_group if scan_group is None else scan_group
        validate_scan_group(group, self.n_groups)
        data = self.fetcher.read_record_bytes(record_name, group)
        decode = self.decode_by_default if decode is None else decode
        samples = assemble_samples(data, decode, decode_pool)
        n_decoded = len(samples) if decode else 0
        with self._lock:
            self.stats.add(len(data), n_decoded)
        if stats is not None:
            stats.add(len(data), n_decoded)
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

    def epoch_bytes(self, scan_group: int | None = None) -> int:
        """Bytes fetched per epoch at ``scan_group`` (default: the source's)."""
        group = self._scan_group if scan_group is None else scan_group
        return sum(self.bytes_for_group(name, group) for name in self.record_names)

    def epoch_bytes_by_group(self) -> dict[int, int]:
        """Bytes per epoch for every scan group (Figure 16 data)."""
        return {group: self.epoch_bytes(group) for group in range(1, self.n_groups + 1)}

    def mean_sample_bytes(self, scan_group: int | None = None) -> float:
        """Average bytes per sample at a scan group (drives the speedup model)."""
        return self.epoch_bytes(scan_group) / max(1, len(self))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the fetcher (reader, client or cluster client); idempotent."""
        if self._owns_fetcher:
            self.fetcher.close()

    def __enter__(self) -> "RecordSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
