"""One body, many backends: the ``RecordSource`` / ``RecordFetcher`` seam.

Every test in :class:`TestConformance` runs unchanged over a
local ``PCRDataset``, a ``RemoteRecordSource``, a ``ShardedRemoteRecordSource``,
a local reader behind a capped ``BandwidthThrottle`` link, and a remote source
whose loaders carry an ``AdaptiveScanGroupHook``; the
reference is always a direct :class:`~repro.core.reader.PCRReader` read of
the same directory.  Backend-specific behaviour (failover, the control loop, the server's
cache) stays in ``test_cluster.py`` / ``test_control.py`` / ``test_serving.py``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.control import AdaptiveScanGroupHook
from repro.core.dataset import PCRDataset
from repro.core.errors import ScanGroupError
from repro.core.reader import PCRReader
from repro.core.source import BandwidthThrottle, RecordFetcher, RecordSource
from repro.obs import get_registry, get_tracer
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.serving import protocol
from repro.serving.client import PCRClient, RecordClient
from repro.serving.cluster import (
    ClusterClient,
    ClusterCoordinator,
    ShardedRemoteRecordSource,
    ShardViewReader,
)
from repro.serving.remote_source import RemoteFetcher, RemoteRecordSource
from repro.serving.server import PCRRecordServer

NAMED_SOURCES = (PCRDataset, RemoteRecordSource, ShardedRemoteRecordSource)


@pytest.fixture(scope="module")
def server(pcr_dataset):
    with PCRRecordServer(pcr_dataset.reader.directory, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def cluster(pcr_dataset):
    with ClusterCoordinator(pcr_dataset.reader.directory, n_shards=2, n_replicas=2) as running:
        yield running


@pytest.fixture(scope="module")
def reader(pcr_dataset):
    """The reference: a direct local reader that shares no counters."""
    with PCRReader(pcr_dataset.reader.directory) as direct:
        yield direct


@pytest.fixture(params=["local", "remote", "sharded", "capped", "adaptive"])
def open_source(request, pcr_dataset):
    """``open_source(**kwargs)`` opens a fresh source of the backend under
    test, and ``open_source.loader(source)`` a loader over it; every source
    opened is closed at teardown."""
    backend = request.param
    opened = []

    def factory(**kwargs):
        if backend == "local":
            source = PCRDataset(pcr_dataset.reader.directory, **kwargs)
        elif backend == "capped":
            link = BandwidthThrottle(PCRReader(pcr_dataset.reader.directory), 64 * 2**20)
            source = RecordSource(link, **kwargs)
        elif backend == "sharded":
            shard_map = request.getfixturevalue("cluster").shard_map
            source = ShardedRemoteRecordSource(shard_map, **kwargs)
        else:
            source = RemoteRecordSource(port=request.getfixturevalue("server").port, **kwargs)
        opened.append(source)
        return source

    def loader(source, decode_workers: int = 0) -> DataLoader:
        # Steps are explicit only: conformance is never steered.
        hook = AdaptiveScanGroupHook(interval=3600.0) if backend == "adaptive" else None
        return DataLoader(source, _config(decode_workers), hook=hook)

    factory.loader = loader
    yield factory
    for source in opened:
        source.close()


def _config(decode_workers: int = 0) -> LoaderConfig:
    # One worker, no shuffle: record (and so batch) order is deterministic,
    # making epochs of different backends comparable 1:1.
    return LoaderConfig(
        batch_size=8, n_workers=1, shuffle=False, seed=123, decode_workers=decode_workers
    )


class TestConformance:
    def test_structure_equals_the_local_readers(self, open_source, reader):
        source = open_source()
        assert source.record_names == reader.record_names
        assert len(source) == source.n_samples == reader.n_samples
        assert source.n_groups == source.scan_group == reader.n_groups
        assert source.dataset_meta == reader.dataset_meta
        for name in reader.record_names:
            assert source.record_index(name) == reader.record_index(name)

    def test_scan_group_validation(self, open_source):
        source = open_source()
        loader = open_source.loader(source)
        name = source.record_names[0]
        for bad in (0, source.n_groups + 1):
            with pytest.raises(ScanGroupError):
                source.read_record(name, bad)
            with pytest.raises(ScanGroupError):
                loader.set_scan_group(bad)
            with pytest.raises(ScanGroupError):
                open_source(scan_group=bad)
        assert source.scan_group == loader.scan_group == source.n_groups
        assert source.stats.records_read == 0  # rejected before any fetch

    def test_read_record_equals_the_readers(self, open_source, reader):
        source = open_source()
        for group in (1, reader.n_groups):
            for name in reader.record_names:
                mine = source.read_record(name, group, decode=True)
                theirs = reader.read_record(name, group, decode=True)
                assert [s.key for s in mine] == [s.key for s in theirs]
                assert [s.label for s in mine] == [s.label for s in theirs]
                assert [s.stream for s in mine] == [s.stream for s in theirs]
                for a, b in zip(mine, theirs):
                    assert np.array_equal(a.image.pixels, b.image.pixels)

    def test_byte_accounting_equals_the_readers_index(self, open_source, reader):
        source = open_source(scan_group=2)
        assert source.epoch_bytes() == reader.dataset_bytes_for_group(2)
        assert source.epoch_bytes(1) == reader.dataset_bytes_for_group(1)
        by_group = source.epoch_bytes_by_group()
        assert by_group == {
            group: reader.dataset_bytes_for_group(group)
            for group in range(1, reader.n_groups + 1)
        }
        assert source.mean_sample_bytes() == by_group[2] / len(source)
        assert source.mean_sample_bytes(5) == by_group[5] / len(source)
        name = reader.record_names[0]
        assert source.bytes_for_group(name, 3) == reader.bytes_for_group(name, 3)

    def test_loader_epoch_reads_exactly_epoch_bytes(self, open_source):
        source = open_source(scan_group=3)
        stats = source.stats
        batches = list(open_source.loader(source).epoch())
        assert source.stats is stats  # the object callers captured at set-up
        assert sum(len(batch) for batch in batches) == len(source)
        assert stats.bytes_read == source.epoch_bytes()
        assert stats.records_read == len(source.record_names)
        assert stats.samples_decoded == len(source)

    @pytest.mark.parametrize("decode_workers", [0, 2])
    def test_loader_epoch_byte_identical_to_local(self, open_source, pcr_dataset, decode_workers):
        source = open_source()
        with (
            PCRDataset(pcr_dataset.reader.directory) as local,
            open_source.loader(source, decode_workers) as loader,
            DataLoader(local, _config()) as reference,
        ):
            for group in (source.n_groups, 1):
                loader.set_scan_group(group)
                reference.set_scan_group(group)
                mine = list(loader.epoch())
                theirs = list(reference.epoch())
                assert len(mine) == len(theirs) > 0
                for a, b in zip(mine, theirs):
                    assert np.array_equal(a.images, b.images)
                    assert np.array_equal(a.labels, b.labels)
            if decode_workers:
                assert loader._decode_pool.stats.parallel_batches > 0

    def test_loader_scan_group_switch_counts(self, open_source):
        """The switch is the loader's: it counts, and leaves the source and
        every other loader over it where they were."""
        counters = lambda: get_registry().snapshot()["counters"]  # noqa: E731
        source = open_source()
        loader, other = open_source.loader(source), open_source.loader(source)
        before = counters().get("loader.scan_group_switches_total", 0)
        loader.set_scan_group(2)
        loader.set_scan_group(2)  # no-op: same group, no switch
        loader.set_scan_group(5)
        assert counters()["loader.scan_group_switches_total"] - before == 2
        assert (loader.scan_group, other.scan_group, source.scan_group) == (5, 10, 10)

    def test_label_mapper_view_shares_the_fetcher(self, open_source, reader):
        source = open_source(scan_group=1)
        view = source.with_label_mapper(lambda label: label % 2)
        assert view.fetcher is source.fetcher
        assert view.scan_group == 1
        assert {sample.label for sample in view} == {0, 1}
        # A loader over the view reads at the loader's group, switched or not.
        loader = open_source.loader(view)
        loader.set_scan_group(3)
        before = view.stats.bytes_read
        assert sum(len(batch) for batch in loader.epoch()) == len(source)
        assert view.stats.bytes_read - before == reader.dataset_bytes_for_group(3)
        # the underlying source is unchanged
        assert {sample.label for sample in source} == {0, 1, 2, 3}

    def test_every_fetch_emits_one_fetch_span(self, open_source):
        source = open_source(decode=False)
        name = source.record_names[0]
        tracer = get_tracer()
        tracer.clear()
        tracer.set_enabled(True)
        try:
            source.read_record(name)
            single = [e for e in tracer.events() if e.name == "loader.fetch"]
            tracer.clear()
            list(source)
            epoch = [e for e in tracer.events() if e.name == "loader.fetch"]
        finally:
            tracer.set_enabled(False)
            tracer.clear()
        assert len(single) == 1
        assert len(epoch) == len(source.record_names)

    def test_close_closes_the_fetcher(self, open_source):
        source = open_source()
        fetcher = source.fetcher
        closed = []
        fetcher.close = lambda: closed.append(True)
        source.close()
        del fetcher.close  # teardown performs the real close
        assert closed == [True]

    def test_closing_a_label_view_leaves_the_parent_readable(self, open_source, reader):
        source = open_source(scan_group=1, decode=False)
        first, other = reader.record_names[:2]
        with source.with_label_mapper(lambda label: label % 2) as view:
            assert {sample.label for sample in view.read_record(first)} <= {0, 1}
        # The view borrowed the fetcher: the parent still reads through it
        # (a record the view never touched, so nothing is served from a cache).
        assert [s.stream for s in source.read_record(other)] == [
            s.stream for s in reader.read_record(other, 1, decode=False)
        ]

    def test_close_is_idempotent(self, open_source):
        source = open_source()
        source.read_record(source.record_names[0], decode=False)
        source.close()
        source.close()


class TestOneSeam:
    def test_named_sources_share_one_implementation(self):
        for cls in NAMED_SOURCES:
            assert issubclass(cls, RecordSource)
            for member in (
                "read_record", "scan_group",
                "epoch_bytes", "epoch_bytes_by_group", "mean_sample_bytes",
                "with_label_mapper", "close",
            ):
                assert getattr(cls, member) is getattr(RecordSource, member), (cls, member)

    def test_one_public_surface(self):
        def public(cls):
            return {name for name in dir(cls) if not name.startswith("_")}

        local = public(PCRDataset) - {"build", "build_and_report", "reader"}
        assert local == public(RemoteRecordSource) - {"client"}
        assert local == public(ShardedRemoteRecordSource) - {"cluster_client"}

    def test_constructor_options(self):
        def options(cls):
            return list(inspect.signature(cls).parameters)

        assert options(PCRReader) == ["directory", "decode"]
        assert options(PCRDataset) == ["directory", "scan_group", "decode", "label_mapper"]
        assert options(RemoteRecordSource) == ["host", "port", "scan_group", "decode"]
        assert options(ShardedRemoteRecordSource) == ["shard_map", "scan_group", "decode"]
        assert options(DataLoader) == ["dataset", "config", "augmentations", "hook"]
        assert options(AdaptiveScanGroupHook) == ["policy", "interval"]

    def test_fetchers_satisfy_the_protocol(self, reader, server, cluster):
        assert isinstance(reader, RecordFetcher)
        view = ShardViewReader(reader, reader.record_names[:1], "s0")
        assert isinstance(view, RecordFetcher)
        wire_clients = (PCRClient(port=server.port), ClusterClient(cluster.shard_map))
        for client in wire_clients:
            assert isinstance(client, RecordClient)
            fetcher = RemoteFetcher(client)
            try:
                assert isinstance(fetcher, RecordFetcher)
                assert not isinstance(fetcher, RecordClient)
                for name in reader.record_names:
                    assert fetcher.read_record_bytes(name, 1) == reader.read_record_bytes(name, 1)
            finally:
                fetcher.close()
        assert not isinstance(wire_clients[0], RecordFetcher)

    def test_the_link_is_a_fetcher(self, reader):
        assert isinstance(BandwidthThrottle(reader, None), RecordFetcher)
        with pytest.raises(ValueError, match="positive"):
            BandwidthThrottle(reader, 0)

    def test_failed_handshake_closes_the_client(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as stopped:
            client = PCRClient(port=stopped.port, retries=0)
        with pytest.raises(ConnectionError):
            RemoteFetcher(client)
        with pytest.raises(RuntimeError, match="closed"):
            client.stat()

    def test_one_read_verb(self):
        """The record is the batch: one fetch verb at every layer of the seam."""
        assert set(protocol.MESSAGE_NAMES) == {
            protocol.MSG_GET_RECORD, protocol.MSG_GET_INDEX, protocol.MSG_STAT,
            protocol.MSG_DATASET_META, protocol.MSG_GET_METRICS,
        }
        # BATCH and REPORT_TELEMETRY: retired, never reused
        assert protocol.MESSAGE_NAMES.keys().isdisjoint({0x05, 0x07})
        members = set(RecordFetcher.__annotations__) | {
            name for name, value in vars(RecordFetcher).items()
            if callable(value) and not name.startswith("_")
        }
        assert members == {
            "dataset_meta", "n_groups", "n_samples", "record_names",
            "record_index", "read_record_bytes", "close",
        }
        assert [name for name in dir(RecordSource) if name.startswith("read_")] == ["read_record"]

    @pytest.mark.parametrize("backend", ["remote", "sharded"])
    def test_loader_epoch_is_one_get_record_per_record(self, backend, server, cluster):
        """What a loader epoch sends, by op: ``n_records`` ``GET_RECORD``
        fleet-wide and nothing else (the handshake came before the epoch)."""
        if backend == "remote":
            servers, source = [server], RemoteRecordSource(port=server.port, scan_group=1)
        else:
            servers = cluster.running_servers()
            source = ShardedRemoteRecordSource(cluster.shard_map, scan_group=1)

        def requests_by_type() -> dict[str, int]:
            totals: dict[str, int] = {}
            for running in servers:
                for op, count in running.stats()["requests_by_type"].items():
                    totals[op] = totals.get(op, 0) + count
            return totals

        with source:
            loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=2, seed=3))
            before = requests_by_type()
            assert sum(len(batch) for batch in loader.epoch()) == len(source)
            after = requests_by_type()
            n_records = len(source.record_names)
        sent = {op: after[op] - before.get(op, 0) for op in after}
        assert {op: n for op, n in sent.items() if n} == {
            f"0x{protocol.MSG_GET_RECORD:02x}": n_records
        }


class TestCappedLink:
    """The capped link sits in the source, under every reader of it."""

    def test_a_hookless_loader_stalls_on_the_link(self, pcr_dataset):
        """No hook, no option on the loader: the link's sleeps land in the
        loader's own stall tracker as wait."""
        directory = pcr_dataset.reader.directory
        with RecordSource(BandwidthThrottle(PCRReader(directory), None)) as source:
            link = source.fetcher
            rate = source.epoch_bytes() / 0.4  # one epoch crosses in 0.4 s
            link.set_rate(rate)
            loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=1))
            assert loader.hook is None
            assert sum(len(batch) for batch in loader.epoch()) == len(source)
            assert link.bytes_charged == source.epoch_bytes()
            assert loader.stalls.total_wait >= source.epoch_bytes() / rate - 0.05

    def test_loaders_and_label_views_share_one_link(self, pcr_dataset):
        directory = pcr_dataset.reader.directory
        with RecordSource(BandwidthThrottle(PCRReader(directory), 64 * 2**20)) as source:
            view = source.with_label_mapper(lambda label: label % 2)
            for group, over in ((1, source), (10, view)):
                loader = DataLoader(over, LoaderConfig(batch_size=8, n_workers=2))
                loader.set_scan_group(group)
                assert sum(len(batch) for batch in loader.epoch()) == len(source)
            assert source.fetcher.bytes_charged == source.epoch_bytes(1) + source.epoch_bytes(10)
