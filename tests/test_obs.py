"""Tests for the metrics registry, span tracer, and their wiring.

Covers the registry primitives (bucket edges, snapshot algebra), the
tracer (nesting, ordering, ring buffer, Chrome export), the StallTracker
facade, the loader's per-batch spans, fork-aware worker aggregation
parity, the ``GET_METRICS`` wire op, and cluster-wide scraping with dead
replicas.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    Tracer,
    diff_snapshots,
    get_registry,
    get_tracer,
    merge_snapshots,
)
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.pipeline.stall import StallTracker
from repro.serving import protocol
from repro.serving.client import PCRClient
from repro.serving.cluster.coordinator import ClusterCoordinator
from repro.serving.server import PCRRecordServer


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestRegistry:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_metric_creation_is_idempotent(self, registry):
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_cross_type_name_collision_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_gauge_set_and_inc(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 9

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(0.1)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 0
        assert snapshot["gauges"]["g"] == 0
        assert snapshot["histograms"]["h"]["count"] == 0

    def test_disabled_registry_overhead_smoke(self):
        # The disabled path is a single branch; even a pessimistic bound
        # catches accidental lock acquisition or dict lookups sneaking in.
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        start = time.perf_counter()
        for _ in range(200_000):
            counter.inc()
        elapsed = time.perf_counter() - start
        assert counter.value == 0
        assert elapsed < 1.0

    def test_set_enabled_toggles(self, registry):
        counter = registry.counter("c")
        registry.set_enabled(False)
        counter.inc()
        registry.set_enabled(True)
        counter.inc()
        assert counter.value == 1

    def test_reset_zeroes_but_keeps_objects(self, registry):
        counter = registry.counter("c")
        counter.inc(3)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("c") is counter

    def test_unlocked_metrics_behave_like_locked_ones(self, registry):
        # ``locked=False`` (owner-serialised writers) changes only what an
        # update costs: same values, same snapshot/merge/reset, and the
        # disabled branch still comes first.
        counter = registry.counter("c", locked=False)
        histogram = registry.histogram("h", edges=(1.0,), locked=False)
        assert registry.counter("c") is counter  # the mode is fixed at creation
        counter.inc()
        counter.inc(4)
        histogram.observe(0.5)
        histogram.observe(2.0)
        registry.set_enabled(False)
        counter.inc()
        histogram.observe(0.5)
        registry.set_enabled(True)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["histograms"]["h"]["counts"] == [1, 1]
        registry.merge(snapshot)
        assert counter.value == 10 and histogram.counts == [2, 2]
        registry.reset()
        assert counter.value == 0 and histogram.count == 0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper(self, registry):
        histogram = registry.histogram("h", edges=(1.0, 2.0))
        histogram.observe(0.5)  # bucket 0: v <= 1.0
        histogram.observe(1.0)  # bucket 0: inclusive upper edge
        histogram.observe(1.5)  # bucket 1: 1.0 < v <= 2.0
        histogram.observe(2.0)  # bucket 1: inclusive upper edge
        histogram.observe(99.0)  # overflow bucket
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 99.0)

    def test_overflow_bucket_always_present(self, registry):
        histogram = registry.histogram("h")
        assert len(histogram.counts) == len(DEFAULT_TIME_BUCKETS) + 1
        histogram.observe(1e9)
        assert histogram.counts[-1] == 1

    def test_unsorted_edges_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("dup", edges=(1.0, 1.0))

    def test_mismatched_edges_on_reregistration_raise(self, registry):
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 3.0))

    def test_mean(self, registry):
        histogram = registry.histogram("h", edges=(10.0,))
        histogram.observe(1.0)
        histogram.observe(3.0)
        assert histogram.mean == pytest.approx(2.0)


class TestSnapshotAlgebra:
    def test_diff_subtracts_counters_and_histograms(self, registry):
        registry.counter("c").inc(3)
        registry.gauge("g").set(4)
        registry.gauge("falls").set(10)
        registry.gauge("flat").set(7)
        registry.histogram("h", edges=(1.0,)).observe(0.5)
        old = registry.snapshot()
        registry.counter("c").inc(2)
        registry.gauge("g").set(9)
        registry.gauge("falls").set(6)
        registry.gauge("new").set(2)
        registry.histogram("h", edges=(1.0,)).observe(5.0)
        delta = diff_snapshots(registry.snapshot(), old)
        assert delta["counters"] == {"c": 2}
        # A gauge ships how far its level moved; an unmoved one is left out.
        assert delta["gauges"] == {"g": 5, "falls": -4, "new": 2}
        assert delta["histograms"]["h"]["counts"] == [0, 1]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(5.0)

    def test_diff_drops_unchanged_metrics(self, registry):
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        delta = diff_snapshots(snapshot, snapshot)
        assert delta["counters"] == {}
        assert delta["gauges"] == {}
        assert delta["histograms"] == {}

    def test_merge_folds_delta_into_registry(self, registry):
        registry.counter("c").inc(1)
        registry.merge(
            {
                "counters": {"c": 4, "new": 2},
                "gauges": {"g": 3},
                "histograms": {
                    "h": {"edges": [1.0], "counts": [1, 2], "sum": 5.0, "count": 3}
                },
            }
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["counters"]["new"] == 2
        assert snapshot["gauges"]["g"] == 3
        assert snapshot["histograms"]["h"]["counts"] == [1, 2]

    def test_merge_snapshots_adds_everything(self, registry):
        a = {
            "counters": {"c": 1},
            "gauges": {"g": 2},
            "histograms": {"h": {"edges": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}},
        }
        b = {
            "counters": {"c": 2, "d": 7},
            "gauges": {"g": 3},
            "histograms": {"h": {"edges": [1.0], "counts": [0, 2], "sum": 9.0, "count": 2}},
        }
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"c": 3, "d": 7}
        assert merged["gauges"] == {"g": 5}
        assert merged["histograms"]["h"]["counts"] == [1, 2]
        assert merged["histograms"]["h"]["count"] == 3

    def test_merge_snapshots_rejects_mismatched_edges(self):
        a = {"histograms": {"h": {"edges": [1.0], "counts": [0, 0], "sum": 0, "count": 0}}}
        b = {"histograms": {"h": {"edges": [2.0], "counts": [0, 0], "sum": 0, "count": 0}}}
        with pytest.raises(ValueError):
            merge_snapshots([a, b])


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.add_event("b", 0.0, 1.0)
        assert len(tracer) == 0

    def test_nesting_records_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("outer.inner"):
                pass
        inner, outer = tracer.events()  # completion order: inner exits first
        assert inner.name == "outer.inner"
        assert inner.parent == "outer"
        assert outer.parent is None

    def test_chrome_export_ordering_and_schema(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("phase.a", {"k": 1}):
            with tracer.span("phase.b"):
                pass
        path = tracer.export_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["phase.a", "phase.b"]  # sorted by ts
        assert all(e["ph"] == "X" for e in events)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        assert events[0]["cat"] == "phase"
        assert events[0]["args"]["k"] == 1
        assert events[1]["args"]["parent"] == "phase.a"

    def test_ring_buffer_keeps_most_recent(self):
        tracer = Tracer(capacity=4, enabled=True)
        for index in range(10):
            tracer.add_event(f"e{index}", float(index), 0.1)
        names = [event.name for event in tracer.events()]
        assert names == ["e6", "e7", "e8", "e9"]

    def test_nesting_interval_containment(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("outer.inner"):
                time.sleep(0.001)
        inner, outer = tracer.events()
        assert outer.start <= inner.start
        assert inner.end <= outer.end


class TestStallTrackerFacade:
    def test_lists_and_registry_agree(self):
        registry = MetricsRegistry()
        tracker = StallTracker(registry=registry)
        tracker.record_wait(0.5)
        tracker.record_wait(0.0001)
        tracker.record_compute(0.25)
        assert tracker.wait_seconds == [0.5, 0.0001]
        assert tracker.total_wait == pytest.approx(0.5001)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["loader.wait_seconds_total"] == pytest.approx(0.5001)
        assert snapshot["counters"]["loader.compute_seconds_total"] == pytest.approx(0.25)
        assert snapshot["counters"]["loader.stalled_iterations_total"] == 1
        assert snapshot["histograms"]["loader.wait_seconds"]["count"] == 2


class TestLoaderTracing:
    def test_epoch_trace_reproduces_stall_timeline(self, pcr_dataset, tmp_path):
        tracer = get_tracer()
        tracer.clear()
        tracer.set_enabled(True)
        try:
            loader = DataLoader(
                pcr_dataset, LoaderConfig(batch_size=8, n_workers=1, shuffle=False)
            )
            try:
                batches = list(loader.epoch())
            finally:
                loader.close()
            events = tracer.events()
            path = tracer.export_chrome(tmp_path / "epoch.json")
        finally:
            tracer.set_enabled(False)
            tracer.clear()
        assert batches
        by_name: dict[str, list] = {}
        for event in events:
            by_name.setdefault(event.name, []).append(event)
        # The per-batch span set the tentpole promises.
        for name in ("loader.wait", "loader.fetch", "loader.decode", "loader.collate"):
            assert by_name.get(name), f"missing {name} spans"
        # loader.wait spans ARE the stall timeline: same count, same values,
        # in the same order, because both sides are fed from one measurement.
        waits = [event.duration for event in by_name["loader.wait"]]
        assert waits == loader.stalls.wait_seconds
        assert len(by_name["loader.collate"]) == len(batches)
        # The export is valid Chrome trace JSON, sorted by timestamp.
        document = json.loads(path.read_text())
        timestamps = [event["ts"] for event in document["traceEvents"]]
        assert timestamps == sorted(timestamps)
        assert {event["ph"] for event in document["traceEvents"]} == {"X"}

    def test_epoch_counts_batches_on_registry(self, pcr_dataset):
        registry = get_registry()
        before = registry.snapshot()
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1))
        try:
            n_batches = len(list(loader.epoch()))
        finally:
            loader.close()
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["counters"]["loader.batches_total"] == n_batches
        assert delta["counters"]["loader.wait_seconds_total"] == pytest.approx(
            loader.stalls.total_wait
        )


class TestForkAwareAggregation:
    def _decode_delta(self, dataset, decode_workers: int) -> dict:
        registry = get_registry()
        before = registry.snapshot()
        loader = DataLoader(
            dataset,
            LoaderConfig(batch_size=8, n_workers=1, seed=11, decode_workers=decode_workers),
        )
        try:
            list(loader.epoch())
        finally:
            loader.close()
        return diff_snapshots(registry.snapshot(), before)

    def test_worker_metrics_match_in_process(self, pcr_dataset):
        """decode_workers=2 must aggregate the same decode totals as 0."""
        in_process = self._decode_delta(pcr_dataset, 0)
        parallel = self._decode_delta(pcr_dataset, 2)
        for name in ("decode.streams_total", "decode.bytes_total"):
            assert parallel["counters"].get(name) == in_process["counters"].get(name), name
        assert in_process["counters"]["decode.streams_total"] > 0

    def test_pooled_gauges_read_the_sum_of_the_workers_levels(self, tiny_streams, monkeypatch, tmp_path):
        """After every pooled batch a gauge equals the workers' own levels, summed.

        Each worker ships a gauge's change since its previous chunk; a
        level shipped per chunk would re-add the worker's whole table cache
        once per chunk it ran.  The workers' levels are read from outside
        the registry: a spy on the cache's gauge sync, which the forked
        workers inherit, writes each process's entries and bytes to a file
        named after its pid.
        """
        from repro.codecs import huffman
        from repro.codecs.parallel import DecodePool

        cache = huffman._LRUByteCache("testonly.pooled", 64 << 20)
        monkeypatch.setattr(huffman, "_TABLE_CACHE", cache)
        sync = huffman._LRUByteCache._sync_gauges

        def spy(self) -> None:
            sync(self)
            if self is cache:
                (tmp_path / str(os.getpid())).write_text(f"{len(self._entries)} {self._bytes}")

        monkeypatch.setattr(huffman._LRUByteCache, "_sync_gauges", spy)
        registry = get_registry()
        entries = registry.gauge("testonly.pooled.entries")
        resident = registry.gauge("testonly.pooled.bytes")
        streams = [stream for _, stream, _ in tiny_streams[:16]]
        with DecodePool(2) as pool:
            for _ in range(3):
                pool.decode_batch(streams)
                levels = {path.name: path.read_text().split() for path in tmp_path.iterdir()}
                assert str(os.getpid()) not in levels  # every table was built in a worker
                assert entries.value == sum(int(n) for n, _ in levels.values()) > 0
                assert resident.value == sum(int(b) for _, b in levels.values())
            assert pool.stats.parallel_batches == 3


@pytest.fixture()
def obs_server(pcr_dataset):
    with PCRRecordServer(pcr_dataset.reader.directory, port=0) as running:
        yield running


class TestGetMetricsWireOp:
    def test_round_trip_against_live_server(self, obs_server, pcr_dataset):
        with PCRClient(port=obs_server.port) as client:
            name = pcr_dataset.record_names[0]
            client.get_record_bytes(name, 1)
            client.get_record_bytes(name, 1)
            report = client.metrics()
        assert report["metrics_enabled"] is True
        assert tuple(report["address"]) == obs_server.address
        counters = report["registry"]["counters"]
        assert counters["serving.requests.get_record_total"] == 2
        assert counters["serving.requests.get_metrics_total"] == 1
        assert counters["serving.cache.misses_total"] == 1
        assert counters["serving.cache.exact_hits_total"] == 1
        assert counters["serving.bytes_received_total"] > 0
        assert counters["serving.bytes_sent_total"] > 0
        histograms = report["registry"]["histograms"]
        assert histograms["serving.loop.iteration_seconds"]["count"] > 0
        gauges = report["registry"]["gauges"]
        assert gauges["serving.cache.entries"] == 1

    def test_snapshot_matches_stat_counters(self, pcr_dataset):
        """Every counter ``STAT`` exposes equals its ``GET_METRICS`` name after
        a workload that moves all of them: exact hit, prefix hit, miss,
        eviction, every op, an unknown op and a malformed frame."""
        reader, names, top = pcr_dataset.reader, pcr_dataset.record_names, pcr_dataset.n_groups
        one_record = max(reader.bytes_for_group(name, top) for name in names)

        def raw_exchange(data: bytes) -> int:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
                sock.sendall(data)
                return protocol.read_frame(sock)[0]

        with PCRRecordServer(reader.directory, port=0, cache_bytes=one_record + 1) as server:
            with PCRClient(port=server.port, pool_size=1) as client:
                client.get_record_bytes(names[0], top)  # miss, admitted
                client.get_record_bytes(names[0], top)  # exact hit
                client.get_record_bytes(names[0], 1)  # prefix hit
                client.get_record_bytes(names[1], top)  # miss; admission evicts names[0]
                client.get_record_bytes(names[1], 2)  # prefix hit
                client.get_record_bytes(names[2], 1)  # miss
                client.get_index(names[0])
                client.dataset_meta()
                client.stat()
                assert raw_exchange(protocol.encode_frame(0x7E, b"")) == protocol.MSG_ERROR
                assert raw_exchange(b"XXXXXXXX") == protocol.MSG_ERROR
                # Both raw connections are closed server-side before the scrapes,
                # so no counter moves between them except the STAT request itself.
                deadline = time.monotonic() + 5.0
                while server.open_connections > 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                scraped = client.metrics()["registry"]
                stat = client.stat()
        counters, gauges = scraped["counters"], scraped["gauges"]

        cache = stat.pop("cache")
        expected_cache = {
            key: counters[f"serving.cache.{key}_total"]
            for key in (
                "exact_hits", "prefix_hits", "misses", "evictions", "admissions",
            )
        }
        assert min(expected_cache.values()) >= 1  # the workload moved every one
        for family in ("hits", "misses", "bytes_served", "admissions", "evictions"):
            expected_cache[f"{family}_by_group"] = {
                name.split(".")[3]: value
                for name, value in counters.items()
                if name.startswith("serving.cache.group.")
                and name.endswith(f".{family}_total")
                and value
            }
            assert expected_cache[f"{family}_by_group"]
        expected_cache["entries"] = gauges["serving.cache.entries"]
        expected_cache["cached_bytes"] = gauges["serving.cache.cached_bytes"]
        not_counters = {"capacity_bytes", "hit_rate", "prefix_hit_rate"}
        assert {k: v for k, v in cache.items() if k not in not_counters} == expected_cache
        assert counters["serving.cache.bytes_served_total"] == sum(
            cache["bytes_served_by_group"].values()
        )

        assert stat.pop("event_loop") == {
            "open_connections": gauges["serving.connections.open"],
            "accepted_connections": counters["serving.connections.accepted_total"],
            "closed_connections": counters["serving.connections.closed_total"],
            "backpressure_pauses": counters["serving.backpressure.pauses_total"],
        }
        expected_requests = {
            f"0x{op:02x}": counters[f"serving.requests.{name}_total"]
            for op, name in {**protocol.MESSAGE_NAMES, 0x7E: "op_0x7e"}.items()
        }
        expected_requests["0x03"] += 1  # the second STAT request came after the scrape
        assert stat.pop("requests_by_type") == expected_requests
        assert stat.pop("n_requests") == sum(expected_requests.values())
        assert stat.pop("errors") == counters["serving.errors_total"] == 2
        assert set(stat) == {"address", "reader_bytes_read", "reader_records_read"}

    def test_scrapes_under_load_are_monotone_and_exact(self, obs_server, pcr_dataset):
        """Four clients fetch while a fifth alternates STAT / GET_METRICS: every
        successive scrape is monotone, and the final totals equal what the
        clients sent and received — no update is lost, none counted twice."""
        names, n_groups = pcr_dataset.record_names, pcr_dataset.n_groups
        per_client, n_clients = 150, 4
        received = [0] * n_clients
        done = threading.Event()

        def fetch(index: int) -> None:
            with PCRClient(port=obs_server.port, pool_size=1) as client:
                for i in range(per_client):
                    group = 1 + (i + index) % n_groups
                    received[index] += len(client.get_record_bytes(names[i % len(names)], group))

        def watched(body: dict) -> list:
            if "registry" in body:
                counters = body["registry"]["counters"]
                return [
                    counters.get("serving.requests.get_record_total", 0),
                    counters["serving.cache.exact_hits_total"]
                    + counters["serving.cache.prefix_hits_total"],
                    counters["serving.cache.misses_total"],
                    counters["serving.bytes_sent_total"],
                ]
            cache = body["cache"]
            return [
                body["requests_by_type"].get("0x01", 0),
                cache["exact_hits"] + cache["prefix_hits"],
                cache["misses"],
            ]

        def scrape() -> dict[str, list[list]]:
            """Both bodies, over the wire (loop thread) and in-process (this one)."""
            with PCRClient(port=obs_server.port, pool_size=1) as client:
                sources = {
                    "STAT": client.stat,
                    "GET_METRICS": client.metrics,
                    "stats()": obs_server.stats,
                    "metrics_snapshot()": obs_server.metrics_snapshot,
                }
                series = {source: [] for source in sources}
                while not done.is_set():
                    for source, read in sources.items():
                        series[source].append(watched(read()))
            return series

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=n_clients + 1) as pool:
                scraper = pool.submit(scrape)
                fetchers = [pool.submit(fetch, index) for index in range(n_clients)]
                try:
                    for future in fetchers:
                        future.result(timeout=60.0)
                finally:
                    done.set()
                scrapes = scraper.result(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)

        for source, series in scrapes.items():
            assert len(series) >= 2, source
            for earlier, later in zip(series, series[1:]):
                assert all(a <= b for a, b in zip(earlier, later)), (source, earlier, later)
        stat = obs_server.stats()
        counters = obs_server.metrics_snapshot()["registry"]["counters"]
        sent = per_client * n_clients
        assert counters["serving.requests.get_record_total"] == sent
        assert stat["requests_by_type"]["0x01"] == sent
        cache = stat["cache"]
        assert cache["exact_hits"] + cache["prefix_hits"] + cache["misses"] == sent
        # Every byte a client received came from the cache (counted there) or,
        # on a miss, from the reader.
        served = counters["serving.cache.bytes_served_total"] + stat["reader_bytes_read"]
        assert served == sum(received)

    def test_disabled_server_reports_disabled(self, pcr_dataset):
        """``registry.set_enabled(False)``: records are still served byte for
        byte, ``GET_METRICS`` says so, and — one home — ``STAT`` freezes too."""
        reader, name = pcr_dataset.reader, pcr_dataset.record_names[0]
        with PCRRecordServer(reader.directory, port=0) as server:
            with PCRClient(port=server.port) as client:
                assert client.get_record_bytes(name, 1) == reader.read_record_bytes(name, 1)
                before = client.stat()
                server.registry.set_enabled(False)
                assert client.get_record_bytes(name, 1) == reader.read_record_bytes(name, 1)  # hit
                assert client.get_record_bytes(name, 2) == reader.read_record_bytes(name, 2)  # miss
                frozen = client.stat()
                report = client.metrics()
        assert report["metrics_enabled"] is False
        assert report["registry"]["counters"]["serving.requests.get_record_total"] == 1
        # State (entries, cached bytes) is not a counter and keeps moving.
        assert frozen["cache"].pop("cached_bytes") > before["cache"].pop("cached_bytes")
        for stat in (before, frozen):
            del stat["reader_bytes_read"], stat["reader_records_read"]
        assert frozen == before


def _replica_reports(sweep: dict) -> list[dict]:
    return [r for shard in sweep["shards"].values() for r in shard["replicas"].values()]


class TestClusterScraping:
    def test_cluster_stats_merges_live_replicas(self, pcr_dataset):
        directory = pcr_dataset.reader.directory
        with ClusterCoordinator(directory, n_shards=2, n_replicas=1) as coordinator:
            report = coordinator.stats()
            assert report["live_replicas"] == 2
            assert report["total_replicas"] == 2
            assert all(r["status"] == "up" for r in _replica_reports(report))
            merged = report["merged"]["counters"]
            # Each replica answered exactly one GET_METRICS scrape.
            assert merged["serving.requests.get_metrics_total"] == 2

    def test_dead_replica_reported_down_not_raised(self, pcr_dataset):
        directory = pcr_dataset.reader.directory
        with ClusterCoordinator(directory, n_shards=2, n_replicas=1) as coordinator:
            victim = coordinator.live_replicas()[0]
            coordinator.stop_replica(victim.shard_id, 0)
            report = coordinator.stats()
            assert report["live_replicas"] == 1
            assert report["total_replicas"] == 2
            statuses = sorted(r["status"] for r in _replica_reports(report))
            assert statuses == ["down", "up"]
            down = next(r for r in _replica_reports(report) if r["status"] == "down")
            assert "error" in down and down["running"] is False

    def test_coordinator_and_client_sweeps_agree(self, pcr_dataset):
        """One sweep, two thin callers: with a replica of a 2 x 2 fleet
        stopped, both see the same fleet and neither raises."""
        from repro.serving.cluster.client import ClusterClient

        directory = pcr_dataset.reader.directory
        with ClusterCoordinator(directory, n_shards=2, n_replicas=2) as coordinator:
            with ClusterClient(coordinator.shard_map) as client:
                for name in pcr_dataset.record_names:
                    client.get_record_bytes(name, 2)
                    client.get_record_bytes(name, 1)
                victim = coordinator.shard_map.shard_ids[0]
                coordinator.stop_replica(victim, 1)
                supervisor, routed = coordinator.stats(), client.stats()
            assert supervisor["live_replicas"] == routed["live_replicas"] == 3
            assert supervisor["total_replicas"] == routed["total_replicas"] == 4
            assert supervisor["topology"] == routed["topology"]
            for sweep in (supervisor, routed):
                assert sweep["shards"][victim]["replicas"]["1"]["status"] == "down"
            # Traffic counters agree; the scrapes' own footprints (connections,
            # GET_METRICS requests) are the only thing that moved in between.
            n_records = len(pcr_dataset.record_names)
            for name, value in supervisor["merged"]["counters"].items():
                if name.startswith(("serving.cache.", "serving.requests.get_record")):
                    assert routed["merged"]["counters"][name] == value, name
            served = supervisor["merged"]["counters"]["serving.requests.get_record_total"]
            assert 0 < served <= 2 * n_records  # the stopped replica's share went with it
            # What only each caller knows rides beside the shared shape.
            assert set(routed) - set(supervisor) == {"client"}
            replica = supervisor["shards"][victim]["replicas"]["0"]
            assert replica["running"] is True and replica["restarts"] == 0
            assert supervisor["shards"][victim]["n_records"] == len(
                coordinator.assignment(victim)
            )
