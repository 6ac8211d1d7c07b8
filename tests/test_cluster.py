"""Tests for the sharded serving cluster: map, views, coordinator, client, e2e."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import PCRError
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.serving import protocol
from repro.serving.cluster import (
    ClusterClient,
    ClusterCoordinator,
    ShardMap,
    ShardViewReader,
    ShardedRemoteRecordSource,
    default_shard_ids,
)


@pytest.fixture(scope="module")
def cluster(pcr_dataset):
    """A 4-shard x 2-replica cluster over the shared session dataset."""
    with ClusterCoordinator(
        pcr_dataset.reader.directory, n_shards=4, n_replicas=2
    ) as running:
        yield running


# -- shard map ----------------------------------------------------------------


class TestShardMap:
    def _map(self, n_shards: int = 4, n_replicas: int = 2) -> ShardMap:
        return ShardMap(
            {
                shard_id: [("127.0.0.1", 9000 + 10 * i + j) for j in range(n_replicas)]
                for i, shard_id in enumerate(default_shard_ids(n_shards))
            }
        )

    def test_routing_is_deterministic(self):
        first, second = self._map(), self._map()
        for i in range(50):
            name = f"record-{i:05d}.pcr"
            assert first.shard_for(name) == second.shard_for(name)
            assert first.owners(name) == second.owners(name)

    def test_owners_are_the_owning_shards_replicas(self):
        shard_map = self._map(n_shards=3, n_replicas=3)
        for i in range(20):
            name = f"record-{i:05d}.pcr"
            owners = shard_map.owners(name)
            assert len(owners) == 3
            assert {o.shard_id for o in owners} == {shard_map.shard_for(name)}
            assert sorted(o.replica_index for o in owners) == [0, 1, 2]

    def test_replica_preference_rotates_across_records(self):
        shard_map = self._map(n_shards=2, n_replicas=3)
        preferred = {
            shard_map.owners(f"record-{i:05d}.pcr")[0].replica_index for i in range(60)
        }
        assert preferred == {0, 1, 2}  # load spreads over replicas

    def test_partition_covers_every_record_once(self):
        shard_map = self._map()
        names = [f"record-{i:05d}.pcr" for i in range(40)]
        parts = shard_map.partition(names)
        assert sorted(name for part in parts.values() for name in part) == names
        for shard_id, part in parts.items():
            assert all(shard_map.shard_for(name) == shard_id for name in part)

    def test_topology_change_is_incremental(self):
        names = [f"record-{i:05d}.pcr" for i in range(200)]
        four, five = self._map(4), self._map(5)
        moved = four.moved_records(five, names)
        assert 0 < len(moved) < len(names) // 2

    def test_rejects_empty_topologies(self):
        with pytest.raises(ValueError):
            ShardMap({})
        with pytest.raises(ValueError):
            ShardMap({"shard-0": []})


# -- shard-filtered view ------------------------------------------------------


class TestShardViewReader:
    def test_view_restricts_to_owned_records(self, pcr_dataset):
        reader = pcr_dataset.reader
        names = reader.record_names
        owned, foreign = names[:2], names[2]
        view = ShardViewReader(reader, owned, "shard-x")
        assert view.record_names == sorted(owned)
        assert view.n_samples == sum(reader.record_index(n).n_samples for n in owned)
        assert view.read_record_bytes(owned[0], 1) == reader.read_record_bytes(owned[0], 1)
        with pytest.raises(PCRError, match="not owned"):
            view.read_record_bytes(foreign, 1)
        with pytest.raises(PCRError, match="not owned"):
            view.record_index(foreign)

    def test_view_meta_carries_shard_id(self, pcr_dataset):
        view = ShardViewReader(pcr_dataset.reader, pcr_dataset.record_names[:1], "shard-7")
        assert view.dataset_meta["shard_id"] == "shard-7"

    def test_view_rejects_unknown_assignment(self, pcr_dataset):
        with pytest.raises(PCRError, match="missing from the dataset"):
            ShardViewReader(pcr_dataset.reader, ["no-such-record.pcr"], "shard-0")


# -- coordinator --------------------------------------------------------------


class TestClusterCoordinator:
    def test_topology_matches_request(self, cluster):
        shard_map = cluster.shard_map
        assert shard_map.n_shards == 4
        for shard_id in shard_map.shard_ids:
            assert len(shard_map.replicas(shard_id)) == 2
        assert len(cluster.live_replicas()) == 8

    def test_assignment_partitions_the_dataset(self, cluster, pcr_dataset):
        assigned = [
            name for shard_id in cluster.shard_map.shard_ids
            for name in cluster.assignment(shard_id)
        ]
        assert sorted(assigned) == pcr_dataset.record_names

    def test_wrong_shard_returns_not_found(self, cluster, pcr_dataset):
        """A record routed to a non-owning shard must fail loudly."""
        shard_map = cluster.shard_map
        name = pcr_dataset.record_names[0]
        owner = shard_map.shard_for(name)
        other = next(s for s in shard_map.shard_ids if s != owner)
        from repro.serving.client import PCRClient

        replica = shard_map.replicas(other)[0]
        with PCRClient(host=replica.host, port=replica.port) as direct:
            with pytest.raises(protocol.RemoteError) as info:
                direct.get_record_bytes(name, 1)
        assert info.value.code == protocol.ERR_NOT_FOUND

    def test_stats_aggregate_per_shard(self, cluster):
        stats = cluster.stats()
        assert set(stats["shards"]) == set(cluster.shard_map.shard_ids)
        assert stats["total_replicas"] == stats["live_replicas"] == 8
        assert stats["topology"]["n_shards"] == 4

    def test_stop_restart_replica_cycle(self, pcr_dataset):
        with ClusterCoordinator(
            pcr_dataset.reader.directory, n_shards=2, n_replicas=2
        ) as small:
            shard_id = small.shard_map.shard_ids[0]
            port = small.shard_map.replicas(shard_id)[0].port
            small.stop_replica(shard_id, 0)
            assert len(small.live_replicas()) == 3
            stopped = small.stats()["shards"][shard_id]["replicas"]["0"]
            assert stopped["running"] is False and stopped["status"] == "down"
            small.restart_replica(shard_id, 0)
            assert len(small.live_replicas()) == 4
            assert small.shard_map.replicas(shard_id)[0].port == port
            restarted = small.stats()["shards"][shard_id]["replicas"]["0"]
            assert restarted["running"] and restarted["restarts"] == 1

    def test_drain_and_restart_shard(self, pcr_dataset):
        with ClusterCoordinator(
            pcr_dataset.reader.directory, n_shards=2, n_replicas=2
        ) as small:
            shard_id = small.shard_map.shard_ids[1]
            small.drain_shard(shard_id)
            live_shards = {replica.shard_id for replica in small.live_replicas()}
            assert shard_id not in live_shards
            small.restart_shard(shard_id)
            assert len(small.live_replicas()) == 4


# -- cluster client -----------------------------------------------------------


class TestClusterClient:
    def test_records_match_local_reader(self, cluster, pcr_dataset):
        reader = pcr_dataset.reader
        with ClusterClient(cluster.shard_map) as client:
            for name in reader.record_names:
                for group in (1, reader.n_groups):
                    assert client.get_record_bytes(name, group) == (
                        reader.read_record_bytes(name, group)
                    )

    def test_every_shard_serves_prefix_containment_hits(self, tmp_path, tiny_samples):
        """One pass at the top scan group, then one at group 1, over a
        2-shard fleet: each shard answers every group-1 read of a record it
        owns by slicing the prefix its own cache took in the first pass."""
        from repro.core.dataset import PCRDataset

        with PCRDataset.build(tiny_samples, tmp_path, images_per_record=2, quality=90) as dataset:
            names, n_groups = dataset.record_names, dataset.n_groups
        with ClusterCoordinator(tmp_path, n_shards=2, n_replicas=1) as fleet:
            with ClusterClient(fleet.shard_map) as client:
                for group in (n_groups, 1):
                    for name in names:
                        client.get_record_bytes(name, group)
            shards = fleet.stats()["shards"]
        owning = {shard_id: shard for shard_id, shard in shards.items() if shard["n_records"]}
        assert len(owning) == 2
        for shard_id, shard in owning.items():
            counters = shard["replicas"]["0"]["registry"]["counters"]
            assert counters["serving.cache.misses_total"] == shard["n_records"], shard_id
            assert counters["serving.cache.prefix_hits_total"] == shard["n_records"], shard_id

    def test_dataset_meta_reaggregates_the_whole_dataset(self, cluster, pcr_dataset):
        with ClusterClient(cluster.shard_map) as client:
            meta = client.dataset_meta()
        assert meta["record_names"] == pcr_dataset.record_names
        assert meta["n_samples"] == len(pcr_dataset)
        assert meta["n_groups"] == pcr_dataset.n_groups
        assert meta["n_shards"] == 4
        assert "shard_id" not in meta["dataset"]

    def test_get_index_routes_to_owner(self, cluster, pcr_dataset):
        name = pcr_dataset.record_names[0]
        with ClusterClient(cluster.shard_map) as client:
            assert client.get_index(name) == pcr_dataset.reader.record_index(name)

    def test_semantic_errors_do_not_fail_over(self, cluster):
        with ClusterClient(cluster.shard_map) as client:
            with pytest.raises(protocol.RemoteError):
                client.get_record_bytes("no-such-record.pcr", 1)
            assert client.failovers == 0

    def test_oversized_request_does_not_fail_over(self, cluster):
        """The caller's own over-limit request is not a replica failure."""
        name = "r" * 256
        with ClusterClient(cluster.shard_map) as client:
            for replica in cluster.shard_map.owners(name):
                client._client_for(replica).max_payload = 128
            with pytest.raises(protocol.FrameTooLargeError):
                client.get_record_bytes(name, 1)
            assert client.failovers == 0 and client.failed_endpoints == {}

    def test_failover_to_replica_on_dead_primary(self, pcr_dataset):
        reader = pcr_dataset.reader
        with ClusterCoordinator(
            reader.directory, n_shards=2, n_replicas=2
        ) as small:
            with ClusterClient(small.shard_map, cooldown_seconds=30.0) as client:
                # Kill exactly the replica the map prefers for one record, so
                # fetching that record is guaranteed to exercise failover.
                shard_id = max(
                    small.shard_map.shard_ids, key=lambda s: len(small.assignment(s))
                )
                name = small.assignment(shard_id)[0]
                preferred = small.shard_map.owners(name)[0]
                small.stop_replica(preferred.shard_id, preferred.replica_index)
                assert client.get_record_bytes(name, 1) == (
                    reader.read_record_bytes(name, 1)
                )
                assert client.failovers > 0
                stats = client.stats()
                assert stats["client"]["failovers"] == client.failovers
                statuses = [
                    replica["status"]
                    for replica in stats["shards"][shard_id]["replicas"].values()
                ]
                assert statuses.count("down") == 1

    def test_all_replicas_down_raises_connection_error(self, pcr_dataset):
        with ClusterCoordinator(
            pcr_dataset.reader.directory, n_shards=2, n_replicas=1
        ) as small:
            shard_id = small.shard_map.shard_ids[0]
            names = small.assignment(shard_id)
            small.drain_shard(shard_id)
            with ClusterClient(
                small.shard_map, failover_rounds=2, backoff_seconds=0.01
            ) as client:
                with pytest.raises(ConnectionError, match="every replica"):
                    client.get_record_bytes(names[0], 1)


# -- end-to-end: the acceptance-criteria scenario -----------------------------


class TestShardedRemoteRecordSource:
    """What only a cluster can do; everything a sharded source shares with
    the other backends is checked once in ``test_record_source.py``."""

    def test_epoch_survives_mid_epoch_shard_kill(self, tmp_path, tiny_samples):
        """The acceptance scenario: one shard replica dies mid-epoch and the
        epoch still completes, rerouted to the surviving replica."""
        from repro.core.dataset import PCRDataset

        dataset = PCRDataset.build(
            tiny_samples, tmp_path, images_per_record=2, quality=90
        )
        n_samples = len(dataset)
        dataset.close()
        with ClusterCoordinator(tmp_path, n_shards=4, n_replicas=2) as doomed:
            with ShardedRemoteRecordSource(shard_map=doomed.shard_map) as source:
                # One slow worker, no shuffle: records are read in sorted
                # order and the worker runs at most a couple of records ahead
                # of consumption.  Killing the replica preferred for the
                # *last* record right after the first batch guarantees the
                # kill lands mid-epoch, before that record is fetched.
                config = LoaderConfig(
                    batch_size=2, n_workers=1, prefetch_batches=1,
                    shuffle=False, seed=5,
                )
                last_record = sorted(source.record_names)[-1]
                victim = doomed.shard_map.owners(last_record)[0]
                killed = threading.Event()
                batches = []
                for batch in DataLoader(source, config).epoch():
                    batches.append(batch)
                    if not killed.is_set():
                        doomed.stop_replica(victim.shard_id, victim.replica_index)
                        killed.set()
                assert killed.is_set()
                assert sum(batch.images.shape[0] for batch in batches) == n_samples
                assert source.cluster_client.failovers > 0
                stats = source.cluster_client.stats()
                assert stats["client"]["failovers"] > 0

    def test_requires_map_or_client(self):
        """The shard map is the only way in: the source builds (and owns)
        its cluster client, there is no ``cluster_client=`` alternative."""
        with pytest.raises(TypeError, match="shard_map"):
            ShardedRemoteRecordSource()
        with pytest.raises(TypeError, match="cluster_client"):
            ShardedRemoteRecordSource(cluster_client=None)
