"""Sharded, replicated PCR serving: the multi-node layer over one server.

The single-node stack (:mod:`repro.serving`) serves one dataset directory
from one process.  This package scales it out:

:mod:`repro.serving.cluster.shard_map`
    ``ShardMap`` — deterministic record-to-shard routing by consistent
    hashing with virtual nodes, plus per-record replica failover order.

:mod:`repro.serving.cluster.views`
    ``ShardViewReader`` — a shard-filtered facade over ``PCRReader`` so a
    shard's server can only serve the records the map assigns it.

:mod:`repro.serving.cluster.coordinator`
    ``ClusterCoordinator`` — launches and supervises the ``N × R`` server
    fleet: kill/restart single replicas, drain/restart whole shards, the
    fleet sweep plus the supervisor's view.

:mod:`repro.serving.cluster.client`
    ``ClusterClient`` — routes requests to owning shards, fails over to
    replicas with backoff, re-aggregates the dataset view; ``sweep_fleet``,
    the one fleet-wide ``GET_METRICS`` sweep.

:mod:`repro.serving.cluster.remote_source`
    ``ShardedRemoteRecordSource`` — the ``DataLoader``-compatible source
    over the cluster client; a mid-epoch replica kill is absorbed by
    failover.
"""

from repro.serving.cluster.client import ClusterClient, sweep_fleet
from repro.serving.cluster.coordinator import ClusterCoordinator
from repro.serving.cluster.remote_source import ShardedRemoteRecordSource
from repro.serving.cluster.shard_map import ShardMap, ShardReplica, default_shard_ids
from repro.serving.cluster.views import ShardViewReader

__all__ = [
    "ClusterClient",
    "ClusterCoordinator",
    "ShardMap",
    "ShardReplica",
    "ShardViewReader",
    "ShardedRemoteRecordSource",
    "default_shard_ids",
    "sweep_fleet",
]
