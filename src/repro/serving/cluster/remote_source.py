"""A ``DataLoader`` record source backed by a sharded serving cluster.

``ShardedRemoteRecordSource`` is the shared
:class:`~repro.core.source.RecordSource` over a
:class:`~repro.serving.remote_source.RemoteFetcher` whose client is a
:class:`~repro.serving.cluster.client.ClusterClient`: the cluster client
satisfies the same ``RecordClient`` protocol as a single-server
``PCRClient``, so every behaviour of the single-server source —
runtime-switchable scan group, client-side minibatch decode (every record
fetch runs through the codec batch API with shared pixel-stage buffers),
byte accounting — is literally the same code, and a replica killed mid-epoch is
absorbed by the client's failover instead of surfacing to the training loop.
"""

from __future__ import annotations

from repro.core.source import RecordSource
from repro.serving.cluster.client import ClusterClient
from repro.serving.cluster.shard_map import ShardMap
from repro.serving.remote_source import RemoteFetcher


class ShardedRemoteRecordSource(RecordSource):
    """Reads PCR records from a replicated shard fleet; ``DataLoader``-ready."""

    def __init__(
        self, shard_map: ShardMap, scan_group: int | None = None, decode: bool = True
    ) -> None:
        super().__init__(RemoteFetcher(ClusterClient(shard_map)), scan_group, decode)

    @property
    def cluster_client(self) -> ClusterClient:
        """The routing, failover-aware client this source fetches through."""
        return self.fetcher.client  # type: ignore[attr-defined]
