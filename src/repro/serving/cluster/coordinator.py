"""Launches and supervises a fleet of shard-scoped PCR record servers.

``ClusterCoordinator`` owns the whole serving topology of one dataset
directory: it partitions the record names across *N* shards with a
:class:`~repro.serving.cluster.shard_map.ShardMap`, launches ``N × R``
:class:`~repro.serving.server.PCRRecordServer` instances (one per shard
replica, each wrapping a :class:`ShardViewReader` so it can only serve its
own records), and republishes the map with the actually-bound ports so
clients can route without any further coordination.

Lifecycle verbs mirror what an operator needs mid-flight:

* :meth:`stop_replica` — kill one replica (the failure-injection hook the
  failover tests and benchmark use);
* :meth:`restart_replica` — bring a dead replica back on its original port,
  with a fresh reader and an empty cache;
* :meth:`drain_shard` / :meth:`restart_shard` — take a whole shard out of
  (and back into) service without touching the topology;
* :meth:`stats` — the fleet sweep
  (:func:`~repro.serving.cluster.client.sweep_fleet`: every replica's
  registry scraped over the wire and merged, dead replicas reported as
  ``down``, never raised) plus what only the supervisor knows: records per
  shard, ``running`` and ``restarts`` per replica.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.reader import PCRReader
from repro.serving.cache import DEFAULT_CACHE_BYTES
from repro.serving.cluster.client import sweep_fleet
from repro.serving.cluster.shard_map import ShardMap, ShardReplica, default_shard_ids
from repro.serving.cluster.views import ShardViewReader
from repro.serving.server import PCRRecordServer

DEFAULT_N_SHARDS = 2
DEFAULT_N_REPLICAS = 1


class _ManagedReplica:
    """One shard replica: its server, its view, and its published endpoint."""

    def __init__(self, replica: ShardReplica, view: ShardViewReader, server: PCRRecordServer):
        self.replica = replica
        self.view = view
        self.server = server
        self.running = True
        self.restarts = 0


class ClusterCoordinator:
    """Runs a sharded, replicated PCR serving cluster over one dataset."""

    def __init__(
        self,
        dataset_dir: str | Path,
        n_shards: int = DEFAULT_N_SHARDS,
        n_replicas: int = DEFAULT_N_REPLICAS,
        host: str = "127.0.0.1",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("each shard needs at least one replica")
        self.dataset_dir = Path(dataset_dir)
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        self.host = host
        self.cache_bytes = cache_bytes
        self._replicas: dict[tuple[str, int], _ManagedReplica] = {}
        self._assignment: dict[str, list[str]] = {}
        self._shard_map: ShardMap | None = None
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ClusterCoordinator":
        """Partition the dataset and launch every shard replica."""
        if self._started:
            raise RuntimeError("cluster already started")
        shard_ids = default_shard_ids(self.n_shards)
        with PCRReader(self.dataset_dir, decode=False) as probe:
            record_names = probe.record_names
        # Placement depends only on the shard ids, so the routing map can be
        # computed before any port is bound; endpoints are published after.
        placement = ShardMap({shard_id: [(self.host, 0)] for shard_id in shard_ids})
        self._assignment = placement.partition(record_names)
        endpoints: dict[str, list[tuple[str, int]]] = {}
        try:
            for shard_id in shard_ids:
                endpoints[shard_id] = []
                for _ in range(self.n_replicas):
                    server, view = self._launch(shard_id)
                    endpoints[shard_id].append((self.host, server.port))
                    replica = ShardReplica(
                        shard_id=shard_id,
                        replica_index=len(endpoints[shard_id]) - 1,
                        host=self.host,
                        port=server.port,
                    )
                    self._replicas[(shard_id, replica.replica_index)] = _ManagedReplica(
                        replica, view, server
                    )
        except BaseException:
            self._stop_all()
            raise
        self._shard_map = ShardMap(endpoints)
        self._started = True
        return self

    def _launch(self, shard_id: str, port: int = 0) -> tuple[PCRRecordServer, ShardViewReader]:
        view = ShardViewReader(self.dataset_dir, self._assignment[shard_id], shard_id)
        try:
            server = PCRRecordServer(
                view, host=self.host, port=port, cache_bytes=self.cache_bytes
            ).start()
        except BaseException:
            view.close()
            raise
        return server, view

    def stop(self) -> None:
        """Stop every replica and close every reader."""
        self._stop_all()
        self._started = False

    def _stop_all(self) -> None:
        for managed in self._replicas.values():
            if managed.running:
                managed.server.stop()
                managed.running = False
            managed.view.close()
        self._replicas.clear()

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- topology --------------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        """The published routing map (real bound ports)."""
        if self._shard_map is None:
            raise RuntimeError("cluster not started")
        return self._shard_map

    def assignment(self, shard_id: str) -> list[str]:
        """Record names owned by one shard."""
        return list(self._assignment[shard_id])

    def live_replicas(self) -> list[ShardReplica]:
        return [m.replica for m in self._replicas.values() if m.running]

    def running_servers(self) -> list[PCRRecordServer]:
        """The in-process servers of the live replicas."""
        return [m.server for m in self._replicas.values() if m.running]

    # -- supervision -----------------------------------------------------------

    def _managed(self, shard_id: str, replica_index: int) -> _ManagedReplica:
        try:
            return self._replicas[(shard_id, replica_index)]
        except KeyError as exc:
            raise KeyError(f"unknown replica {shard_id}/{replica_index}") from exc

    def stop_replica(self, shard_id: str, replica_index: int) -> None:
        """Kill one replica (its port stays reserved in the shard map)."""
        managed = self._managed(shard_id, replica_index)
        if managed.running:
            managed.server.stop()
            managed.view.close()
            managed.running = False

    def restart_replica(self, shard_id: str, replica_index: int) -> None:
        """Relaunch a stopped replica on its original published port."""
        managed = self._managed(shard_id, replica_index)
        if managed.running:
            return
        server, view = self._launch(shard_id, port=managed.replica.port)
        managed.server = server
        managed.view = view
        managed.running = True
        managed.restarts += 1

    def drain_shard(self, shard_id: str) -> None:
        """Take every replica of one shard out of service."""
        for (owner, replica_index) in list(self._replicas):
            if owner == shard_id:
                self.stop_replica(shard_id, replica_index)

    def restart_shard(self, shard_id: str) -> None:
        """Bring a drained shard back, replica by replica."""
        for (owner, replica_index) in list(self._replicas):
            if owner == shard_id:
                self.restart_replica(shard_id, replica_index)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """The fleet sweep plus the supervisor's view of every replica.

        :func:`~repro.serving.cluster.client.sweep_fleet` over the published
        map, with ``n_records`` added per shard and ``running`` /
        ``restarts`` per replica — a replica this coordinator stopped reads
        ``{"status": "down", ..., "running": False}``.
        """
        report = sweep_fleet(self.shard_map)
        for (shard_id, replica_index), managed in self._replicas.items():
            shard = report["shards"][shard_id]
            shard["n_records"] = len(self._assignment[shard_id])
            shard["replicas"][str(replica_index)].update(
                running=managed.running, restarts=managed.restarts
            )
        return report
