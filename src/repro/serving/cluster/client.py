"""Routing, failover-aware client for a sharded PCR serving cluster.

``ClusterClient`` speaks to every shard of a
:class:`~repro.serving.cluster.shard_map.ShardMap` through per-endpoint
pooled :class:`~repro.serving.client.PCRClient` instances and satisfies the
same :class:`~repro.serving.client.RecordClient` protocol a single
``PCRClient`` does, so ``RemoteRecordSource`` (and therefore ``DataLoader``)
can ride on top of a cluster unchanged.

Routing and failure handling:

* every request is routed to the owning shard via the map's consistent
  hash;
* a connection-level failure (dead replica, restarting server) fails over
  to the next replica in the record's deterministic failover order; an
  endpoint that failed is put in a short cooldown so subsequent requests
  try its healthy siblings first;
* when every replica of a shard is down the client backs off
  (exponentially, ``backoff_seconds * 2**round``) and retries the whole
  replica set for ``failover_rounds`` rounds before surfacing
  ``ConnectionError`` — long enough to ride out a replica restart;
* server-side semantic errors (:class:`~repro.serving.protocol.RemoteError`
  — unknown record, bad scan group) propagate immediately: they would fail
  identically on every replica.

:func:`sweep_fleet` is the one fleet-wide metrics sweep;
``ClusterClient.stats()`` and ``ClusterCoordinator.stats()`` are that plus
what only each of them knows.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.index import RecordIndex
from repro.obs import merge_snapshots
from repro.serving.client import PCRClient
from repro.serving.cluster.shard_map import ShardMap, ShardReplica

DEFAULT_POOL_SIZE = 2
DEFAULT_FAILOVER_ROUNDS = 3
DEFAULT_BACKOFF_SECONDS = 0.05
DEFAULT_COOLDOWN_SECONDS = 1.0
#: One scrape's connect + reply budget; a sweep never takes longer.
SWEEP_TIMEOUT_SECONDS = 2.0


def sweep_fleet(shard_map: ShardMap) -> dict:
    """Scrape every endpoint of ``shard_map`` and merge the live registries.

    Replicas are scraped concurrently with ``GET_METRICS``, each over a
    connection of its own (the path an external scraper would use), so the
    sweep costs one slow replica's round trip, not the fleet's sum.
    ``shards[id]["replicas"][index]`` is the replica's ``metrics()`` body
    plus ``"status": "up"``, or ``{"status": "down", "error": ...}`` for one
    that cannot be reached: a dead replica never fails the sweep.  Ratios
    (a cache hit rate) are for the reader to derive from ``merged``.
    """

    def scrape(replica: ShardReplica) -> dict:
        try:
            with PCRClient(
                host=replica.host,
                port=replica.port,
                pool_size=1,
                retries=0,
                timeout=SWEEP_TIMEOUT_SECONDS,
            ) as client:
                report = client.metrics()
        except Exception as exc:
            return {"status": "down", "error": f"{type(exc).__name__}: {exc}"}
        report["status"] = "up"
        return report

    replicas = shard_map.all_replicas()
    with ThreadPoolExecutor(max_workers=min(8, len(replicas))) as pool:
        reports = list(pool.map(scrape, replicas))
    shards: dict[str, dict] = {}
    for replica, report in zip(replicas, reports):
        shards.setdefault(replica.shard_id, {"replicas": {}})["replicas"][
            str(replica.replica_index)
        ] = report
    live = [report["registry"] for report in reports if report["status"] == "up"]
    return {
        "topology": shard_map.describe(),
        "shards": shards,
        "merged": merge_snapshots(live),
        "live_replicas": len(live),
        "total_replicas": len(replicas),
    }


class ClusterClient:
    """Fetches records from whichever live replica of the owning shard."""

    def __init__(
        self,
        shard_map: ShardMap,
        pool_size: int = DEFAULT_POOL_SIZE,
        timeout: float = 30.0,
        failover_rounds: int = DEFAULT_FAILOVER_ROUNDS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        cooldown_seconds: float = DEFAULT_COOLDOWN_SECONDS,
    ) -> None:
        if failover_rounds < 1:
            raise ValueError("failover_rounds must be at least 1")
        self.shard_map = shard_map
        self.pool_size = pool_size
        self.timeout = timeout
        self.failover_rounds = failover_rounds
        self.backoff_seconds = backoff_seconds
        self.cooldown_seconds = cooldown_seconds
        self._clients: dict[tuple[str, int], PCRClient] = {}
        self._down_until: dict[tuple[str, int], float] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.failovers = 0
        self.failed_endpoints: dict[str, int] = {}

    # -- endpoint plumbing -----------------------------------------------------

    def _client_for(self, replica: ShardReplica) -> PCRClient:
        if self._closed:
            raise RuntimeError("cluster client is closed")
        with self._lock:
            client = self._clients.get(replica.endpoint)
            if client is None:
                client = PCRClient(
                    host=replica.host,
                    port=replica.port,
                    pool_size=self.pool_size,
                    timeout=self.timeout,
                )
                self._clients[replica.endpoint] = client
        return client

    def _mark_down(self, replica: ShardReplica) -> None:
        key = f"{replica.host}:{replica.port}"
        with self._lock:
            self._down_until[replica.endpoint] = time.monotonic() + self.cooldown_seconds
            self.failovers += 1
            self.failed_endpoints[key] = self.failed_endpoints.get(key, 0) + 1

    def _mark_up(self, replica: ShardReplica) -> None:
        with self._lock:
            self._down_until.pop(replica.endpoint, None)

    def _order_by_health(self, replicas: list[ShardReplica]) -> list[ShardReplica]:
        """Healthy replicas first, preserving the deterministic order within
        each class; cooled-down replicas stay reachable as a last resort."""
        now = time.monotonic()
        with self._lock:
            down = {
                endpoint
                for endpoint, until in self._down_until.items()
                if until > now
            }
        healthy = [r for r in replicas if r.endpoint not in down]
        cooling = [r for r in replicas if r.endpoint in down]
        return healthy + cooling

    def _with_failover(self, replicas: list[ShardReplica], operation):
        """Run ``operation(client)`` against the first replica that answers."""
        last_error: Exception | None = None
        for round_index in range(self.failover_rounds):
            for replica in self._order_by_health(replicas):
                try:
                    client = self._client_for(replica)
                    result = operation(client)
                except (ConnectionError, OSError) as exc:
                    self._mark_down(replica)
                    last_error = exc
                    continue
                self._mark_up(replica)
                return result
            if round_index + 1 < self.failover_rounds:
                time.sleep(self.backoff_seconds * (2**round_index))
        shard = replicas[0].shard_id if replicas else "?"
        raise ConnectionError(
            f"every replica of {shard} failed after {self.failover_rounds} rounds: "
            f"{last_error}"
        ) from last_error

    # -- fetch surface (the RecordClient protocol) ------------------------------

    def get_record_bytes(self, record_name: str, scan_group: int) -> bytes:
        """Fetch one record prefix from the owning shard, with failover."""
        owners = self.shard_map.owners(record_name)
        return self._with_failover(
            owners, lambda client: client.get_record_bytes(record_name, scan_group)
        )

    def get_index(self, record_name: str) -> RecordIndex:
        """Fetch one record's offset index from its owning shard."""
        owners = self.shard_map.owners(record_name)
        return self._with_failover(owners, lambda client: client.get_index(record_name))

    def report_telemetry(self, report: dict) -> dict:
        """Ship one loader-telemetry report to the fleet; returns the ack.

        A cluster controller publishes its hints to *every* replica, so any
        live replica can answer; the report goes to the first shard whose
        replica set responds, failing over shard by shard.
        """
        last_error: Exception | None = None
        for shard_id in self.shard_map.shard_ids:
            try:
                return self._with_failover(
                    self.shard_map.replicas(shard_id),
                    lambda client: client.report_telemetry(report),
                )
            except ConnectionError as exc:
                last_error = exc
        raise ConnectionError(
            f"no shard accepted the telemetry report: {last_error}"
        ) from last_error

    def dataset_meta(self) -> dict:
        """The whole-dataset view, re-aggregated from every shard's slice."""
        per_shard: dict[str, dict] = {}
        for shard_id in self.shard_map.shard_ids:
            per_shard[shard_id] = self._with_failover(
                self.shard_map.replicas(shard_id), lambda client: client.dataset_meta()
            )
        record_names: list[str] = []
        n_samples = 0
        n_groups_seen: set[int] = set()
        for meta in per_shard.values():
            record_names.extend(meta["record_names"])
            n_samples += int(meta["n_samples"])
            n_groups_seen.add(int(meta["n_groups"]))
        if len(n_groups_seen) != 1:
            raise ValueError(f"shards disagree on n_groups: {sorted(n_groups_seen)}")
        first = next(iter(per_shard.values()))
        dataset = dict(first["dataset"])
        dataset.pop("shard_id", None)
        return {
            "dataset": dataset,
            "n_groups": n_groups_seen.pop(),
            "n_samples": n_samples,
            "record_names": sorted(record_names),
            "protocol_version": first["protocol_version"],
            "max_payload_bytes": first["max_payload_bytes"],
            "n_shards": self.shard_map.n_shards,
        }

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """:func:`sweep_fleet` over this client's map, plus its own failover counters."""
        with self._lock:
            client = {
                "failovers": self.failovers,
                "failed_endpoints": dict(self.failed_endpoints),
            }
        return {**sweep_fleet(self.shard_map), "client": client}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
