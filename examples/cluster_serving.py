"""Serve a PCR dataset from a sharded, replicated cluster and train through it.

Builds a small synthetic PCR dataset, launches a 4-shard x 2-replica
serving cluster on localhost ports, and drives a training loop through
:class:`ShardedRemoteRecordSource` — the clustered twin of
``RemoteRecordSource``.  Mid-training, one replica of the busiest shard is
killed: the routing client fails over to the surviving replica and the
epoch completes without the training loop noticing.  The scan group is
also switched at runtime, cluster-wide, exactly as with a single server.

Run with:  PYTHONPATH=src python examples/cluster_serving.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from repro.core import PCRDataset
from repro.datasets import HAM10000_SPEC, generate_dataset
from repro.pipeline import DataLoader, LoaderConfig
from repro.serving.cluster import ClusterCoordinator, ShardedRemoteRecordSource
from repro.training import SGD, Trainer, TinyShuffleNet

N_EPOCHS = 4
KILL_AT_EPOCH = 1
SWITCH_AT_EPOCH = 2
LOW_FIDELITY_GROUP = 2


def main() -> None:
    spec = replace(HAM10000_SPEC, n_samples=64, image_size=40, images_per_record=8)
    workdir = tempfile.mkdtemp(prefix="pcr-cluster-")
    print("Building a HAM10000-like PCR dataset ...")
    dataset = PCRDataset.build(
        generate_dataset(spec, seed=1),
        workdir,
        images_per_record=spec.images_per_record,
        quality=spec.jpeg_quality,
    )
    dataset.close()

    with ClusterCoordinator(workdir, n_shards=4, n_replicas=2) as cluster:
        shard_map = cluster.shard_map
        print(f"Cluster up: {shard_map.n_shards} shards x 2 replicas")
        for shard_id in shard_map.shard_ids:
            ports = [replica.port for replica in shard_map.replicas(shard_id)]
            print(f"  {shard_id}: {len(cluster.assignment(shard_id)):2d} records on ports {ports}")

        with ShardedRemoteRecordSource(shard_map=shard_map) as source:
            loader = DataLoader(source, LoaderConfig(batch_size=16, n_workers=2, seed=0))
            model = TinyShuffleNet(n_classes=spec.n_classes, width=8)
            trainer = Trainer(model, SGD(learning_rate=0.05, momentum=0.9))

            busiest = max(shard_map.shard_ids, key=lambda s: len(cluster.assignment(s)))
            print(f"\nTraining {N_EPOCHS} epochs against the cluster:")
            for epoch in range(N_EPOCHS):
                if epoch == KILL_AT_EPOCH:
                    cluster.stop_replica(busiest, 0)
                    print(f"    -> killed {busiest}/replica-0; reads fail over to replica-1")
                if epoch == SWITCH_AT_EPOCH:
                    source.set_scan_group(LOW_FIDELITY_GROUP)
                    print(
                        f"    -> runtime switch to scan group {LOW_FIDELITY_GROUP} "
                        "(fewer bytes per record, cluster-wide)"
                    )
                result = trainer.train_epoch(loader, scan_group=source.scan_group)
                print(
                    f"  epoch {epoch}: scan group {source.scan_group:>2}  "
                    f"loss {result.train_loss:.3f}  acc {result.train_accuracy:.2f}  "
                    f"failovers so far {source.cluster_client.failovers}"
                )

            fleet = source.cluster_client.stats()
            print(
                f"\nCluster after training: "
                f"{fleet['client']['failovers']} client failovers "
                f"({fleet['client']['failed_endpoints']})"
            )
            counters = fleet["merged"]["counters"]
            hits = (
                counters["serving.cache.exact_hits_total"]
                + counters["serving.cache.prefix_hits_total"]
            )
            lookups = hits + counters["serving.cache.misses_total"]
            print(
                f"Fleet: {fleet['live_replicas']}/{fleet['total_replicas']} replicas live, "
                f"cache hit rate {hits / lookups if lookups else 0.0:.2f}"
            )
            cluster.restart_replica(busiest, 0)
            print(f"Restarted {busiest}/replica-0 on its original port; cluster whole again.")


if __name__ == "__main__":
    main()
