"""Close the autotune loop: a loader hook steers training fidelity live.

Builds a small synthetic PCR dataset, launches a 2-shard x 2-replica
serving cluster, and drives a training loop whose loader carries an
:class:`AdaptiveScanGroupHook`, over a source whose fetcher sits behind a
bandwidth-capped link (:class:`BandwidthThrottle`).  At the end
of every interval the hook hands its policy the loader's own stall and
byte window and applies the decision through the loader's
``set_scan_group`` — the servers only serve records.  Mid-run the link cap
is lifted and the hook steers fidelity back up.  The decision log — every
steer with its rationale — is printed at the end.

Run with:  PYTHONPATH=src python examples/adaptive_serving.py
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace

from repro.control import AdaptiveScanGroupHook, StallTargetPolicy
from repro.core import BandwidthThrottle, PCRDataset, RecordSource
from repro.datasets import HAM10000_SPEC, generate_dataset
from repro.pipeline import DataLoader, LoaderConfig
from repro.serving.cluster import ClusterClient, ClusterCoordinator
from repro.serving.remote_source import RemoteFetcher
from repro.training import SGD, Trainer, TinyShuffleNet

N_INTERVALS = 10
UNCAP_AT_INTERVAL = 6
COMPUTE_SECONDS_PER_BATCH = 0.05


def main() -> None:
    spec = replace(HAM10000_SPEC, n_samples=48, image_size=40, images_per_record=8)
    workdir = tempfile.mkdtemp(prefix="pcr-adaptive-")
    print("Building a HAM10000-like PCR dataset ...")
    dataset = PCRDataset.build(
        generate_dataset(spec, seed=1),
        workdir,
        images_per_record=spec.images_per_record,
        quality=spec.jpeg_quality,
    )
    dataset.close()

    with ClusterCoordinator(workdir, n_shards=2, n_replicas=2) as cluster:
        print(f"Cluster up: {cluster.shard_map.n_shards} shards x 2 replicas")
        link = BandwidthThrottle(RemoteFetcher(ClusterClient(cluster.shard_map)), None)
        with RecordSource(link) as source:
            hook = AdaptiveScanGroupHook(
                policy=StallTargetPolicy(
                    target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
                ),
                interval=3600.0,  # stepped explicitly so the demo is deterministic
            )
            loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=1, seed=0), hook=hook)
            model = TinyShuffleNet(n_classes=spec.n_classes, width=8)
            trainer = Trainer(model, SGD(learning_rate=0.05, momentum=0.9))

            batches = max(1, len(source) // 8)
            compute_budget = batches * COMPUTE_SECONDS_PER_BATCH
            # A link where a full-fidelity epoch costs 4x the compute budget.
            capped = source.epoch_bytes() / (4 * compute_budget)
            link.set_rate(capped)
            print(f"Link capped at {capped / 1024:.0f} KiB/s; "
                  f"policy target stall fraction 0.20\n")

            for interval in range(N_INTERVALS):
                if interval == UNCAP_AT_INTERVAL:
                    link.set_rate(None)
                    print("    -> link cap lifted; the hook steers back up")
                stalls = loader.stalls
                wait0, compute0 = stalls.total_wait, stalls.total_compute
                for batch in loader.epoch():
                    trainer.train_step(batch)
                    time.sleep(COMPUTE_SECONDS_PER_BATCH)
                hook.step()  # decide on this interval's window and apply
                wait = stalls.total_wait - wait0
                compute = stalls.total_compute - compute0
                stall = wait / (wait + compute) if wait + compute else 0.0
                print(f"  interval {interval}: scan group {loader.scan_group:2d}  "
                      f"stall {stall:.2f}")

            print("\nDecision log (steers only):")
            for entry in hook.switch_log():
                print(f"  interval {entry['interval']:2d}: "
                      f"{entry['previous_group']} -> {entry['chosen_group']} "
                      f"({entry['direction']}) because {entry['reason']}")
            fleet = cluster.stats()
            counters = fleet["merged"]["counters"]
            print(f"\nFleet: "
                  f"{counters.get('serving.requests.get_record_total', 0):.0f} record reads, "
                  f"{counters.get('serving.cache.bytes_served_total', 0) / 1024:.0f} KiB "
                  f"served from cache across {fleet['live_replicas']} replicas")


if __name__ == "__main__":
    main()
