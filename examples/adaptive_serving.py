"""Close the autotune loop: a controller steers training fidelity live.

Builds a small synthetic PCR dataset, launches a 2-shard x 2-replica
serving cluster, attaches a fleet-wide :class:`FidelityController`, and
drives a training loop whose loader carries an
:class:`AdaptiveScanGroupHook`, behind a bandwidth-capped link.  The loader
reports its stall telemetry over the wire (the ``REPORT_TELEMETRY`` op); the
controller answers with scan-group hints the hook applies to the loader.  Mid-run the link cap is lifted
and the controller steers fidelity back up.  The decision log — every
steer with its rationale — is printed at the end.

Run with:  PYTHONPATH=src python examples/adaptive_serving.py
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace

from repro.control import AdaptiveScanGroupHook, StallTargetPolicy
from repro.core import PCRDataset
from repro.datasets import HAM10000_SPEC, generate_dataset
from repro.pipeline import BandwidthThrottle, DataLoader, LoaderConfig
from repro.serving.cluster import ClusterCoordinator, ShardedRemoteRecordSource
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
        controller = cluster.start_controller(
            policy=StallTargetPolicy(
                target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
            ),
            auto_start=False,  # stepped explicitly so the demo is deterministic
        )
        throttle = BandwidthThrottle(None)
        with ShardedRemoteRecordSource(shard_map=cluster.shard_map) as source:
            hook = AdaptiveScanGroupHook(
                client_id="trainer-0",
                report_interval=3600.0,  # report at interval boundaries only
                throttle=throttle,
            )
            loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=1, seed=0), hook=hook)
            model = TinyShuffleNet(n_classes=spec.n_classes, width=8)
            trainer = Trainer(model, SGD(learning_rate=0.05, momentum=0.9))

            batches = max(1, len(source) // 8)
            compute_budget = batches * COMPUTE_SECONDS_PER_BATCH
            # A link where a full-fidelity epoch costs 4x the compute budget.
            capped = source.epoch_bytes() / (4 * compute_budget)
            throttle.set_rate(capped)
            print(f"Link capped at {capped / 1024:.0f} KiB/s; "
                  f"controller target stall fraction 0.20\n")

            for interval in range(N_INTERVALS):
                if interval == UNCAP_AT_INTERVAL:
                    throttle.set_rate(None)
                    print("    -> link cap lifted; the controller steers back up")
                stalls = loader.stalls
                wait0, compute0 = stalls.total_wait, stalls.total_compute
                for batch in loader.epoch():
                    trainer.train_step(batch)
                    time.sleep(COMPUTE_SECONDS_PER_BATCH)
                hook.report_now()
                controller.step()
                hook.report_now()  # pick up the hint this step published
                wait = stalls.total_wait - wait0
                compute = stalls.total_compute - compute0
                stall = wait / (wait + compute) if wait + compute else 0.0
                print(f"  interval {interval}: scan group {loader.scan_group:2d}  "
                      f"stall {stall:.2f}")

            print("\nController decision log (steers only):")
            for entry in controller.switch_log():
                print(f"  interval {entry['interval']:2d}: "
                      f"{entry['previous_group']} -> {entry['chosen_group']} "
                      f"({entry['direction']}) because {entry['reason']}")
            fleet = cluster.stats()
            counters = fleet["merged"]["counters"]
            print(f"\nFleet telemetry: "
                  f"{counters.get('serving.telemetry.reports_total', 0):.0f} reports, "
                  f"{counters.get('serving.telemetry.hints_served_total', 0):.0f} hints served "
                  f"across {fleet['live_replicas']} replicas")


if __name__ == "__main__":
    main()
