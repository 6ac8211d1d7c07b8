"""Plan a training cluster's scan-group choice with the queueing/roofline model.

Given a storage bandwidth budget and a model's compute rate, this example
shows which scan group saturates compute, the predicted epoch times, and the
expected time-to-accuracy speedups — the Appendix A.2 analysis applied to the
paper's published cluster (10 workers, 400 MiB/s of storage).

Run with:  python examples/cluster_planning.py
"""

from __future__ import annotations

from repro.simulate import ClusterSpec, PipelineModel, TrainingSimulator

MiB = 1024 * 1024

#: Mean ImageNet image bytes at each scan group (measured ratios from the PCR
#: codec applied to the paper's 110 kB full-quality mean).
IMAGENET_GROUP_BYTES = {1: 13_000, 2: 22_000, 5: 52_000, 10: 110_000}
FINAL_ACCURACY = {1: 0.55, 2: 0.63, 5: 0.665, 10: 0.67}


def main() -> None:
    for name, cluster in (
        ("ResNet-18", ClusterSpec.paper_resnet()),
        ("ShuffleNetv2", ClusterSpec.paper_shufflenet()),
    ):
        print(f"\n=== {name} on the paper's 10-worker cluster ===")
        roofline = PipelineModel(
            cluster.storage_bandwidth_bytes_per_second,
            cluster.compute_images_per_second,
            images_per_record=1,
        )
        print(f"compute roof: {cluster.compute_images_per_second:.0f} img/s, "
              f"storage: {cluster.storage_bandwidth_bytes_per_second / MiB:.0f} MiB/s, "
              f"ridge point: {roofline.crossover_image_bytes() / 1000:.0f} kB/image")

        simulator = TrainingSimulator(cluster, n_train_images=1_281_167, eval_every_epochs=5)
        speedups = simulator.speedup_table(IMAGENET_GROUP_BYTES)
        runs = simulator.compare_scan_groups(IMAGENET_GROUP_BYTES, FINAL_ACCURACY, n_epochs=90)

        print(f"{'group':>6}{'kB/img':>8}{'img/s':>9}{'epoch (min)':>13}{'speedup':>9}{'final acc':>11}")
        for group in sorted(IMAGENET_GROUP_BYTES):
            run = runs[group]
            print(
                f"{group:>6}{IMAGENET_GROUP_BYTES[group] / 1000:>8.0f}{run.images_per_second:>9.0f}"
                f"{run.epoch_seconds / 60:>13.1f}{speedups[group]:>9.2f}{run.final_accuracy:>11.3f}"
            )
        target = 0.6
        baseline = runs[10].time_to_accuracy(target)
        best_group = min(
            (g for g in runs if runs[g].time_to_accuracy(target) is not None),
            key=lambda g: runs[g].time_to_accuracy(target),
        )
        print(f"time to {target:.0%} top-1: baseline {baseline / 3600:.1f} h, "
              f"best group {best_group} -> {runs[best_group].time_to_accuracy(target) / 3600:.1f} h")


if __name__ == "__main__":
    main()
