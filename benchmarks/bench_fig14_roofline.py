"""Figure 14 — data-intensity roofline: attainable image rate vs bytes/image."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import mean_bytes_by_group, print_header, rescale_to_paper_sizes
from repro.simulate.throughput import PipelineModel
from repro.simulate.trainer_sim import ClusterSpec

MiB = 1024 * 1024


def test_fig14_roofline(benchmark, imagenet_like):
    dataset, _ = imagenet_like
    cluster = ClusterSpec.paper_shufflenet()

    def run():
        # The roofline is the pipeline model at one image per record with
        # no per-record setup: min(compute roof, bandwidth / bytes-per-image).
        model = PipelineModel(
            cluster.storage_bandwidth_bytes_per_second,
            cluster.compute_images_per_second,
            images_per_record=1,
        )
        sizes = rescale_to_paper_sizes(mean_bytes_by_group(dataset))
        intensities = np.logspace(np.log10(1_000), np.log10(1_000_000), 12)
        rates = [model.end_to_end_rate(intensity) for intensity in intensities]
        placements = {
            group: (
                size,
                model.end_to_end_rate(size),
                "io-bound" if model.is_io_bound(size) else "compute-bound",
            )
            for group, size in sizes.items()
        }
        return model, intensities, rates, placements

    model, intensities, rates, placements = benchmark(run)

    print_header("Figure 14: data-intensity roofline (ShuffleNet cluster)")
    print(f"ridge point: {model.crossover_image_bytes():.0f} bytes/image "
          f"(compute roof {model.compute_images_per_second:.0f} img/s, "
          f"bandwidth {model.storage_bandwidth_bytes_per_second / MiB:.0f} MiB/s)")
    print(f"\n{'bytes/image':>12}{'attainable img/s':>18}")
    for intensity, rate in zip(intensities, rates):
        print(f"{intensity:>12.0f}{rate:>18.0f}")
    print(f"\n{'scan group':>11}{'bytes/image':>13}{'img/s':>9}  regime")
    for group in sorted(placements):
        size, rate, regime = placements[group]
        print(f"{group:>11}{size:>13.0f}{rate:>9.0f}  {regime}")

    # Full quality sits on the bandwidth slope; the smallest scan groups reach
    # the compute roof — the knee the paper's figure illustrates.
    assert placements[max(placements)][2] == "io-bound"
    assert placements[1][2] == "compute-bound"
