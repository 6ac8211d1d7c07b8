"""Figure 12 — distribution of encoded image sizes (ImageNet).

Encodes the ImageNet-like synthetic dataset and prints the size histogram and
summary statistics; the paper notes most mass concentrates near the mode with
a long tail of large images.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header
from repro.simulate.throughput import empirical_image_size_distribution


def test_fig12_image_size_distribution(benchmark, imagenet_like):
    dataset, _ = imagenet_like

    def collect():
        return [len(sample.stream) for sample in dataset]

    sizes = benchmark(collect)
    summary = empirical_image_size_distribution(sizes)

    print_header("Figure 12: encoded image size distribution (ImageNet-like)")
    print(f"{'statistic':<10}{'bytes':>10}")
    for key in ("min", "p05", "median", "mean", "p95", "max"):
        print(f"{key:<10}{summary[key]:>10.0f}")

    counts, edges = np.histogram(sizes, bins=8)
    print("\nhistogram:")
    for count, low, high in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(1 + 40 * count / max(counts))
        print(f"{low:>7.0f}-{high:<7.0f} {count:>4} {bar}")

    assert summary["min"] > 0
    assert summary["p95"] >= summary["median"] >= summary["p05"]
    # Most images cluster within 2x of the median (paper: mass near the mode).
    near_median = sum(1 for s in sizes if 0.5 * summary["median"] <= s <= 2 * summary["median"])
    assert near_median / len(sizes) > 0.8
