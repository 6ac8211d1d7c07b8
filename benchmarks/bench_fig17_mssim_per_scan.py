"""Figure 17 — MSSIM of each scan group's reconstruction vs the full image."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header
from repro.codecs.progressive import ProgressiveCodec
from repro.metrics.msssim import ms_ssim

SAMPLE_LIMIT = 8


def _mssim_by_scan(dataset, quality: int) -> dict[int, float]:
    codec = ProgressiveCodec(quality=quality)
    streams = [sample.stream for sample in list(dataset)[:SAMPLE_LIMIT]]
    values: dict[int, list[float]] = {group: [] for group in range(1, dataset.n_groups + 1)}
    for stream in streams:
        full = codec.decode(stream)
        for group in values:
            partial = codec.decode(stream, max_scans=group)
            values[group].append(ms_ssim(full, partial))
    return {group: float(np.mean(scores)) for group, scores in values.items()}


def test_fig17_mssim_per_scan(benchmark, bench_datasets):
    def collect():
        return {
            name: _mssim_by_scan(dataset, spec.jpeg_quality)
            for name, (dataset, spec) in bench_datasets.items()
        }

    results = benchmark.pedantic(collect, rounds=1, iterations=1)

    print_header("Figure 17: MSSIM by scan group (reconstruction vs full quality)")
    groups = sorted(next(iter(results.values())))
    print(f"{'dataset':<12}" + "".join(f"{f'g{group}':>8}" for group in groups))
    for name, by_group in results.items():
        print(f"{name:<12}" + "".join(f"{by_group[group]:>8.3f}" for group in groups))

    for name, by_group in results.items():
        assert by_group[max(by_group)] > 0.999, name
        # Diminishing returns: the first half of the scans recovers most quality.
        assert by_group[5] > by_group[1], name
        assert by_group[max(by_group)] - by_group[5] < by_group[5] - by_group[1] + 0.2, name
