"""Figure 18 — PCR reader microbenchmark: throughput per scan on a SATA SSD.

Left panel: images/second at each scan group when each record read is priced
by Lemma A.1 on a 400 MiB/s SSD (one 80 us setup per read plus bytes over
bandwidth).  Middle panel: throughput predicted purely from the mean size
ratios (Theorem A.5).  Right panel: per-record (batch) read latencies, which
spike as more scans saturate the drive.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import mean_bytes_by_group, print_header
from repro.simulate.throughput import expected_read_seconds, predicted_throughput_by_scan

#: A SATA SSD comparable to the paper's microbenchmark drive: ~400 MiB/s
#: loaded read bandwidth and ~80 us access overhead per read.
SSD_BANDWIDTH_BYTES_PER_SECOND = 400 * 1024 * 1024
SSD_SETUP_SECONDS = 80e-6
INFLATION = 128  # make records large enough for transfer-dominated reads


def _measured_rates(dataset):
    rates = {}
    batch_latencies = {}
    for group in range(1, dataset.n_groups + 1):
        latencies = [
            expected_read_seconds(
                dataset.reader.bytes_for_group(name, group) * INFLATION,
                SSD_BANDWIDTH_BYTES_PER_SECOND,
                1,
                SSD_SETUP_SECONDS,
            )
            for name in dataset.record_names
        ]
        rates[group] = len(dataset) / sum(latencies)
        batch_latencies[group] = float(np.mean(latencies))
    return rates, batch_latencies


def test_fig18_reader_microbenchmark(benchmark, celeba_like):
    dataset, _ = celeba_like

    def run():
        measured, batch_latencies = _measured_rates(dataset)
        sizes = mean_bytes_by_group(dataset)
        predicted = predicted_throughput_by_scan(sizes, measured[dataset.n_groups])
        return measured, predicted, batch_latencies

    measured, predicted, batch_latencies = benchmark(run)

    print_header("Figure 18: reader microbenchmark on a simulated 400 MB/s SSD (CelebA-HQ-like)")
    print(f"{'scan':>5}{'measured img/s':>16}{'predicted img/s':>17}{'batch time (ms)':>17}")
    for group in sorted(measured):
        print(
            f"{group:>5}{measured[group]:>16.0f}{predicted[group]:>17.0f}"
            f"{batch_latencies[group] * 1e3:>17.3f}"
        )
    ratio_1_vs_full = measured[1] / measured[max(measured)]
    print(f"\nscan-1 over full-quality throughput: {ratio_1_vs_full:.1f}x "
          "(paper reports ~7x for ImageNet-scale images)")

    # Measured and size-ratio-predicted throughput agree closely (within 20%),
    # and throughput decreases monotonically with more scans.
    for group in measured:
        assert abs(measured[group] - predicted[group]) / predicted[group] < 0.25
    ordered = [measured[g] for g in sorted(measured)]
    assert all(ordered[i] >= ordered[i + 1] for i in range(len(ordered) - 1))
    assert ratio_1_vs_full > 3.0
    # Batch latencies grow with scan count (latency spikes at high scans).
    assert batch_latencies[max(measured)] > batch_latencies[1]
