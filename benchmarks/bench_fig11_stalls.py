"""Figure 11 — per-iteration data-stall timeline by scan group.

Charges each record read of a PCR dataset its HDD time by Lemma A.1 (one
setup per read plus bytes over bandwidth) against a fixed compute time, and
reports the stall fraction per scan group (full-quality reads stall the
consumer more than scan-group-1 reads on the same device).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import HDD_BANDWIDTH_BYTES_PER_SECOND, HDD_SETUP_SECONDS, print_header
from repro.simulate.throughput import expected_read_seconds

#: Inflate record sizes so the HDD transfer time dominates seeks.
INFLATION = 256
#: Consumer compute time per record (a fast model, so the pipeline is I/O bound).
COMPUTE_SECONDS_PER_RECORD = 0.02


def _stall_timeline(dataset, scan_group: int, n_iterations: int = 24):
    waits = []
    prefetched = 0.0  # seconds of data the loader is ahead by
    for iteration in range(n_iterations):
        name = dataset.record_names[iteration % len(dataset.record_names)]
        length = dataset.reader.bytes_for_group(name, scan_group) * INFLATION
        load_latency = expected_read_seconds(
            length, HDD_BANDWIDTH_BYTES_PER_SECOND, 1, HDD_SETUP_SECONDS
        )
        # The loader works in parallel with compute: it had COMPUTE seconds of
        # headroom from the previous iteration.
        stall = max(0.0, load_latency - COMPUTE_SECONDS_PER_RECORD - prefetched)
        prefetched = max(0.0, prefetched + COMPUTE_SECONDS_PER_RECORD - load_latency)
        waits.append(stall)
    return waits


def test_fig11_data_stall_timeline(benchmark, ham_like):
    dataset, _ = ham_like

    def run():
        return {group: _stall_timeline(dataset, group) for group in (1, 2, 5, 10)}

    timelines = benchmark(run)

    print_header("Figure 11: simulated data-stall time per iteration (seconds)")
    print(f"{'group':>6}{'mean stall':>12}{'max stall':>12}{'stalled iters':>15}")
    for group, waits in timelines.items():
        print(
            f"{group:>6}{np.mean(waits):>12.4f}{np.max(waits):>12.4f}"
            f"{sum(1 for w in waits if w > 1e-4):>15}"
        )

    # Lower scan groups produce lower-magnitude stalls.
    assert np.mean(timelines[1]) < np.mean(timelines[5]) <= np.mean(timelines[10]) + 1e-9
    assert np.max(timelines[10]) > np.max(timelines[1])
