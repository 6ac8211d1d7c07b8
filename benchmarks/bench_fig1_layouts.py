"""Figure 1 — access behaviour of File-per-Image, record, and PCR layouts.

Prices one epoch's reads on the paper's HDD with Lemma A.1: each read costs
one setup (seek + rotation) plus its bytes over the bandwidth.
File-per-Image issues one read per sample; record layouts read whole
records; PCRs read record *prefixes*.
"""

from __future__ import annotations

from benchmarks.conftest import HDD_BANDWIDTH_BYTES_PER_SECOND, HDD_SETUP_SECONDS, print_header
from repro.simulate.throughput import expected_read_seconds


#: The benchmark datasets are tiny; real records are tens of megabytes.  The
#: sizes are inflated so transfer time (not per-operation seek cost) dominates,
#: which is the regime the paper's storage cluster operates in.
INFLATION = 2048


def _layout_costs(dataset, spec, scan_group: int):
    """(seconds, reads) of one epoch under each of the three layouts."""
    reader = dataset.reader
    record_sizes = [
        reader.record_index(name).total_bytes * INFLATION for name in dataset.record_names
    ]
    prefix_sizes = [
        reader.bytes_for_group(name, scan_group) * INFLATION for name in dataset.record_names
    ]
    per_image_bytes = max(1, record_sizes[0] // spec.images_per_record)
    reads = {
        "file_per_image": [per_image_bytes] * len(dataset),
        "record": record_sizes,  # always full quality
        "pcr": prefix_sizes,  # up to the requested scan group
    }
    return {
        layout: (
            sum(
                expected_read_seconds(n_bytes, HDD_BANDWIDTH_BYTES_PER_SECOND, 1, HDD_SETUP_SECONDS)
                for n_bytes in sizes
            ),
            len(sizes),
        )
        for layout, sizes in reads.items()
    }


def test_fig1_layout_read_behaviour(benchmark, imagenet_like):
    dataset, spec = imagenet_like
    results = benchmark(_layout_costs, dataset, spec, 2)

    print_header("Figure 1: simulated HDD epoch read cost by layout (scan group 2 for PCR)")
    print(f"{'layout':<18}{'read time (ms)':>16}{'reads':>8}")
    for layout, (seconds, reads) in results.items():
        print(f"{layout:<18}{seconds * 1e3:>16.2f}{reads:>8}")

    fpi_time, _ = results["file_per_image"]
    rec_time, _ = results["record"]
    pcr_time, _ = results["pcr"]
    # Record layouts beat file-per-image; PCR prefix reads beat full records.
    assert rec_time < fpi_time
    assert pcr_time < rec_time
