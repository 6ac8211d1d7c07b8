"""Figure 31 — per-scan encoded sizes and reconstruction quality for one image
per dataset (the byte-size annotations under the example images)."""

from __future__ import annotations

from benchmarks.conftest import print_header
from repro.codecs.progressive import ProgressiveCodec, split_scans
from repro.metrics.msssim import ms_ssim
from repro.metrics.psnr import psnr


def test_fig31_per_scan_example_sizes(benchmark, bench_datasets):
    def run():
        per_dataset = {}
        for name, (dataset, spec) in bench_datasets.items():
            stream = next(iter(dataset)).stream
            codec = ProgressiveCodec(quality=spec.jpeg_quality)
            _, scans = split_scans(stream)
            full = codec.decode(stream)
            cumulative = []
            running = 0
            for index in range(len(scans)):
                running += len(scans[index])
                partial = codec.decode(stream, max_scans=index + 1)
                cumulative.append(
                    (running, ms_ssim(full, partial), psnr(full, partial))
                )
            per_dataset[name] = cumulative
        return per_dataset

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 31: cumulative size / quality of one example image per dataset")
    for name, rows in results.items():
        print(f"\n{name}:")
        print(f"{'scan':>5}{'cumulative KiB':>16}{'MSSIM':>9}{'PSNR (dB)':>11}")
        for index, (size, mssim, quality) in enumerate(rows, start=1):
            quality_text = f"{quality:.1f}" if quality != float("inf") else "inf"
            print(f"{index:>5}{size / 1024:>16.2f}{mssim:>9.3f}{quality_text:>11}")

    for name, rows in results.items():
        sizes = [size for size, _, _ in rows]
        mssims = [mssim for _, mssim, _ in rows]
        assert sizes == sorted(sizes), name
        assert mssims[-1] > 0.999, name
        # Diminishing returns: early scans contribute most of the quality.
        assert mssims[4] - mssims[0] > (mssims[-1] - mssims[4]) - 0.05, name
