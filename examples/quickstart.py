"""Quickstart: build a PCR dataset, read it at several qualities, switch at runtime.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import PCRDataset
from repro.datasets import IMAGENET_SPEC, generate_dataset
from repro.metrics import ms_ssim
from repro.codecs import ProgressiveCodec


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="pcr-quickstart-"))
    print(f"Building a small ImageNet-like PCR dataset in {workdir} ...")

    from dataclasses import replace

    spec = replace(IMAGENET_SPEC, n_samples=64, image_size=48, n_classes=8, images_per_record=16)
    dataset = PCRDataset.build(
        generate_dataset(spec, seed=0),
        workdir,
        images_per_record=spec.images_per_record,
        quality=spec.jpeg_quality,
    )
    print(f"  {len(dataset)} samples in {len(dataset.record_names)} records, "
          f"{dataset.n_groups} scan groups\n")

    print("Bytes one epoch reads at each scan group (the PCR partial-read knob):")
    for group, total in dataset.epoch_bytes_by_group().items():
        print(f"  scan group {group:>2}: {total:>8} bytes")

    codec = ProgressiveCodec(quality=spec.jpeg_quality)
    reference = next(iter(dataset))  # the dataset's default: full quality
    print("\nReconstruction quality (MSSIM vs full quality) for one sample:")
    for group in (1, 2, 5, 10):
        partial = codec.decode(reference.stream, max_scans=group)
        full = codec.decode(reference.stream)
        print(f"  scan group {group:>2}: MSSIM = {ms_ssim(full, partial):.3f}")

    print("\nQuality is an argument of each read — no re-encoding, no copies:")
    low_bytes = dataset.epoch_bytes(2)
    full_bytes = dataset.epoch_bytes(10)
    print(f"  scan group 2 epoch = {low_bytes} bytes, "
          f"baseline epoch = {full_bytes} bytes "
          f"({full_bytes / low_bytes:.1f}x bandwidth saving)")


if __name__ == "__main__":
    main()
