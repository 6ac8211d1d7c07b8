"""Convert an existing file-per-image dataset into PCR records.

Mirrors the paper's deployment story: you already have a directory of encoded
images (ImageFolder style); one lossless pass over the encoded bytes — no
decode to pixels, no second quantization — produces a PCR dataset that
serves every quality level from a single copy, and this script compares the
cost against re-encoding static copies at several qualities (§A.4, Figure 15).

Run with:  python examples/convert_existing_dataset.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.codecs import BaselineCodec
from repro.codecs.transcode import is_lossless_roundtrip
from repro.core import PCRDataset
from repro.core.convert import build_static_copies, convert_to_pcr
from repro.datasets import CARS_SPEC, generate_dataset
from repro.records import FilePerImageDataset, FilePerImageWriter


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="pcr-convert-"))
    spec = replace(CARS_SPEC, n_samples=48, image_size=48, n_classes=12)

    # Step 1: materialize a "pre-existing" file-per-image dataset.
    print(f"Creating a file-per-image source dataset under {root / 'source'} ...")
    source_writer = FilePerImageWriter(root / "source", quality=spec.jpeg_quality)
    source_writer.write_dataset(generate_dataset(spec, seed=2))
    source = FilePerImageDataset(root / "source")
    print(f"  {len(source)} images, {source.total_bytes()} bytes")

    # Step 2: convert it (lossless transcode + regroup) into PCRs.  The
    # samples carry the files' *bytes*, so convert_to_pcr routes each one
    # through the jpegtran-style transcode: the quantized coefficients are
    # untouched, only the scan structure and entropy coding change.  The
    # samples are a *generator*: convert_to_pcr pulls them in bounded chunks
    # (chunk_size images at a time), so peak memory follows the chunk size
    # even for datasets that never fit in RAM.
    samples = ((item.key, item.read_bytes(), item.label) for item in source)
    result, pcr_report = convert_to_pcr(
        samples,
        root / "pcr",
        images_per_record=16,
        quality=spec.jpeg_quality,
        chunk_size=16,
    )
    print(f"\nPCR conversion: {result.n_records} records, {result.total_bytes} bytes")
    print(
        f"  {pcr_report.n_images} images in {pcr_report.n_chunks} chunks of "
        f"<= {pcr_report.chunk_size}: "
        f"transcode {pcr_report.jpeg_conversion_seconds:.2f} s + "
        f"records {pcr_report.record_creation_seconds:.2f} s = "
        f"{pcr_report.total_seconds:.2f} s "
        f"({pcr_report.images_per_second:.1f} images/s)"
    )

    first = source[0]
    with PCRDataset(root / "pcr", decode=False) as undecoded:
        stored = undecoded.reader.read_sample(first.key, scan_group=undecoded.n_groups)
    print(
        f"  sample {first.key!r}: stored coefficients identical to the source file's: "
        f"{is_lossless_roundtrip(first.read_bytes(), stored.stream)}"
    )

    # Step 3: compare against static multi-quality copies.  This one is a
    # pixel source on purpose: a static copy at another quality genuinely
    # decodes and re-encodes (same streaming converter, one pull of the
    # dataset however many qualities are built; encode_workers=2 runs the
    # encodes on an EncodePool worker fleet — a real speedup on multi-core
    # machines, engine overhead on a single core).
    codec = BaselineCodec(quality=spec.jpeg_quality)
    samples = (
        (item.key, codec.decode(item.read_bytes()), item.label) for item in source
    )
    static_report = build_static_copies(
        samples, root / "static", qualities=(50, 75, 90, 95), chunk_size=16, encode_workers=2
    )
    print(
        f"Static copies at 4 qualities: {static_report.output_bytes} bytes, "
        f"{static_report.total_seconds:.2f} s "
        f"({static_report.images_per_second:.1f} images/s, "
        f"{static_report.output_bytes / result.total_bytes:.1f}x the PCR footprint)"
    )

    # Step 4: use the converted dataset at two different qualities.
    dataset = PCRDataset(root / "pcr", scan_group=2)
    preview = next(iter(dataset))
    print(f"\nReading back sample {preview.key!r} at scan group 2: "
          f"{preview.image.width}x{preview.image.height}, label {preview.label}")
    print(f"Epoch bytes at group 2 vs baseline: {dataset.epoch_bytes()} vs "
          f"{dataset.reader.dataset_bytes_for_group(dataset.n_groups)}")


if __name__ == "__main__":
    main()
