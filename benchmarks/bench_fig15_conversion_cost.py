"""Figure 15 — dataset conversion cost: static re-encoding vs one PCR conversion.

Two source scenarios are measured:

* **Already-encoded source (the paper's Figure 15 setup).**  The dataset is
  a directory of baseline JPEGs.  The PCR pipeline is ``convert_to_pcr`` over
  the encoded bytes: a *lossless* transcode (the ``jpegtran`` role — entropy
  decode + entropy re-encode, no DCT or quantization; reported as
  ``jpeg_conversion_seconds``) plus one record conversion
  (``record_creation_seconds``); the static pipeline must fully decode and
  re-encode every image at every quality.  This is where the paper's
  1.13–2.05x time advantage lives, and the assertion pins it.
* **Pixel source.**  The dataset is raw pixels, so *both* pipelines pay a
  forward encode and the comparison is 1 progressive encode vs N sequential
  encodes.  With the batched float32 forward path the per-image encode is
  cheap enough that the N-pass static pipeline is not reliably slower at
  these tiny benchmark sizes — the time ratio is reported, and only the
  space amplification (the claim that holds in every regime) is asserted.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_header
from repro.codecs.baseline import BaselineCodec
from repro.core.convert import build_static_copies, convert_to_pcr
from repro.datasets.registry import IMAGENET_SPEC, generate_dataset
from repro.records.tfrecord import TFRecordWriter

N_SAMPLES = 32
STATIC_QUALITIES = (50, 75, 90, 95)


def _convert_encoded_source(streams, root):
    """The paper's two pipelines over an already-encoded baseline dataset.

    Returns ``(pcr_report, static_seconds, static_bytes)``.
    """
    _, pcr_report = convert_to_pcr(streams, root / "pcr", images_per_record=16, chunk_size=16)

    source_codec = BaselineCodec(quality=90)
    static_seconds = 0.0
    static_bytes = 0
    for quality in STATIC_QUALITIES:
        record_path = root / f"static-q{quality}.tfrecord"
        codec = BaselineCodec(quality=quality)
        start = time.perf_counter()
        with TFRecordWriter(record_path) as record_writer:
            for key, payload, label in streams:
                record_writer.add_sample(key, codec.encode(source_codec.decode(payload)), label)
        static_seconds += time.perf_counter() - start
        static_bytes += record_path.stat().st_size
    return pcr_report, static_seconds, static_bytes


def test_fig15_conversion_times(benchmark, tmp_path_factory):
    from dataclasses import replace

    spec = replace(IMAGENET_SPEC, n_samples=N_SAMPLES, image_size=48)
    samples = list(generate_dataset(spec, seed=7))
    source_codec = BaselineCodec(quality=90)
    encoded = [(key, source_codec.encode(image), label) for key, image, label in samples]

    def run():
        # Both pixel-source converters stream the samples in bounded chunks
        # through the batched float32 forward path (see repro.core.convert);
        # a chunk smaller than the dataset keeps the streaming loop itself
        # on the measured path.
        root = tmp_path_factory.mktemp("fig15")
        _, pcr_report = convert_to_pcr(
            samples, root / "pcr", images_per_record=16, chunk_size=16
        )
        static_report = build_static_copies(
            samples, root / "static", qualities=STATIC_QUALITIES, chunk_size=16
        )
        encoded_root = tmp_path_factory.mktemp("fig15-encoded")
        encoded_result = _convert_encoded_source(encoded, encoded_root)
        return pcr_report, static_report, encoded_result

    pcr_report, static_report, encoded_result = benchmark.pedantic(run, rounds=1, iterations=1)
    enc_pcr_report, enc_static_s, enc_static_bytes = encoded_result
    enc_pcr_s, enc_pcr_bytes = enc_pcr_report.total_seconds, enc_pcr_report.output_bytes

    print_header("Figure 15: conversion cost, static multi-quality copies vs PCR")
    print("pixel source (both pipelines pay a forward encode):")
    print(
        f"{'approach':<10}{'jpeg conv (s)':>15}{'record create (s)':>19}"
        f"{'total (s)':>11}{'images/s':>10}{'bytes':>12}"
    )
    for report in (static_report, pcr_report):
        print(
            f"{report.approach:<10}{report.jpeg_conversion_seconds:>15.2f}"
            f"{report.record_creation_seconds:>19.2f}{report.total_seconds:>11.2f}"
            f"{report.images_per_second:>10.1f}{report.output_bytes:>12}"
        )
    print("\nper-copy sizes (static):")
    for name, size in static_report.per_copy_bytes.items():
        print(f"  {name:<6}{size:>10} bytes")
    ratio = static_report.total_seconds / pcr_report.total_seconds
    print(f"static/PCR total-time ratio: {ratio:.2f}x "
          "(informational: the fused forward path makes both pipelines encode-cheap)")
    print("\nalready-encoded source (the paper's setup — lossless transcode vs re-encode):")
    print(
        f"{'pcr':<10}{enc_pcr_s:>11.2f} s{enc_pcr_bytes:>12} bytes "
        f"(transcode {enc_pcr_report.jpeg_conversion_seconds:.2f} s + "
        f"records {enc_pcr_report.record_creation_seconds:.2f} s)"
    )
    print(f"{'static':<10}{enc_static_s:>11.2f} s{enc_static_bytes:>12} bytes")
    print(f"static/PCR total-time ratio: {enc_static_s / enc_pcr_s:.2f}x "
          "(paper: PCR is 1.13-2.05x cheaper than the summed static encodings)")

    # The paper's Figure 15 claim: converting an existing JPEG dataset to
    # PCR (lossless transcode) is cheaper than producing all four static
    # copies (decode + re-encode per quality), and takes far fewer bytes.
    assert enc_static_s > enc_pcr_s
    assert enc_static_bytes > 2 * enc_pcr_bytes
    # In every regime the static copies pay the space amplification.
    assert static_report.output_bytes > 2 * pcr_report.output_bytes
