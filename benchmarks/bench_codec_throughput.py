"""Codec throughput: vectorized fast paths vs scalar references.

Measures MB/s (of compressed stream bytes) for the entropy-coding layer —
``encode_coefficients`` / ``decode_coefficients`` — per scan group and for
the full 10-scan progressive stream, with the fast path on and off, plus
the full image pipeline (DCT + color + entropy), a per-stage decode
breakdown (entropy / fused dequantize+IDCT / colour+pack), and the
minibatch decode API.  Results are written to ``BENCH_codec.json`` so the
performance trajectory of the codec is recorded PR over PR.

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_codec_throughput.py
    PYTHONPATH=src python benchmarks/bench_codec_throughput.py --quick

or through pytest (smoke assertions only, no JSON):

    PYTHONPATH=src python -m pytest benchmarks/bench_codec_throughput.py -q

The baseline is ``scalar`` — the in-repo scalar reference
(``use_fastpath(False)``).  It shares the word-buffered bit I/O with the
fast path, so it is already faster than the v0 seed's per-bit coder; that
coder's last recorded rows are carried in the ``seed_baseline`` block of the
JSON, frozen (see ``SEED_BASELINE``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.codecs import config
from repro.codecs.progressive import (
    ScanScript,
    assemble_partial_stream,
    decode_coefficients,
    encode_coefficients,
    image_to_coefficients,
    split_scans,
)
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec

DEFAULT_IMAGE_SIZE = 128
DEFAULT_N_IMAGES = 4
DEFAULT_QUALITY = 90
DEFAULT_TRIALS = 5

_MB = 1024.0 * 1024.0


#: The v0 seed's entropy coder (per-bit ``BitReader``/``BitWriter`` driving
#: the same dict-probe Huffman decode), as last measured by the seed-faithful
#: reimplementation this file carried until PR 13: default workload, 1 CPU,
#: byte-identical streams and coefficients asserted before timing.  The code
#: is gone, so these rows can no longer be re-measured — they anchor how far
#: the codec has come, and are copied into the JSON unchanged.
SEED_BASELINE = {
    "frozen": True,
    "recorded_at": "PR 10 (2cfd65c), 4 x 128px synthetic, quality 90, 1 cpu",
    "entropy_encode": {"seed_mb_per_s": 0.407},
    "entropy_decode_full": {"seed_mb_per_s": 0.336},
}


def _throughput_pair(fn, total_bytes: int, trials: int) -> dict:
    """Measure ``fn`` with the fast path on and off; returns MB/s + speedups.

    Fast and scalar trials are interleaved and the best sample of each is
    kept, so background-load drift during the run cannot systematically
    favour one side.
    """
    with config.use_fastpath(True):
        fn()  # warm LUT/table caches outside the timed region
    fast_seconds = float("inf")
    scalar_seconds = float("inf")
    for _ in range(trials):
        with config.use_fastpath(True):
            start = time.perf_counter()
            fn()
            fast_seconds = min(fast_seconds, time.perf_counter() - start)
        with config.use_fastpath(False):
            start = time.perf_counter()
            fn()
            scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    return {
        "fast_mb_per_s": round(total_bytes / _MB / fast_seconds, 3),
        "scalar_mb_per_s": round(total_bytes / _MB / scalar_seconds, 3),
        "speedup_vs_scalar": round(scalar_seconds / fast_seconds, 2),
    }


def _stage_pair(fast_fn, scalar_fn, total_bytes: int, trials: int) -> dict:
    """Time path-specific stage callables (no fastpath toggling needed).

    Same interleaved best-of-N discipline as :func:`_throughput_pair`; the
    callables themselves already embody the fast/scalar implementations.
    """
    fast_fn()  # warm caches / scratch outside the timed region
    scalar_fn()
    fast_seconds = float("inf")
    scalar_seconds = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        fast_fn()
        fast_seconds = min(fast_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        scalar_fn()
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    return {
        "fast_mb_per_s": round(total_bytes / _MB / fast_seconds, 3),
        "scalar_mb_per_s": round(total_bytes / _MB / scalar_seconds, 3),
        "speedup_vs_scalar": round(scalar_seconds / fast_seconds, 2),
    }


def _entropy_decode_rows(streams: list[bytes], n_scans: int, trials: int) -> dict:
    """`entropy_decode_full` + `entropy_decode_by_scan_group`: fast vs scalar.

    Coefficient identity of the fast tier against the scalar reference is
    asserted on the full streams before anything is timed; the
    per-scan-group rows (identity policy: group k == first k scans) make
    the win attributable per scan shape (DC-heavy early groups vs
    AC-band-dominated late ones).  `entropy_decode_full.fast_mb_per_s` is
    the statistic the CI entropy gate reads.
    """
    import numpy as np

    with config.use_fastpath(False):
        reference = [decode_coefficients(s)[0] for s in streams]
    with config.use_fastpath(True):
        for stream, ref in zip(streams, reference):
            decoded, _ = decode_coefficients(stream)
            for plane, ref_plane in zip(decoded.planes, ref.planes):
                assert np.array_equal(plane, ref_plane), (
                    "fast entropy tier diverged from the scalar reference"
                )
    full = _throughput_pair(
        lambda: [decode_coefficients(s) for s in streams],
        sum(len(s) for s in streams),
        trials,
    )
    split = [split_scans(s) for s in streams]
    by_group = {}
    for group in range(1, n_scans + 1):
        prefixes = [
            assemble_partial_stream(prefix, scans[:group]) for prefix, scans in split
        ]
        prefix_bytes = sum(len(p) for p in prefixes)
        entry = _throughput_pair(
            lambda prefixes=prefixes: [decode_coefficients(p) for p in prefixes],
            prefix_bytes,
            trials,
        )
        entry["prefix_bytes_mean"] = round(prefix_bytes / len(streams), 1)
        by_group[str(group)] = entry
    return {"entropy_decode_full": full, "entropy_decode_by_scan_group": by_group}


def _synthetic_workload(image_size: int, n_images: int, quality: int):
    """The benchmark's images, their coefficient planes, scan script and streams."""
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=image_size), seed=1
    )
    images = [generator.generate(i % 4, sample_seed=i) for i in range(n_images)]
    planes = [image_to_coefficients(image, quality) for image in images]
    script = ScanScript.default_for(3)
    streams = [encode_coefficients(p, script) for p in planes]
    return images, planes, script, streams


def run_benchmark(
    image_size: int = DEFAULT_IMAGE_SIZE,
    n_images: int = DEFAULT_N_IMAGES,
    quality: int = DEFAULT_QUALITY,
    trials: int = DEFAULT_TRIALS,
    parallel_workers: tuple[int, ...] = (2, 4),
) -> dict:
    """Run all codec throughput measurements and return the results dict."""
    images, planes, script, streams = _synthetic_workload(image_size, n_images, quality)
    stream_bytes = sum(len(s) for s in streams)

    results: dict = {
        "workload": {
            "dataset": "synthetic (frequency-controlled classes)",
            "n_images": n_images,
            "image_size": image_size,
            "quality": quality,
            "n_scans": len(script),
            "mean_stream_bytes": round(stream_bytes / n_images, 1),
            "trials": trials,
            # Parallel-decode scaling is bounded by physical cores: a
            # worker count above cpu_count documents overhead, not speedup.
            "cpu_count": os.cpu_count(),
        }
    }

    # Entropy layer: coefficient planes <-> compressed stream.
    results["entropy_encode"] = _throughput_pair(
        lambda: [encode_coefficients(p, script) for p in planes],
        stream_bytes,
        trials,
    )
    results.update(_entropy_decode_rows(streams, len(script), trials))

    # Full pipeline (image <-> stream).  Decode runs the batched float32
    # pixel path (fused dequantize+IDCT, strided merge, single-matmul
    # colour); the remaining gap to the entropy-only rows is the sequential
    # per-symbol Huffman loop, quantified by the stage breakdown below.
    from repro.codecs.progressive import ProgressiveCodec, decode_progressive_batch

    codec = ProgressiveCodec(quality=quality)
    results["pipeline_encode"] = _throughput_pair(
        lambda: [codec.encode(image) for image in images], stream_bytes, trials
    )
    # Per-image loop and minibatch API are timed inside the *same* trial
    # loop (all four variants interleaved) so slow drift in background load
    # cannot make one row look faster than the other.
    timings = {"fast_loop": float("inf"), "fast_batch": float("inf"),
               "scalar_loop": float("inf"), "scalar_batch": float("inf")}
    with config.use_fastpath(True):
        [codec.decode(s) for s in streams]  # warm caches/scratch
        decode_progressive_batch(streams)
    for _ in range(trials):
        with config.use_fastpath(True):
            start = time.perf_counter()
            [codec.decode(s) for s in streams]
            timings["fast_loop"] = min(timings["fast_loop"], time.perf_counter() - start)
            start = time.perf_counter()
            decode_progressive_batch(streams)
            timings["fast_batch"] = min(timings["fast_batch"], time.perf_counter() - start)
        with config.use_fastpath(False):
            start = time.perf_counter()
            [codec.decode(s) for s in streams]
            timings["scalar_loop"] = min(timings["scalar_loop"], time.perf_counter() - start)
            start = time.perf_counter()
            decode_progressive_batch(streams)
            timings["scalar_batch"] = min(timings["scalar_batch"], time.perf_counter() - start)
    results["pipeline_decode"] = {
        "fast_mb_per_s": round(stream_bytes / _MB / timings["fast_loop"], 3),
        "scalar_mb_per_s": round(stream_bytes / _MB / timings["scalar_loop"], 3),
        "speedup_vs_scalar": round(timings["scalar_loop"] / timings["fast_loop"], 2),
    }
    results["pipeline_decode_batch"] = {
        "fast_mb_per_s": round(stream_bytes / _MB / timings["fast_batch"], 3),
        "scalar_mb_per_s": round(stream_bytes / _MB / timings["scalar_batch"], 3),
        "speedup_vs_scalar": round(timings["scalar_batch"] / timings["fast_batch"], 2),
        "speedup_vs_per_image_loop": round(timings["fast_loop"] / timings["fast_batch"], 2),
    }

    results["decode_stages"] = _decode_stages_section(
        streams, stream_bytes, trials, results["entropy_decode_full"]
    )

    # Process-parallel decode engine: the same minibatch through a
    # DecodePool at several worker counts, against the in-process batch
    # decoder.  Decode is >90% entropy-bound, so on a multi-core machine
    # MB/s scales with workers until cores (or slab/queue overhead at these
    # small batches) saturate; on a single-core machine the rows document
    # the engine's overhead instead (see `workload.cpu_count`).
    if parallel_workers:
        results["decode_parallel"] = _parallel_section(
            streams, stream_bytes, trials, parallel_workers, timings["fast_batch"]
        )

    # Ingest direction: the batched float32 forward encode path (parity
    # asserted within the documented budget before timing) and the
    # EncodePool, in images/s and uncompressed pixel MB/s.
    results["ingest_throughput"] = _ingest_section(
        images, quality, trials, parallel_workers or (2,)
    )

    # Observability overhead: the same minibatch decode with the metrics
    # registry enabled (the default) vs disabled.  The registry is the only
    # obs hook on this path when tracing is off (the tracer's disabled
    # branch is part of both sides), so the delta bounds the cost of
    # always-on metrics.
    results["obs_overhead"] = _obs_overhead_section(streams, stream_bytes, trials)
    results["seed_baseline"] = SEED_BASELINE
    return results


def _decode_stages_section(
    streams: list[bytes], stream_bytes: int, trials: int, entropy_row: dict
) -> dict:
    """`decode_stages` rows: the per-stage decode breakdown.

    Each stage row times one stage in isolation on precomputed inputs (fast
    = float32 pixelpath kernels, scalar = float64 reference stages).
    ``entropy_row`` is the ``entropy_decode_full`` row for the same streams;
    `pct_of_fast_decode` situates the stages inside the fast end-to-end
    decode so the remaining bottleneck is explicit.
    """
    import numpy as np

    from repro.codecs.blocks import block_grid_shape, merge_blocks
    from repro.codecs.color import upsample_420, ycbcr_to_rgb
    from repro.codecs.dct import inverse_dct_blocks
    from repro.codecs.image import ImageBuffer
    from repro.codecs.markers import SUBSAMPLING_420
    from repro.codecs.pixelpath import (
        PixelScratch,
        channels_to_pixels,
        component_channels,
        decode_to_pixels,
    )
    from repro.codecs.quantization import dequantize
    from repro.codecs.zigzag import N_COEFFICIENTS, zigzag_to_blocks

    with config.use_fastpath(True):
        planes_full = [decode_coefficients(s)[0] for s in streams]
    scratch = PixelScratch()

    def scalar_dequant_idct(coefficients):
        header = coefficients.header
        channels = []
        for index, plane in enumerate(coefficients.planes):
            comp_h, comp_w = header.component_shape(index)
            nv, nh = block_grid_shape(comp_h, comp_w)
            blocks = zigzag_to_blocks(plane.reshape(nv, nh, N_COEFFICIENTS))
            dequantized = dequantize(blocks, header.quant_tables.table_for_component(index))
            channels.append(merge_blocks(inverse_dct_blocks(dequantized), comp_h, comp_w))
        return channels

    def scalar_color_pack(header, channels):
        if header.n_components == 1:
            return ImageBuffer.from_array(channels[0])
        if header.subsampling == SUBSAMPLING_420:
            cb = upsample_420(channels[1], header.height, header.width)
            cr = upsample_420(channels[2], header.height, header.width)
        else:
            cb, cr = channels[1], channels[2]
        ycc = np.stack([channels[0], cb, cr], axis=-1)
        return ImageBuffer.from_array(ycbcr_to_rgb(ycc))

    # The two scalar stage callables are a stage-split copy of the library's
    # scalar reference; assert they still compose to it so a change to the
    # real scalar path cannot silently leave these rows timing a stale copy.
    from repro.codecs.progressive import _coefficients_to_image_scalar

    for c in planes_full:
        staged = scalar_color_pack(c.header, scalar_dequant_idct(c))
        assert np.array_equal(staged.pixels, _coefficients_to_image_scalar(c).pixels), (
            "benchmark scalar stage split has drifted from _coefficients_to_image_scalar"
        )

    fast_channels = [component_channels(c, PixelScratch()) for c in planes_full]
    scalar_channels = [scalar_dequant_idct(c) for c in planes_full]
    stages = {
        "entropy_decode": dict(entropy_row),
        "dequant_idct_merge": _stage_pair(
            lambda: [component_channels(c, scratch) for c in planes_full],
            lambda: [scalar_dequant_idct(c) for c in planes_full],
            stream_bytes,
            trials,
        ),
        "color_upsample_pack": _stage_pair(
            lambda: [
                channels_to_pixels(c.header, chans, scratch)
                for c, chans in zip(planes_full, fast_channels)
            ],
            lambda: [
                scalar_color_pack(c.header, chans)
                for c, chans in zip(planes_full, scalar_channels)
            ],
            stream_bytes,
            trials,
        ),
        "pixel_decode": _stage_pair(
            lambda: [decode_to_pixels(c, scratch) for c in planes_full],
            lambda: [_coefficients_to_image_scalar(c) for c in planes_full],
            stream_bytes,
            trials,
        ),
    }
    # Situate the stages inside one fast end-to-end decode.
    entropy_seconds = 1.0 / stages["entropy_decode"]["fast_mb_per_s"]
    pixel_seconds = 1.0 / stages["pixel_decode"]["fast_mb_per_s"]
    total_seconds = entropy_seconds + pixel_seconds
    stages["entropy_decode"]["pct_of_fast_decode"] = round(
        100.0 * entropy_seconds / total_seconds, 1
    )
    stages["pixel_decode"]["pct_of_fast_decode"] = round(
        100.0 * pixel_seconds / total_seconds, 1
    )
    return stages


def _obs_overhead_section(streams: list[bytes], stream_bytes: int, trials: int) -> dict:
    """`obs_overhead` row: instrumented vs uninstrumented decode throughput."""
    from repro.codecs.progressive import decode_progressive_batch
    from repro.obs import get_registry

    registry = get_registry()
    was_enabled = registry.enabled
    with config.use_fastpath(True):
        decode_progressive_batch(streams)  # warm caches outside the timed region
        enabled_seconds = float("inf")
        disabled_seconds = float("inf")
        try:
            # Interleaved best-of-N, like every other pair in this file, so
            # background-load drift cannot favour one side.
            for _ in range(max(trials, 5)):
                registry.set_enabled(True)
                start = time.perf_counter()
                decode_progressive_batch(streams)
                enabled_seconds = min(enabled_seconds, time.perf_counter() - start)
                registry.set_enabled(False)
                start = time.perf_counter()
                decode_progressive_batch(streams)
                disabled_seconds = min(disabled_seconds, time.perf_counter() - start)
        finally:
            registry.set_enabled(was_enabled)
    return {
        "instrumented_mb_per_s": round(stream_bytes / _MB / enabled_seconds, 3),
        "uninstrumented_mb_per_s": round(stream_bytes / _MB / disabled_seconds, 3),
        "overhead_pct": round(
            100.0 * (enabled_seconds - disabled_seconds) / disabled_seconds, 2
        ),
    }


def _parallel_section(
    streams: list[bytes],
    stream_bytes: int,
    trials: int,
    worker_counts: tuple[int, ...],
    inprocess_seconds: float,
) -> dict:
    """`decode_parallel` rows: DecodePool MB/s and scaling vs in-process."""
    import numpy as np

    from repro.codecs.parallel import DecodePool
    from repro.codecs.progressive import decode_progressive_batch

    section: dict = {
        "inprocess_batch_mb_per_s": round(stream_bytes / _MB / inprocess_seconds, 3),
        "batch_streams": len(streams),
        "workers": {},
    }
    reference = decode_progressive_batch(streams)
    for n_workers in worker_counts:
        with DecodePool(n_workers) as pool:
            decoded = pool.decode_batch(streams)  # warm workers + slab
            for ref, out in zip(reference, decoded):
                assert np.array_equal(ref.pixels, out.pixels), "parallel decode diverged"
            best = float("inf")
            for _ in range(trials):
                start = time.perf_counter()
                pool.decode_batch(streams)
                best = min(best, time.perf_counter() - start)
            section["workers"][str(n_workers)] = {
                "mb_per_s": round(stream_bytes / _MB / best, 3),
                "speedup_vs_inprocess_batch": round(inprocess_seconds / best, 2),
                "byte_identical": True,
                "fallback_batches": pool.stats.fallback_batches,
            }
    return section


def _ingest_section(
    images: list, quality: int, trials: int, pool_workers: tuple[int, ...] = (2,)
) -> dict:
    """`ingest_throughput` rows: forward encode, scalar vs fused vs pooled.

    Parity is asserted *before* anything is timed: every fused coefficient
    plane must sit within the documented error budget of the scalar float64
    reference (±1 quant step, mismatch rate <= ``MAX_MISMATCH_RATE`` over
    the workload — see :mod:`repro.codecs.encodepath`), and every
    :class:`EncodePool` row must return streams identical to the in-process
    fused batch.  Throughput is reported in images/s and uncompressed pixel
    MB/s (ingest cost scales with pixels in, not stream bytes out), with the
    interleaved best-of-N discipline of every other section.
    """
    import numpy as np

    from repro.codecs.encodepath import MAX_MISMATCH_RATE
    from repro.codecs.parallel import EncodePool
    from repro.codecs.progressive import ProgressiveCodec, encode_progressive_batch

    n_images = len(images)
    pixel_bytes = sum(image.pixels.nbytes for image in images)

    # -- parity gate (before timing) --------------------------------------
    total = 0
    mismatched = 0
    max_delta = 0
    for image in images:
        with config.use_fastpath(True):
            fast = image_to_coefficients(image, quality)
        with config.use_fastpath(False):
            scalar = image_to_coefficients(image, quality)
        for fast_plane, scalar_plane in zip(fast.planes, scalar.planes):
            delta = np.abs(fast_plane.astype(np.int64) - scalar_plane.astype(np.int64))
            max_delta = max(max_delta, int(delta.max(initial=0)))
            total += delta.size
            mismatched += int(np.count_nonzero(delta))
    mismatch_rate = mismatched / total
    assert max_delta <= 1, "fused forward path exceeded the ±1-quant-step budget"
    assert mismatch_rate <= MAX_MISMATCH_RATE, (
        f"fused forward mismatch rate {mismatch_rate:.2e} exceeds budget "
        f"{MAX_MISMATCH_RATE:.0e}"
    )

    codec = ProgressiveCodec(quality=quality)
    with config.use_fastpath(True):
        fused_streams = encode_progressive_batch(images, quality=quality)  # warm
    timings = {
        "fused_batch": float("inf"),
        "fused_loop": float("inf"),
        "scalar_loop": float("inf"),
    }
    for _ in range(trials):
        with config.use_fastpath(True):
            start = time.perf_counter()
            encode_progressive_batch(images, quality=quality)
            timings["fused_batch"] = min(
                timings["fused_batch"], time.perf_counter() - start
            )
            start = time.perf_counter()
            [codec.encode(image) for image in images]
            timings["fused_loop"] = min(
                timings["fused_loop"], time.perf_counter() - start
            )
        with config.use_fastpath(False):
            start = time.perf_counter()
            [codec.encode(image) for image in images]
            timings["scalar_loop"] = min(
                timings["scalar_loop"], time.perf_counter() - start
            )

    def _rate_row(seconds: float) -> dict:
        return {
            "images_per_s": round(n_images / seconds, 2),
            "pixel_mb_per_s": round(pixel_bytes / _MB / seconds, 3),
        }

    section: dict = {
        "parity": {
            "checked_before_timing": True,
            "max_step_delta": max_delta,
            "mismatch_rate": round(mismatch_rate, 8),
            "budget_rate": MAX_MISMATCH_RATE,
        },
        "scalar": _rate_row(timings["scalar_loop"]),
        "fused": {
            **_rate_row(timings["fused_loop"]),
            "speedup_vs_scalar": round(
                timings["scalar_loop"] / timings["fused_loop"], 2
            ),
        },
        "fused_batch": {
            **_rate_row(timings["fused_batch"]),
            "speedup_vs_scalar": round(
                timings["scalar_loop"] / timings["fused_batch"], 2
            ),
            "speedup_vs_per_image_loop": round(
                timings["fused_loop"] / timings["fused_batch"], 2
            ),
        },
        "workers": {},
    }
    # EncodePool rows: identity-checked against the fused batch, then timed.
    # On a single-core runner these document the engine's slab/queue/fork
    # overhead rather than speedup (see `workload.cpu_count`).
    for n_workers in pool_workers:
        with EncodePool(n_workers) as pool:
            out = pool.encode_batch(images, quality=quality)  # warm workers + slab
            assert out == fused_streams, "pooled encode diverged from in-process"
            best = float("inf")
            for _ in range(trials):
                start = time.perf_counter()
                pool.encode_batch(images, quality=quality)
                best = min(best, time.perf_counter() - start)
            section["workers"][str(n_workers)] = {
                **_rate_row(best),
                "speedup_vs_inprocess_batch": round(timings["fused_batch"] / best, 2),
                "identical": True,
                "fallback_batches": pool.stats.fallback_batches,
            }
    return section


def run_ingest_benchmark(
    image_size: int = DEFAULT_IMAGE_SIZE,
    n_images: int = DEFAULT_N_IMAGES,
    quality: int = DEFAULT_QUALITY,
    trials: int = DEFAULT_TRIALS,
    pool_workers: tuple[int, ...] = (2,),
) -> dict:
    """Ingest-layer measurements only (the `--ingest-only` mode).

    Same workload construction as :func:`run_benchmark` so the rows are
    directly comparable to the committed ``BENCH_codec.json``; used by the
    CI ingest-throughput regression gate.
    """
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=image_size), seed=1
    )
    images = [generator.generate(i % 4, sample_seed=i) for i in range(n_images)]
    return {
        "workload": {
            "dataset": "synthetic (frequency-controlled classes)",
            "n_images": n_images,
            "image_size": image_size,
            "quality": quality,
            "trials": trials,
            "cpu_count": os.cpu_count(),
        },
        "ingest_throughput": _ingest_section(images, quality, trials, pool_workers),
    }


def check_ingest_gate(
    results: dict, baseline_path: str, max_drop_pct: float
) -> tuple[bool, str]:
    """Compare measured ingest images/s against a committed baseline.

    Returns ``(ok, message)``.  The gated statistic is the fused in-process
    batch-encode rate (the pool rows depend on the runner's core count).  A
    baseline without an ``ingest_throughput`` section passes trivially — the
    first run on a new baseline records it.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    if "ingest_throughput" not in baseline:
        return True, "baseline has no ingest_throughput section yet"
    reference = baseline["ingest_throughput"]["fused_batch"]["images_per_s"]
    measured = results["ingest_throughput"]["fused_batch"]["images_per_s"]
    floor = reference * (1.0 - max_drop_pct / 100.0)
    message = (
        f"ingest encode {measured:.2f} images/s vs committed baseline "
        f"{reference:.2f} images/s (floor {floor:.2f} at -{max_drop_pct:.0f}%)"
    )
    return measured >= floor, message


def print_ingest_report(results: dict) -> None:
    workload = results["workload"]
    section = results["ingest_throughput"]
    parity = section["parity"]
    print("-" * 74)
    print(
        f"ingest encode — {workload['n_images']} x {workload['image_size']}px "
        f"synthetic, quality {workload['quality']} "
        f"(parity: max Δ {parity['max_step_delta']} step, "
        f"rate {parity['mismatch_rate']:.1e} <= {parity['budget_rate']:.0e})"
    )
    for key, label in [
        ("scalar", "scalar float64 loop"),
        ("fused", "fused float32 loop"),
        ("fused_batch", "fused batch API"),
    ]:
        row = section[key]
        speedup = (
            f"   {row['speedup_vs_scalar']:.2f}x vs scalar"
            if "speedup_vs_scalar" in row
            else ""
        )
        print(
            f"  {label:30s} {row['images_per_s']:8.2f} images/s   "
            f"{row['pixel_mb_per_s']:7.2f} pixel MB/s{speedup}"
        )
    for n_workers, row in section["workers"].items():
        print(
            f"  EncodePool, {n_workers} worker(s)        {row['images_per_s']:8.2f} "
            f"images/s   {row['pixel_mb_per_s']:7.2f} pixel MB/s   "
            f"{row['speedup_vs_inprocess_batch']:.2f}x vs in-process "
            f"({workload.get('cpu_count', '?')} cpu(s))"
        )


def run_entropy_benchmark(
    image_size: int = DEFAULT_IMAGE_SIZE,
    n_images: int = DEFAULT_N_IMAGES,
    quality: int = DEFAULT_QUALITY,
    trials: int = DEFAULT_TRIALS,
) -> dict:
    """Entropy-layer measurements only (the `--entropy-only` mode).

    Same workload construction as :func:`run_benchmark` so the rows are
    directly comparable to the committed ``BENCH_codec.json``; used by the
    CI entropy-throughput regression gate, where the pixel/parallel/obs
    sections would only add runtime and noise.
    """
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=image_size), seed=1
    )
    images = [generator.generate(i % 4, sample_seed=i) for i in range(n_images)]
    planes = [image_to_coefficients(image, quality) for image in images]
    script = ScanScript.default_for(3)
    streams = [encode_coefficients(p, script) for p in planes]
    stream_bytes = sum(len(s) for s in streams)
    return {
        "workload": {
            "dataset": "synthetic (frequency-controlled classes)",
            "n_images": n_images,
            "image_size": image_size,
            "quality": quality,
            "n_scans": len(script),
            "mean_stream_bytes": round(stream_bytes / n_images, 1),
            "trials": trials,
        },
        **_entropy_decode_rows(streams, len(script), trials),
    }


def check_entropy_gate(
    results: dict, baseline_path: str, max_drop_pct: float
) -> tuple[bool, str]:
    """Compare measured entropy decode MB/s against a committed baseline.

    Returns ``(ok, message)``.  The gated statistic is the fast tier's
    full-stream throughput, ``entropy_decode_full.fast_mb_per_s``.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    reference = baseline["entropy_decode_full"]["fast_mb_per_s"]
    measured = results["entropy_decode_full"]["fast_mb_per_s"]
    floor = reference * (1.0 - max_drop_pct / 100.0)
    message = (
        f"entropy decode {measured:.3f} MB/s vs committed baseline "
        f"{reference:.3f} MB/s (floor {floor:.3f} at -{max_drop_pct:.0f}%)"
    )
    return measured >= floor, message


def print_entropy_report(results: dict) -> None:
    workload = results["workload"]
    print("-" * 74)
    print(
        f"entropy decode, fast vs scalar — {workload['n_images']} x "
        f"{workload['image_size']}px synthetic, quality {workload['quality']} "
        "(coefficient-identical, asserted before timing):"
    )
    rows = [("full stream", results["entropy_decode_full"])]
    rows += [
        (f"group 1..{group:>2s}", row)
        for group, row in results["entropy_decode_by_scan_group"].items()
    ]
    for label, row in rows:
        print(
            f"  {label:13s} fast {row['fast_mb_per_s']:8.2f} MB/s   "
            f"scalar {row['scalar_mb_per_s']:6.2f} MB/s ({row['speedup_vs_scalar']:.2f}x)"
        )


def print_report(results: dict) -> None:
    workload = results["workload"]
    print("=" * 74)
    print(
        f"codec throughput — {workload['n_images']} x {workload['image_size']}px "
        f"synthetic, quality {workload['quality']}, {workload['n_scans']} scans"
    )
    print("=" * 74)
    for key, label in [
        ("entropy_encode", "entropy encode (planes -> stream)"),
        ("entropy_decode_full", "entropy decode (stream -> planes)"),
        ("pipeline_encode", "pipeline encode (image -> stream)"),
        ("pipeline_decode", "pipeline decode (stream -> image)"),
        ("pipeline_decode_batch", "pipeline decode (minibatch API)"),
    ]:
        row = results[key]
        print(
            f"{label:36s} fast {row['fast_mb_per_s']:8.2f} MB/s   "
            f"scalar {row['scalar_mb_per_s']:7.2f} MB/s "
            f"({row['speedup_vs_scalar']:.2f}x)"
        )
    print("-" * 74)
    print("decode stage breakdown (stage time per compressed MB):")
    for key, label in [
        ("entropy_decode", "entropy (stream -> planes)"),
        ("dequant_idct_merge", "fused dequant+IDCT+merge"),
        ("color_upsample_pack", "upsample+colour+pack"),
        ("pixel_decode", "pixel stage total"),
    ]:
        row = results["decode_stages"][key]
        pct = (
            f"   {row['pct_of_fast_decode']:4.1f}% of fast decode"
            if "pct_of_fast_decode" in row
            else ""
        )
        print(
            f"  {label:34s} fast {row['fast_mb_per_s']:8.2f} MB/s   "
            f"scalar {row['scalar_mb_per_s']:7.2f} MB/s "
            f"({row['speedup_vs_scalar']:.2f}x){pct}"
        )
    print("-" * 74)
    print("entropy decode by scan group (prefix streams):")
    for group, row in results["entropy_decode_by_scan_group"].items():
        print(
            f"  group 1..{group:>2s}  fast {row['fast_mb_per_s']:8.2f} MB/s   "
            f"scalar {row['scalar_mb_per_s']:7.2f} MB/s   {row['speedup_vs_scalar']:5.2f}x"
        )
    if "decode_parallel" in results:
        section = results["decode_parallel"]
        print("-" * 74)
        print(
            f"process-parallel decode ({section['batch_streams']} streams/batch, "
            f"{workload.get('cpu_count', '?')} cpu(s); "
            f"in-process batch {section['inprocess_batch_mb_per_s']:.2f} MB/s):"
        )
        for n_workers, row in section["workers"].items():
            print(
                f"  {n_workers:>2s} worker(s)  {row['mb_per_s']:8.2f} MB/s   "
                f"{row['speedup_vs_inprocess_batch']:5.2f}x vs in-process"
            )
    if "obs_overhead" in results:
        row = results["obs_overhead"]
        print("-" * 74)
        print(
            f"observability overhead (metrics registry on vs off): "
            f"{row['instrumented_mb_per_s']:.2f} vs "
            f"{row['uninstrumented_mb_per_s']:.2f} MB/s "
            f"({row['overhead_pct']:+.2f}%)"
        )
    if "ingest_throughput" in results:
        print_ingest_report(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workload, 1 trial")
    parser.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="best-of-N trials per measurement (higher = less timer noise)",
    )
    parser.add_argument(
        "--parallel-smoke",
        action="store_true",
        help="only verify + time 2-worker DecodePool parity (fast CI check)",
    )
    parser.add_argument(
        "--entropy-only",
        action="store_true",
        help="only run the entropy decode rows (full workload, no JSON)",
    )
    parser.add_argument(
        "--ingest-only",
        action="store_true",
        help="only run the forward-encode / EncodePool rows (no JSON)",
    )
    parser.add_argument(
        "--gate",
        metavar="BASELINE_JSON",
        default=None,
        help="with --entropy-only / --ingest-only: fail if throughput drops "
        "more than --gate-drop-pct below this committed baseline",
    )
    parser.add_argument(
        "--gate-drop-pct",
        type=float,
        default=10.0,
        help="allowed throughput drop vs the --gate baseline (%%)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_codec.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    if args.parallel_smoke:
        return parallel_smoke(trials=max(1, args.trials if args.trials != DEFAULT_TRIALS else 2))
    if args.entropy_only:
        results = run_entropy_benchmark(trials=args.trials)
        print_entropy_report(results)
        if args.gate:
            ok, message = check_entropy_gate(results, args.gate, args.gate_drop_pct)
            if not ok:
                # One honest re-measure before failing, like the obs gate: a
                # loaded runner must not fail the gate, a regression will.
                results = run_entropy_benchmark(trials=args.trials + 2)
                print_entropy_report(results)
                ok, message = check_entropy_gate(
                    results, args.gate, args.gate_drop_pct
                )
            print(f"entropy gate {'ok' if ok else 'FAILED'}: {message}")
            return 0 if ok else 1
        return 0
    if args.ingest_only:
        results = run_ingest_benchmark(trials=args.trials)
        print_ingest_report(results)
        if args.gate:
            ok, message = check_ingest_gate(results, args.gate, args.gate_drop_pct)
            if not ok:
                # One honest re-measure before failing, like the other gates.
                results = run_ingest_benchmark(trials=args.trials + 2)
                print_ingest_report(results)
                ok, message = check_ingest_gate(results, args.gate, args.gate_drop_pct)
            print(f"ingest gate {'ok' if ok else 'FAILED'}: {message}")
            return 0 if ok else 1
        return 0
    if args.quick:
        quick_trials = args.trials if args.trials != DEFAULT_TRIALS else 2
        results = run_benchmark(image_size=64, n_images=2, trials=quick_trials)
    else:
        results = run_benchmark(trials=args.trials)
    print_report(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


def parallel_smoke(trials: int = 2) -> int:
    """Quick 2-worker DecodePool check: byte-identical, timed, no JSON.

    This is the CI step guarding the parallel engine: it fails loudly if a
    pool diverges from in-process decode or cannot decode at all, without
    asserting speedups that depend on the runner's core count.  The
    verify+time protocol is `_parallel_section` itself, so the smoke gate
    and the recorded `decode_parallel` rows cannot drift apart.
    """
    from repro.codecs.progressive import decode_progressive_batch

    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=64), seed=1
    )
    images = [generator.generate(i % 4, sample_seed=i) for i in range(4)]
    planes = [image_to_coefficients(image, DEFAULT_QUALITY) for image in images]
    script = ScanScript.default_for(3)
    streams = [encode_coefficients(p, script) for p in planes] * 4
    stream_bytes = sum(len(s) for s in streams)
    decode_progressive_batch(streams)  # warm caches outside the timed region
    inprocess_seconds = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        decode_progressive_batch(streams)
        inprocess_seconds = min(inprocess_seconds, time.perf_counter() - start)
    section = _parallel_section(streams, stream_bytes, trials, (2,), inprocess_seconds)
    row = section["workers"]["2"]
    assert row["byte_identical"]
    assert row["fallback_batches"] == 0, "pool fell back in-process"
    print(
        f"parallel-smoke ok: {len(streams)} streams byte-identical at 2 workers, "
        f"{row['mb_per_s']:.2f} MB/s ({os.cpu_count()} cpu(s))"
    )
    return 0


def test_codec_throughput_smoke():
    """Tier-2 smoke: the fast paths must beat the scalar references everywhere."""
    results = run_benchmark(image_size=96, n_images=2, trials=3, parallel_workers=(2,))
    assert results["entropy_decode_full"]["speedup_vs_scalar"] > 1.5
    assert results["entropy_encode"]["speedup_vs_scalar"] > 1.5
    # Coefficient identity of the fast entropy tier with the scalar reference
    # is asserted inside `_entropy_decode_rows` before timing.
    assert results["pipeline_decode"]["speedup_vs_scalar"] > 1.2
    # The batched float32 pixel path must clearly beat the float64 stages
    # (floors at about half the committed decode_stages rows: planar colour
    # stage 7.0x, whole pixel decode 5.95x), and the minibatch API must not
    # be meaningfully slower than per-image decoding (they are measured
    # interleaved; allow timer noise).
    def pixel_floors_met(stages: dict) -> bool:
        return (
            stages["color_upsample_pack"]["speedup_vs_scalar"] >= 3.5
            and stages["pixel_decode"]["speedup_vs_scalar"] >= 2.9
        )

    # A miss re-measures only its own section once before failing, like the
    # other smoke gates: one noisy sample on a loaded runner must not fail
    # the gate, a real regression will.
    streams = _synthetic_workload(96, 2, DEFAULT_QUALITY)[3]
    stream_bytes = sum(len(s) for s in streams)
    stages = results["decode_stages"]
    if not pixel_floors_met(stages):
        stages = _decode_stages_section(
            streams, stream_bytes, 5, results["entropy_decode_full"]
        )
    assert pixel_floors_met(stages), stages
    assert results["pipeline_decode_batch"]["speedup_vs_per_image_loop"] > 0.8
    # Parallel decode is byte-identical (asserted inside the section); its
    # speedup depends on the runner's core count, so only identity is pinned.
    assert results["decode_parallel"]["workers"]["2"]["byte_identical"]
    obs = results["obs_overhead"]
    if obs["overhead_pct"] > 3.0:
        obs = _obs_overhead_section(streams, stream_bytes, 9)
    assert obs["overhead_pct"] <= 3.0, obs
    print_report(results)


def test_obs_overhead_smoke():
    """Tier-2 smoke: instrumented decode stays within 3% of uninstrumented."""
    streams = _synthetic_workload(96, 4, DEFAULT_QUALITY)[3] * 2
    stream_bytes = sum(len(s) for s in streams)
    row = _obs_overhead_section(streams, stream_bytes, trials=7)
    if row["overhead_pct"] > 3.0:
        # One honest re-measure before failing: a single noisy sample on a
        # loaded CI runner must not fail the gate, a real regression will.
        row = _obs_overhead_section(streams, stream_bytes, trials=9)
    assert row["overhead_pct"] <= 3.0, row


def test_parallel_decode_smoke():
    """Tier-2 smoke: 2-worker DecodePool parity on a small workload."""
    assert parallel_smoke(trials=1) == 0


def test_ingest_throughput_smoke():
    """Tier-2 smoke: the fused forward encode meets its acceptance floor.

    Parity with the scalar reference is asserted inside the section before
    any timing; the recorded requirement is a >=3x single-process images/s
    win for the fused float32 batch encode over the scalar float64 loop.
    """
    results = run_ingest_benchmark(image_size=96, n_images=3, trials=3)
    section = results["ingest_throughput"]
    assert section["parity"]["checked_before_timing"]
    assert section["parity"]["max_step_delta"] <= 1
    speedup = section["fused_batch"]["speedup_vs_scalar"]
    if speedup < 3.0:
        # One honest re-measure before failing, like the other smoke gates.
        results = run_ingest_benchmark(image_size=96, n_images=3, trials=5)
        section = results["ingest_throughput"]
        speedup = section["fused_batch"]["speedup_vs_scalar"]
    assert speedup >= 3.0, section
    assert section["workers"]["2"]["identical"]
    print_ingest_report(results)


if __name__ == "__main__":
    sys.exit(main())
