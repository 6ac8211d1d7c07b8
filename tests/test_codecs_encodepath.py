"""Differential suite for the batched float32 forward (encode) path.

The forward twin of ``tests/test_codecs_pixelpath.py``: the fused
RGB→YCbCr+level-shift matmul, strided 4:2:0 downsample, and fused
quantize+forward-DCT sgemm must match the scalar float64 reference within
the documented error budget (at most ±1 quant step, at a rate at most
``MAX_MISMATCH_RATE``, with decoded-image PSNR at least
``MIN_PARITY_PSNR_DB`` — see :mod:`repro.codecs.encodepath`).  Everything
*past* the forward transform — entropy coding, batch encoding, the
:class:`~repro.codecs.parallel.EncodePool`, streamed conversion — is exact
and is pinned to equality here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codecs.baseline import BaselineCodec
from repro.codecs.bitio import pack_bits
from repro.codecs.encodepath import MAX_MISMATCH_RATE, MIN_PARITY_PSNR_DB, encode_to_planes
from repro.codecs.image import ImageBuffer
from repro.codecs.markers import SUBSAMPLING_420, SUBSAMPLING_NONE
from repro.codecs.parallel import EncodePool
from repro.codecs.pixelpath import PixelScratch
from repro.codecs.progressive import (
    ProgressiveCodec,
    ScanScript,
    decode_coefficients,
    decode_progressive_batch,
    encode_progressive_batch,
    image_to_coefficients,
)
from repro.codecs.quantization import QuantizationTables
from repro.codecs.transcode import transcode_to_progressive
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec
from repro.obs import get_registry
from tests.codec_reference import (
    BitReader,
    BitWriter,
    encode_coefficients_reference,
    encode_reference,
    encode_to_planes_reference,
    image_to_coefficients_reference,
)


def _test_image(rng: np.random.Generator, height: int, width: int, color: bool) -> ImageBuffer:
    """Structured-plus-noise content: smooth gradients with texture, so both
    low- and high-frequency coefficients (and rounding ties) get exercised."""
    yy, xx = np.mgrid[0:height, 0:width]
    base = 96.0 + 48.0 * np.sin(yy / 9.0) + 52.0 * np.cos(xx / 7.0)
    if color:
        channels = [base, np.flipud(base), base.T[:height, :width] if base.T.shape == (height, width) else np.fliplr(base)]
        stacked = np.stack(channels, axis=-1)
        noise = rng.normal(0.0, 14.0, size=(height, width, 3))
    else:
        stacked = base
        noise = rng.normal(0.0, 14.0, size=(height, width))
    return ImageBuffer(np.clip(stacked + noise, 0, 255).astype(np.uint8))


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def _assert_plane_parity(fast, scalar) -> None:
    """Coefficient planes agree within the documented ±1-step budget.

    ``MAX_MISMATCH_RATE`` is a *corpus* rate (enforced exactly by
    ``test_mismatch_rate_over_corpus``); a single small image gets 4x
    slack plus an absolute floor so Poisson noise on a few thousand
    coefficients can't flake the per-config checks.
    """
    assert len(fast.planes) == len(scalar.planes)
    total = 0
    mismatched = 0
    for fast_plane, scalar_plane in zip(fast.planes, scalar.planes):
        assert fast_plane.shape == scalar_plane.shape
        delta = np.abs(fast_plane.astype(np.int64) - scalar_plane.astype(np.int64))
        assert int(delta.max(initial=0)) <= 1
        total += delta.size
        mismatched += int(np.count_nonzero(delta))
    assert mismatched <= max(8, int(total * 4 * MAX_MISMATCH_RATE))


class TestForwardParity:
    """Fused forward transform vs the scalar float64 reference."""

    @pytest.mark.parametrize("height,width", [(64, 64), (61, 47), (17, 24), (128, 96)])
    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("quality", [50, 90])
    def test_color_planes(self, height, width, subsampling, quality):
        image = _test_image(np.random.default_rng(height * width), height, width, True)
        fast = image_to_coefficients(image, quality, subsampling)
        scalar = image_to_coefficients_reference(image, quality, subsampling)
        _assert_plane_parity(fast, scalar)

    @pytest.mark.parametrize("height,width", [(64, 64), (61, 47), (8, 8), (9, 25)])
    def test_grayscale_planes(self, height, width):
        image = _test_image(np.random.default_rng(height + width), height, width, False)
        fast = image_to_coefficients(image, 90)
        scalar = image_to_coefficients_reference(image, 90)
        assert fast.header.subsampling == SUBSAMPLING_NONE
        _assert_plane_parity(fast, scalar)

    def test_mismatch_rate_over_corpus(self):
        """The off-by-one *rate* across a corpus stays within budget."""
        rng = np.random.default_rng(7)
        total = 0
        mismatched = 0
        for index in range(12):
            image = _test_image(rng, 48 + index, 56 + 3 * index, index % 3 != 0)
            fast = image_to_coefficients(image, 75)
            scalar = image_to_coefficients_reference(image, 75)
            for fp, sp in zip(fast.planes, scalar.planes):
                delta = np.abs(fp.astype(np.int64) - sp.astype(np.int64))
                assert int(delta.max(initial=0)) <= 1
                total += delta.size
                mismatched += int(np.count_nonzero(delta))
        assert mismatched / total <= MAX_MISMATCH_RATE

    def test_decode_psnr_across_scan_groups(self):
        """Decodes of the two encodes agree to >= MIN_PARITY_PSNR_DB at
        every scan-prefix depth (every scan group serves equivalent pixels)."""
        image = _test_image(np.random.default_rng(11), 72, 88, True)
        fast_stream = ProgressiveCodec(quality=90).encode(image)
        scalar_stream = encode_reference(image, quality=90)
        n_scans = len(ScanScript.default_for(3).scans)
        for max_scans in list(range(1, n_scans + 1)) + [None]:
            fast_image, scalar_image = decode_progressive_batch(
                [fast_stream, scalar_stream], max_scans=max_scans
            )
            assert _psnr(fast_image.pixels, scalar_image.pixels) >= MIN_PARITY_PSNR_DB


class TestPlanarForward:
    """The planar colour stage gives the planes of the pixel-major one, bit for bit.

    ``encode_to_planes_reference`` is the stage as first written (an
    ``(H*W, 3)`` matmul and a broadcast level-shift bias); the budget test
    above, against the float64 reference, cannot see a changed rounding.
    """

    @staticmethod
    def _assert_bitwise_equal(image: ImageBuffer, quality: int, subsampling: int) -> None:
        tables = QuantizationTables.for_quality(quality)
        planar = encode_to_planes(image, tables, subsampling)
        reference = encode_to_planes_reference(image, tables, subsampling, PixelScratch())
        assert len(planar) == len(reference)
        for ours, theirs in zip(planar, reference):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    def test_corpus_images(self):
        generator = SyntheticImageGenerator(4, SyntheticImageSpec(image_size=224), seed=11)
        for _, image, _ in generator.generate_batch(8, seed=11):
            self._assert_bitwise_equal(image, 90, SUBSAMPLING_420)

    @pytest.mark.parametrize("height,width", [(1, 1), (15, 17), (223, 225)])
    @pytest.mark.parametrize("quality", [1, 50, 100])
    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    def test_sizes_qualities_and_layouts(self, height, width, quality, subsampling):
        image = _test_image(np.random.default_rng(height * width + quality), height, width, True)
        self._assert_bitwise_equal(image, quality, subsampling)

    @pytest.mark.parametrize("height,width", [(1, 1), (15, 17), (223, 225)])
    def test_grayscale(self, height, width):
        image = _test_image(np.random.default_rng(height + width), height, width, False)
        self._assert_bitwise_equal(image, 90, SUBSAMPLING_NONE)

    def test_uniform_random_pixels(self):
        pixels = np.random.default_rng(3).integers(0, 256, size=(61, 47, 3), dtype=np.uint8)
        for quality in (1, 50, 100):
            self._assert_bitwise_equal(ImageBuffer(pixels), quality, SUBSAMPLING_420)


class TestEntropyStage:
    """Past the forward transform everything is exact."""

    def test_entropy_bytes_identical_given_same_planes(self):
        """Scalar vs vectorized entropy coders emit identical streams for
        identical coefficient planes (a large image: many words per scan)."""
        from repro.codecs.progressive import encode_coefficients

        image = _test_image(np.random.default_rng(3), 160, 200, True)
        coefficients = image_to_coefficients_reference(image, 90)
        scalar_stream = encode_coefficients_reference(coefficients, ScanScript.default_for(3))
        fast_stream = encode_coefficients(coefficients, ScanScript.default_for(3))
        assert scalar_stream == fast_stream

    @staticmethod
    def _written(values, widths) -> bytes:
        writer = BitWriter()
        for value, width in zip(values.tolist(), widths.tolist()):
            writer.write_bits(value, width)
        return writer.getvalue()

    @pytest.mark.parametrize("seed", range(4))
    def test_word_packer_differential(self, seed):
        """Long random runs, widths 0-63 (zero-width items included)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4000))
        widths = rng.integers(0, 64, size=n).astype(np.int64)
        values = rng.integers(0, np.iinfo(np.int64).max, size=n) >> (63 - widths)
        assert pack_bits(values, widths) == self._written(values, widths)

    def test_word_packer_word_boundaries(self):
        """Runs that end exactly on a 64-bit word, and unfusable items above 31 bits."""
        rng = np.random.default_rng(99)
        for widths in (
            [32, 32] * 50,  # every second item ends on a word
            [63, 1, 0, 64 - 17, 17, 0, 0],  # word-aligned ends, then zero widths at a boundary
            list(rng.integers(32, 64, size=2000)),  # wide items cross most word boundaries
            [8] * 64,  # a whole number of words, so no final pad
        ):
            widths = np.array(widths, dtype=np.int64)
            values = rng.integers(0, np.iinfo(np.int64).max, size=widths.size) >> (63 - widths)
            packed = pack_bits(values, widths)
            assert packed == self._written(values, widths)
            reader = BitReader(packed)
            for value, width in zip(values.tolist(), widths.tolist()):
                assert reader.read_bits(int(width)) == value


class TestBatchEncode:
    """encode_progressive_batch: batching is pure buffer reuse."""

    def _images(self):
        rng = np.random.default_rng(5)
        return [
            _test_image(rng, 48, 64, True),
            _test_image(rng, 61, 47, True),
            _test_image(rng, 33, 40, False),
            _test_image(rng, 64, 64, True),
        ]

    def test_batch_matches_single_image_encodes(self):
        images = self._images()
        batch = encode_progressive_batch(images)
        singles = [ProgressiveCodec(quality=90).encode(image) for image in images]
        assert batch == singles

    def test_sequential_layout_matches_baseline_codec(self):
        images = self._images()
        batch = encode_progressive_batch(images, layout="sequential")
        singles = [BaselineCodec(quality=90).encode(image) for image in images]
        assert batch == singles

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="unknown encode layout"):
            encode_progressive_batch(self._images()[:1], layout="interleaved")

    def test_pcr_layout_is_gone(self):
        # Not an alias for "progressive": the name described a double pass.
        with pytest.raises(ValueError, match="unknown encode layout: 'pcr'"):
            encode_progressive_batch(self._images()[:1], layout="pcr")
        with EncodePool(2) as pool, pytest.raises(ValueError, match="unknown encode layout"):
            pool.encode_batch(self._images()[:1], layout="pcr")

    def test_ingest_metrics_emitted(self):
        registry = get_registry()
        registry.reset()
        images = self._images()
        streams = encode_progressive_batch(images)
        assert registry.counter("ingest.images_total").value == len(images)
        assert registry.counter("ingest.pixel_bytes_total").value == sum(
            image.pixels.nbytes for image in images
        )
        assert registry.counter("ingest.encoded_bytes_total").value == sum(
            len(stream) for stream in streams
        )
        assert registry.histogram("ingest.encode_batch_seconds").count == 1


def _one_pass_equals_transcode(image: ImageBuffer, quality: int) -> None:
    one_pass = ProgressiveCodec(quality=quality).encode(image)
    two_jobs = transcode_to_progressive(BaselineCodec(quality=quality).encode(image))
    assert one_pass == two_jobs


class TestOnePassEqualsTranscode:
    """``ProgressiveCodec(q).encode(im) == transcode_to_progressive(BaselineCodec(q).encode(im))``.

    The invariant that lets ``convert_to_pcr`` encode pixels in one
    progressive pass: going through a baseline stream and the lossless
    transcode (what the deleted ``"pcr"`` layout did) yields the same bytes.
    """

    @pytest.mark.parametrize("quality", [1, 50, 100])
    @pytest.mark.parametrize("color", [True, False], ids=["color", "gray"])
    @pytest.mark.parametrize("height,width", [(1, 1), (17, 23), (61, 47), (64, 64)])
    def test_structured_images(self, height, width, color, quality):
        rng = np.random.default_rng(height * 1000 + width)
        _one_pass_equals_transcode(_test_image(rng, height, width, color), quality)

    @pytest.mark.parametrize("fill", [0, 255])
    def test_flat_extremes(self, fill):
        _one_pass_equals_transcode(ImageBuffer(np.full((24, 40, 3), fill, np.uint8)), 90)

    @given(
        pixels=st.one_of(
            hnp.arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))),
            hnp.arrays(
                np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20), st.just(3))
            ),
        ),
        quality=st.sampled_from([1, 10, 50, 90, 100]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_small_images(self, pixels, quality):
        _one_pass_equals_transcode(ImageBuffer(pixels), quality)


class TestEncodePool:
    """EncodePool output is identical to in-process fast-path encoding.

    Lifecycle and failure paths are the shared engine's: see
    ``TestPoolConformance`` in ``tests/test_codecs_parallel.py``.
    """

    def _images(self):
        rng = np.random.default_rng(13)
        return [
            _test_image(rng, 64, 96, True),
            _test_image(rng, 61, 47, True),
            _test_image(rng, 33, 40, False),
            _test_image(rng, 96, 96, True),
            _test_image(rng, 40, 56, False),
            _test_image(rng, 80, 48, True),
        ]

    @pytest.mark.parametrize("layout", ["progressive", "sequential"])
    def test_pool_matches_inprocess(self, layout):
        images = self._images()
        expected = encode_progressive_batch(images, layout=layout)
        with EncodePool(2) as pool:
            assert pool.encode_batch(images, layout=layout) == expected
            assert pool.stats.parallel_batches == 1
            assert pool.stats.items == len(images)


class TestStreamingConversion:
    """convert_to_pcr peak memory is bounded by chunk_size, not dataset size."""

    def test_chunked_streaming_bounds_pulls(self, tmp_path, monkeypatch):
        import repro.core.convert as convert_mod

        rng = np.random.default_rng(2)
        n_samples, chunk_size = 10, 4
        pulled = 0

        def samples():
            nonlocal pulled
            for index in range(n_samples):
                pulled += 1
                yield (f"img-{index}", _test_image(rng, 40, 48, True), index % 3)

        pulls_at_encode: list[int] = []
        batch_sizes: list[int] = []
        real_encode = convert_mod.encode_progressive_batch

        def probing_encode(images, **kwargs):
            pulls_at_encode.append(pulled)
            batch_sizes.append(len(images))
            return real_encode(images, **kwargs)

        monkeypatch.setattr(convert_mod, "encode_progressive_batch", probing_encode)
        result, report = convert_mod.convert_to_pcr(
            samples(), tmp_path / "pcr", images_per_record=4, chunk_size=chunk_size
        )
        # The first encode ran after exactly one chunk was pulled — the
        # whole dataset was never materialized.
        assert pulls_at_encode[0] == chunk_size
        assert all(size <= chunk_size for size in batch_sizes)
        assert sum(batch_sizes) == n_samples
        assert result.n_samples == n_samples
        assert report.n_images == n_samples
        assert report.n_chunks == 3
        assert report.images_per_second > 0.0

    def test_writer_pending_stays_bounded(self, tmp_path, tiny_streams):
        from repro.core.writer import PCRWriter

        writer = PCRWriter(tmp_path / "pcr", images_per_record=3)
        for key, stream, label in tiny_streams[:8]:
            writer.add_sample(key, stream, label)
            assert writer.pending_samples < 3
        writer.finalize()

    def test_convert_with_pool_matches_serial(self, tmp_path):
        from repro.core.convert import convert_to_pcr

        rng = np.random.default_rng(6)
        images = [_test_image(rng, 40, 48, True) for _ in range(6)]
        serial_samples = [(f"img-{i}", image, 0) for i, image in enumerate(images)]
        serial, _ = convert_to_pcr(
            serial_samples, tmp_path / "serial", images_per_record=4, chunk_size=3
        )
        pooled, report = convert_to_pcr(
            serial_samples,
            tmp_path / "pooled",
            images_per_record=4,
            chunk_size=3,
            encode_workers=2,
        )
        assert pooled.n_samples == serial.n_samples
        assert pooled.total_bytes == serial.total_bytes
        assert report.encode_workers == 2

    def test_conversion_chunk_metrics(self, tmp_path):
        from repro.core.convert import convert_to_pcr

        registry = get_registry()
        registry.reset()
        rng = np.random.default_rng(8)
        samples = [(f"img-{i}", _test_image(rng, 32, 32, True), 0) for i in range(5)]
        convert_to_pcr(samples, tmp_path / "pcr", chunk_size=2)
        assert registry.counter("ingest.chunks_total").value == 3
        assert registry.histogram("ingest.convert_encode_seconds").count == 3
        assert registry.histogram("ingest.convert_write_seconds").count == 3


def test_decode_coefficients_roundtrip_of_batch_stream():
    """A batch-encoded stream decodes to exactly its own coefficients."""
    image = _test_image(np.random.default_rng(21), 56, 72, True)
    coefficients = image_to_coefficients(image, 90)
    stream = encode_progressive_batch([image])[0]
    decoded, n_scans = decode_coefficients(stream)
    assert n_scans == len(ScanScript.default_for(3).scans)
    for original, roundtripped in zip(coefficients.planes, decoded.planes):
        assert np.array_equal(original, roundtripped)
