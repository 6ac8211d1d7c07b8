"""Differential tests: the batched float32 pixel path vs the float64 reference.

The pixel fast path (:mod:`repro.codecs.pixelpath`) reorders floating-point
arithmetic (fused scaled-basis gemm, float32 end to end), so decoded pixels
are allowed to differ from the scalar float64 reference by **at most 1 LSB**
where a value lands on a rounding tie; that budget is pinned here across
every scan group, odd dimensions, grayscale/colour, and both subsampling
modes.  Batch decoding must be *bitwise identical* to a per-image loop —
the batch API reuses buffers and stacks only elementwise work across
images (the group-1 colour pass), so no image's arithmetic depends on
another's.
DC-only decodes (scan group 1) take the block-resolution route, which
must be *bitwise equal* to the gemm route it skips (``TestBlockRoute``).

The satellite fixes ride along: ``ImageBuffer.from_array`` dtype fast
paths, the cached ``ImageBuffer.__hash__``, and the exact BT.601 inverse
(weights in ``color.py``, the matrix in ``tests/codec_reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import color, pixelpath
from repro.codecs.baseline import BaselineCodec
from repro.codecs.dct import dct_basis_matrix
from repro.codecs.image import ImageBuffer
from repro.codecs.markers import SUBSAMPLING_420, SUBSAMPLING_NONE
from repro.codecs.parallel import DecodePool
from repro.codecs.pixelpath import (
    PixelScratch,
    channels_to_pixels,
    component_channels,
    decode_to_pixels,
    scaled_inverse_basis,
)
from repro.codecs.progressive import (
    ProgressiveCodec,
    assemble_partial_stream,
    decode_coefficients,
    decode_progressive_batch,
    image_to_coefficients,
    split_scans,
)
from repro.codecs.quantization import QuantizationTables
from tests import codec_reference
from tests.codec_reference import decode_reference, dequantize, inverse_dct_blocks, zigzag_to_blocks


def make_structured_image(size: int = 48, seed: int = 0, color_image: bool = True) -> ImageBuffer:
    """A deterministic image with low- and high-frequency content."""
    rng = np.random.default_rng(seed)
    coordinates = np.linspace(0, 1, size)
    xx, yy = np.meshgrid(coordinates, coordinates)
    base = 128 + 80 * np.sin(4 * np.pi * xx) * np.cos(2 * np.pi * yy)
    texture = 30 * np.sin(24 * np.pi * (xx + 0.3 * yy))
    noise = rng.normal(0, 4, size=(size, size))
    luma = base + texture + noise
    if not color_image:
        return ImageBuffer.from_array(luma)
    rgb = np.stack([luma, 0.7 * luma + 40.0, 220.0 - 0.5 * luma], axis=-1)
    return ImageBuffer.from_array(rgb)


def _max_lsb_delta(a: ImageBuffer, b: ImageBuffer) -> int:
    assert a.pixels.shape == b.pixels.shape
    return int(np.abs(a.pixels.astype(np.int16) - b.pixels.astype(np.int16)).max())


class TestFusedBasis:
    """The scaled-basis operator must reproduce dequantize + IDCT exactly."""

    def test_basis_matches_scipy_idct(self):
        from scipy.fft import idctn

        basis_matrix = dct_basis_matrix()
        rng = np.random.default_rng(0)
        block = rng.standard_normal((8, 8))
        reference = idctn(block, type=2, norm="ortho")
        assert np.allclose(basis_matrix.T @ block @ basis_matrix, reference, atol=1e-12)

    @pytest.mark.parametrize("quality", [35, 75, 90])
    def test_fused_gemm_matches_scalar_stages(self, quality):
        """plane @ basis == merge(idct(dequant(unzigzag(plane)))) within f32 eps."""
        tables = QuantizationTables.for_quality(quality)
        rng = np.random.default_rng(quality)
        plane = rng.integers(-200, 200, size=(12, 64)).astype(np.int32)
        basis = scaled_inverse_basis(tables.luma)
        fused = plane.astype(np.float32) @ basis + 128.0
        scalar = inverse_dct_blocks(dequantize(zigzag_to_blocks(plane), tables.luma))
        assert np.allclose(fused.reshape(12, 8, 8), scalar, atol=0.01)

    def test_basis_cache_returns_same_object(self):
        tables = QuantizationTables.for_quality(60)
        assert scaled_inverse_basis(tables.luma) is scaled_inverse_basis(tables.luma.copy())


class TestScalarParity:
    """Fast decode within 1 LSB of the float64 reference, everywhere."""

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("quality", [50, 90])
    def test_color_all_scan_groups(self, subsampling, quality):
        image = make_structured_image(41, seed=7, color_image=True)
        codec = ProgressiveCodec(quality=quality, subsampling=subsampling)
        stream = codec.encode(image)
        n_scans = codec.n_scans(stream)
        assert n_scans == 10
        for group in range(1, n_scans + 1):
            scalar = decode_reference(stream, group)
            fast = codec.decode(stream, max_scans=group)
            assert _max_lsb_delta(scalar, fast) <= 1, f"scan group {group}"

    def test_grayscale_all_scan_groups(self):
        image = make_structured_image(40, seed=9, color_image=False)
        codec = ProgressiveCodec(quality=85)
        stream = codec.encode(image)
        for group in range(1, codec.n_scans(stream) + 1):
            scalar = decode_reference(stream, group)
            fast = codec.decode(stream, max_scans=group)
            assert _max_lsb_delta(scalar, fast) <= 1

    @pytest.mark.parametrize("size", [17, 23, 31, 41])
    def test_odd_dimensions_420_padding_edges(self, size):
        """Odd sizes exercise 4:2:0 padding and the upsample crop edges."""
        image = make_structured_image(size, seed=size, color_image=True)
        codec = ProgressiveCodec(quality=80)
        stream = codec.encode(image)
        scalar = decode_reference(stream)
        fast = codec.decode(stream)
        assert fast.pixels.shape == (size, size, 3)
        assert _max_lsb_delta(scalar, fast) <= 1

    def test_non_square_image(self):
        """Odd x even and even x odd sizes hit the upsample's row and column crops."""
        rng = np.random.default_rng(3)
        for height, width in [(19, 45), (45, 19)]:
            image = ImageBuffer.from_array(rng.integers(0, 256, size=(height, width, 3)))
            for subsampling in (SUBSAMPLING_420, SUBSAMPLING_NONE):
                codec = ProgressiveCodec(quality=75, subsampling=subsampling)
                stream = codec.encode(image)
                for group in range(1, codec.n_scans(stream) + 1):
                    scalar = decode_reference(stream, group)
                    fast = codec.decode(stream, max_scans=group)
                    assert fast.pixels.shape == (height, width, 3)
                    where = f"{height}x{width} {subsampling} scan group {group}"
                    assert _max_lsb_delta(scalar, fast) <= 1, where

    def test_baseline_sequential_parity(self):
        image = make_structured_image(35, seed=2, color_image=True)
        codec = BaselineCodec(quality=70)
        stream = codec.encode(image)
        scalar = decode_reference(stream)
        fast = codec.decode(stream)
        assert _max_lsb_delta(scalar, fast) <= 1

    def test_random_noise_images(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            image = ImageBuffer.from_array(rng.integers(0, 256, size=(33, 33, 3)))
            codec = ProgressiveCodec(quality=90)
            stream = codec.encode(image)
            scalar = decode_reference(stream)
            fast = codec.decode(stream)
            assert _max_lsb_delta(scalar, fast) <= 1


#: Pure black, pure white and the six saturated primaries / secondaries.
_CLIP_EDGE_COLOURS = [
    (0, 0, 0), (255, 255, 255),
    (255, 0, 0), (0, 255, 0), (0, 0, 255),
    (0, 255, 255), (255, 0, 255), (255, 255, 0),
]


class TestClipEdgeRounding:
    """Saturated colours land on the clip edges, where the two rounding rules meet.

    The fast path rounds half up (``floor(x + 0.5)``), the reference half to
    even; both clip, so wherever the reference decodes 0 or 255 the fast
    path must decode exactly that, not merely within 1 LSB.
    """

    @staticmethod
    def _assert_clip_parity(image: ImageBuffer, subsampling: str) -> None:
        codec = ProgressiveCodec(quality=90, subsampling=subsampling)
        stream = codec.encode(image)
        assert codec.n_scans(stream) == 10
        for group in range(1, 11):
            scalar = decode_reference(stream, group).pixels
            fast = codec.decode(stream, max_scans=group).pixels
            delta = np.abs(scalar.astype(np.int16) - fast.astype(np.int16))
            assert delta.max() <= 1, f"scan group {group}"
            assert np.all(fast[scalar == 0] == 0), f"scan group {group}"
            assert np.all(fast[scalar == 255] == 255), f"scan group {group}"

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("rgb", _CLIP_EDGE_COLOURS)
    def test_solid_colour(self, rgb, subsampling):
        pixels = np.broadcast_to(np.array(rgb, dtype=np.uint8), (21, 27, 3))
        self._assert_clip_parity(ImageBuffer.from_array(pixels), subsampling)

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    def test_colour_mosaic(self, subsampling):
        """The same colours as 6-px tiles: ringing at the edges overshoots the clip."""
        tiles = np.array(_CLIP_EDGE_COLOURS, dtype=np.uint8)
        rng = np.random.default_rng(8)
        index = rng.integers(0, len(tiles), size=(6, 7))
        pixels = tiles[np.kron(index, np.ones((6, 6), dtype=np.int64))]
        self._assert_clip_parity(ImageBuffer.from_array(pixels), subsampling)


class TestBatchDecode:
    """decode_progressive_batch must equal the per-image loop bitwise."""

    def test_batch_equals_loop_mixed_shapes(self):
        images = [
            make_structured_image(41, seed=1, color_image=True),
            make_structured_image(24, seed=2, color_image=False),
            make_structured_image(33, seed=3, color_image=True),
            make_structured_image(41, seed=4, color_image=True),
        ]
        codec = ProgressiveCodec(quality=88)
        streams = [codec.encode(image) for image in images]
        batch = decode_progressive_batch(streams)
        loop = [codec.decode(stream) for stream in streams]
        for batched, single in zip(batch, loop):
            assert np.array_equal(batched.pixels, single.pixels)

    def test_batch_equals_loop_at_scan_prefix(self):
        images = [make_structured_image(40, seed=s, color_image=True) for s in range(3)]
        codec = ProgressiveCodec(quality=90)
        streams = [codec.encode(image) for image in images]
        for group in (1, 4, 10):
            batch = decode_progressive_batch(streams, max_scans=group)
            loop = [codec.decode(stream, max_scans=group) for stream in streams]
            for batched, single in zip(batch, loop):
                assert np.array_equal(batched.pixels, single.pixels)

    def test_batch_scalar_path_matches_loop(self):
        """The batch API is within 1 LSB of the per-image reference loop."""
        images = [make_structured_image(25, seed=s, color_image=True) for s in range(2)]
        codec = ProgressiveCodec(quality=85)
        streams = [codec.encode(image) for image in images]
        batch = decode_progressive_batch(streams)
        loop = [decode_reference(stream) for stream in streams]
        for batched, single in zip(batch, loop):
            assert _max_lsb_delta(batched, single) <= 1

    def test_scratch_reuse_does_not_leak_between_images(self):
        """Decoding image B after A with one scratch must not change B."""
        image_a = make_structured_image(48, seed=5, color_image=True)
        image_b = make_structured_image(48, seed=6, color_image=True)
        codec = ProgressiveCodec(quality=90)
        coeff_a, _ = decode_coefficients(codec.encode(image_a))
        coeff_b, _ = decode_coefficients(codec.encode(image_b))
        scratch = PixelScratch()
        decode_to_pixels(coeff_a, scratch)
        with_reuse = decode_to_pixels(coeff_b, scratch)
        fresh = decode_to_pixels(coeff_b)
        assert np.array_equal(with_reuse, fresh)

    @pytest.mark.parametrize("color_image", [True, False])
    def test_returned_pixels_do_not_alias_scratch(self, color_image):
        """A's returned array survives decoding B through the same scratch."""
        codec = ProgressiveCodec(quality=90)
        coeff_a, _ = decode_coefficients(codec.encode(make_structured_image(40, 1, color_image)))
        coeff_b, _ = decode_coefficients(codec.encode(make_structured_image(40, 2, color_image)))
        scratch = PixelScratch()
        pixels_a = decode_to_pixels(coeff_a, scratch)
        snapshot = pixels_a.copy()
        pixels_b = decode_to_pixels(coeff_b, scratch)
        assert not np.array_equal(pixels_b, snapshot)
        assert np.array_equal(pixels_a, snapshot)

    def test_empty_batch(self):
        assert decode_progressive_batch([]) == []

    @staticmethod
    def _heterogeneous() -> list[bytes]:
        """Whole streams and their group-1 prefixes, interleaved.

        Colour and grayscale, 4:2:0 and 4:4:4 at odd sizes, two quantization
        tables at one size, and a ``BaselineCodec`` stream whose full-band
        scans are mixed scans.  The first two sources and the baseline one
        share a frame header.
        """
        sources = [
            ProgressiveCodec(quality=90).encode(_ramp_image(21, 40, seed=1)),
            ProgressiveCodec(quality=90).encode(_ramp_image(21, 40, seed=2)),
            ProgressiveCodec(quality=60).encode(_ramp_image(21, 40, seed=3)),
            ProgressiveCodec(quality=90, subsampling=SUBSAMPLING_NONE).encode(_ramp_image(17, 9, seed=4)),
            ProgressiveCodec(quality=75).encode(_ramp_image(33, 19, seed=5, color_image=False)),
            BaselineCodec(quality=90).encode(_ramp_image(21, 40, seed=6)),
        ]
        return [s for source in sources for s in (_group_one_stream(source), source)]

    @pytest.mark.parametrize("max_scans", [0, 1, 2, 10, None])
    def test_a_heterogeneous_batch_equals_the_loop(self, max_scans, monkeypatch):
        streams = self._heterogeneous()
        stacks: list[int] = []
        block = pixelpath.block_pixels

        def spy_block(coefficient_sets, scratch):
            stacks.append(len(coefficient_sets))
            return block(coefficient_sets, scratch)

        monkeypatch.setattr(pixelpath, "block_pixels", spy_block)
        batch = decode_progressive_batch(streams, max_scans=max_scans)
        batch_stacks = list(stacks)
        assert sum(batch_stacks) == sum(
            decode_coefficients(stream, max_scans=max_scans)[0].dc_only for stream in streams
        )
        for stream, batched in zip(streams, batch):
            coefficients, _ = decode_coefficients(stream, max_scans=max_scans)
            single = decode_to_pixels(coefficients)
            assert np.array_equal(batched.pixels, single)
            if coefficients.dc_only:
                assert np.array_equal(single, _gemm_route(coefficients))
        if max_scans is None:
            # Both routes ran in the one call: the five progressive group-1
            # prefixes coloured in one pass per header (the first two share
            # one), and every whole stream and the baseline prefix by gemm.
            assert sorted(batch_stacks) == [1, 1, 1, 2]

    def test_the_walk_stays_under_its_cap(self, monkeypatch):
        """A record is one sequence of walk batches, each under the byte cap
        unless it is a lone oversized scan; a group-1 record is one batch."""
        from repro.codecs import fastpath

        sizes: list[list[int]] = []
        walk = fastpath._walk_batch

        def spy(jobs):
            sizes.append([len(job[1]) for job in jobs])
            return walk(jobs)

        monkeypatch.setattr(fastpath, "_walk_batch", spy)
        codec = ProgressiveCodec(quality=90)
        streams = [codec.encode(make_structured_image(64, seed=s)) for s in range(8)]
        prefixes = [_group_one_stream(stream) for stream in streams]
        expected = [decode_progressive_batch([s])[0].pixels for s in streams + prefixes]
        sizes.clear()
        decode_progressive_batch(prefixes)
        assert len(sizes) == 1 and len(sizes[0]) == 8
        # Passes: consecutive streams whose bytes fit one walk batch.
        default = fastpath._WALK_BATCH_BYTES
        lengths = [default - 100, 200, default, 1, 1, default // 2, default // 2]
        assert fastpath.record_passes([bytes(n) for n in lengths]) == [(0, 1), (1, 2), (2, 3), (3, 6), (6, 7)]
        for cap in (default, 2048, 200):
            monkeypatch.setattr(fastpath, "_WALK_BATCH_BYTES", cap)
            sizes.clear()
            batch = decode_progressive_batch(streams + prefixes)
            assert sum(len(walked) for walked in sizes) == 10 * 8 + 8
            assert all(len(walked) == 1 or sum(walked) <= cap for walked in sizes)
            if cap < default:  # several batches, and at 200 lone oversized scans
                assert len(sizes) > 1
                assert (cap == 200) == any(len(walked) == 1 and walked[0] > cap for walked in sizes)
            for image, pixels in zip(batch, expected):
                assert np.array_equal(image.pixels, pixels)


class TestNarrowDcPlanes:
    """A DC-only set decodes into ``(n_blocks, 1)`` DC columns, not 64-wide planes.

    Inside a batch decode nothing reads a DC-only set's AC slots, so its
    planes are the DC column alone; :func:`decode_coefficients` widens them
    back, so the public shape stays ``(n_blocks, 64)``.
    """

    @staticmethod
    def _spy(monkeypatch) -> list:
        from repro.codecs import progressive

        seen: list = []
        colour = progressive.decode_sets_to_pixels

        def spy(coefficient_sets, scratch=None):
            seen.extend(
                (c.dc_only, [plane.shape for plane in c.planes]) for c in coefficient_sets
            )
            return colour(coefficient_sets, scratch)

        monkeypatch.setattr(progressive, "decode_sets_to_pixels", spy)
        return seen

    def test_a_group_one_record_hands_over_dc_columns(self, monkeypatch):
        codec = ProgressiveCodec(quality=90)
        record = [
            _group_one_stream(codec.encode(make_structured_image(40, seed=s, color_image=s % 2 == 0)))
            for s in range(8)
        ]
        seen = self._spy(monkeypatch)
        for max_scans in (None, 1, 0):
            seen.clear()
            decode_progressive_batch(record, max_scans=max_scans)
            assert len(seen) == 8
            for dc_only, shapes in seen:
                assert dc_only and shapes and all(shape[1] == 1 for shape in shapes)

    def test_a_batch_with_ac_still_hands_over_full_planes(self, monkeypatch):
        streams = TestBatchDecode._heterogeneous()
        seen = self._spy(monkeypatch)
        decode_progressive_batch(streams)
        assert sum(dc_only for dc_only, _ in seen) == 5  # the progressive group-1 prefixes
        assert sum(not dc_only for dc_only, _ in seen) == 7
        for dc_only, shapes in seen:
            assert all(shape[1] == (1 if dc_only else 64) for shape in shapes)

    @pytest.mark.parametrize("color_image", [True, False])
    def test_decode_coefficients_widens_a_dc_only_prefix(self, color_image, monkeypatch):
        stream = ProgressiveCodec(quality=90).encode(make_structured_image(41, 7, color_image))
        whole, _ = decode_coefficients(stream)
        seen = self._spy(monkeypatch)
        (batched,) = decode_progressive_batch([_group_one_stream(stream)])
        for max_scans in (0, 1):
            coefficients, applied = decode_coefficients(stream, max_scans=max_scans)
            assert coefficients.dc_only and applied == max_scans
            for plane, full in zip(coefficients.planes, whole.planes):
                assert plane.shape == full.shape and plane.shape[1] == 64
                assert plane.dtype == np.int32 and plane.flags.c_contiguous
                assert not plane[:, 1:].any()
                dc = full[:, 0] if max_scans else np.zeros_like(full[:, 0])
                assert np.array_equal(plane[:, 0], dc)
        assert seen[0][1] == [(plane.shape[0], 1) for plane in whole.planes]
        assert np.array_equal(batched.pixels, decode_to_pixels(coefficients))


def _gemm_route(coefficients) -> np.ndarray:
    """The full-resolution route, called directly: the block route's oracle."""
    scratch = PixelScratch()
    channels = component_channels(coefficients, scratch)
    return channels_to_pixels(coefficients.header, channels, scratch)


def _ramp_image(height: int, width: int, seed: int, color_image: bool = True) -> ImageBuffer:
    """A smooth ramp plus noise at any size, so block means differ."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    luma = 30 + 200 * (yy + 2 * xx) / max(1, 3 * (height + width)) + rng.normal(0, 12, (height, width))
    if not color_image:
        return ImageBuffer.from_array(luma)
    return ImageBuffer.from_array(np.stack([luma, 255 - luma, 0.5 * luma + 60], axis=-1))


def _group_one_stream(stream: bytes) -> bytes:
    """What a group-1 record read hands the decoder: header, first scan, EOI."""
    prefix, scans = split_scans(stream)
    return assemble_partial_stream(prefix, scans[:1])


class TestBlockRoute:
    """DC-only coefficient sets reconstruct at block resolution.

    The block route must be *bitwise* equal to the gemm route (the gemm
    route is the oracle, called directly), be chosen from the scans the
    entropy decoder applied — never from plane contents — and hand back a
    fresh array like the gemm route does.
    """

    _SIZES = [(21, 40), (40, 21), (17, 9), (33, 48), (8, 8), (1, 1)]

    @staticmethod
    def _assert_block_route_exact(
        image: ImageBuffer, subsampling: int, quality: int = 90
    ) -> np.ndarray:
        """Check max_scans 0 and 1 against the oracle; returns the group-1 pixels."""
        stream = ProgressiveCodec(quality=quality, subsampling=subsampling).encode(image)
        for max_scans in (0, 1):
            coefficients, _ = decode_coefficients(stream, max_scans=max_scans)
            assert coefficients.dc_only
            block, oracle = decode_to_pixels(coefficients), _gemm_route(coefficients)
            assert block.shape == oracle.shape == image.pixels.shape
            assert np.array_equal(block, oracle), f"max_scans={max_scans}"
        return block

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("quality", [10, 90])
    def test_colour_bitwise_equal(self, size, subsampling, quality):
        image = _ramp_image(*size, seed=size[0] * 100 + size[1])
        self._assert_block_route_exact(image, subsampling, quality)

    @pytest.mark.parametrize("size", _SIZES)
    def test_grayscale_bitwise_equal(self, size):
        image = _ramp_image(*size, seed=size[0], color_image=False)
        self._assert_block_route_exact(image, SUBSAMPLING_NONE)

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    def test_random_noise_bitwise_equal(self, subsampling):
        rng = np.random.default_rng(21)
        image = ImageBuffer.from_array(rng.integers(0, 256, size=(35, 50, 3)).astype(np.uint8))
        self._assert_block_route_exact(image, subsampling)

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("rgb", _CLIP_EDGE_COLOURS)
    def test_clip_edge_primaries_bitwise_equal(self, rgb, subsampling):
        pixels = np.broadcast_to(np.array(rgb, dtype=np.uint8), (21, 27, 3))
        self._assert_block_route_exact(ImageBuffer.from_array(pixels), subsampling)

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    def test_clip_edge_mosaic_bitwise_equal(self, subsampling):
        """Primaries as 8-px tiles: block values reach past both clip edges."""
        tiles = np.array(_CLIP_EDGE_COLOURS, dtype=np.uint8)
        index = np.random.default_rng(3).integers(0, len(tiles), size=(5, 6))
        pixels = tiles[np.kron(index, np.ones((8, 8), dtype=np.int64))][:37, :46]
        block = self._assert_block_route_exact(ImageBuffer.from_array(pixels), subsampling)
        assert block.min() == 0 and block.max() == 255

    @pytest.mark.parametrize("color_image", [True, False])
    def test_empty_frame(self, color_image):
        shape = (0, 0, 3) if color_image else (0, 0)
        self._assert_block_route_exact(
            ImageBuffer.from_array(np.zeros(shape, dtype=np.uint8)), SUBSAMPLING_420
        )

    @pytest.fixture
    def routes(self, monkeypatch):
        """The routes decode_to_pixels takes, in call order (a spy, not a timer)."""
        taken: list[str] = []
        block, gemm = pixelpath.block_pixels, pixelpath.component_channels

        def spy_block(*args):
            taken.append("block")
            return block(*args)

        def spy_gemm(*args):
            taken.append("gemm")
            return gemm(*args)

        monkeypatch.setattr(pixelpath, "block_pixels", spy_block)
        monkeypatch.setattr(pixelpath, "component_channels", spy_gemm)
        return taken

    @pytest.mark.parametrize("color_image", [True, False])
    @pytest.mark.parametrize("max_scans", [0, 1])
    def test_dc_only_prefixes_take_the_block_route(self, routes, max_scans, color_image):
        codec = ProgressiveCodec(quality=90)
        stream = codec.encode(make_structured_image(24, 1, color_image))
        codec.decode(stream, max_scans=max_scans)
        decode_progressive_batch([_group_one_stream(stream)])
        assert routes == ["block", "block"]

    @pytest.mark.parametrize("color_image", [True, False])
    @pytest.mark.parametrize("max_scans", [2, 5, None])
    def test_scans_with_an_ac_band_take_the_gemm_route(self, routes, max_scans, color_image):
        codec = ProgressiveCodec(quality=90)
        stream = codec.encode(make_structured_image(24, 1, color_image))
        coefficients, _ = decode_coefficients(stream, max_scans=max_scans)
        assert not coefficients.dc_only
        decode_to_pixels(coefficients)
        assert routes == ["gemm"]

    def test_a_full_band_first_scan_takes_the_gemm_route(self, routes):
        """A baseline stream's first scan is DC *and* AC: not a block-route set."""
        stream = BaselineCodec(quality=90).encode(make_structured_image(24, 2))
        BaselineCodec().decode(stream, max_scans=1)
        assert routes == ["gemm"]

    def test_encoder_planes_take_the_gemm_route_whatever_they_hold(self, routes):
        """The route comes from applied scans, never from plane contents: a
        solid image's forward planes hold no AC, yet they take the gemm route."""
        solid = np.broadcast_to(np.array((90, 140, 200), dtype=np.uint8), (32, 32, 3))
        coefficients = image_to_coefficients(ImageBuffer.from_array(solid), 90)
        assert all(not plane[:, 1:].any() for plane in coefficients.planes)
        assert not coefficients.dc_only
        decode_to_pixels(coefficients)
        assert routes == ["gemm"]

    @pytest.mark.parametrize("color_image", [True, False])
    def test_output_is_fresh_and_survives_the_next_decode(self, color_image):
        codec = ProgressiveCodec(quality=90)
        first, _ = decode_coefficients(codec.encode(_ramp_image(21, 40, 1, color_image)), 1)
        second, _ = decode_coefficients(codec.encode(_ramp_image(21, 40, 2, color_image)), 1)
        pixels = decode_to_pixels(first)
        snapshot = pixels.copy()
        assert pixels.dtype == np.uint8 and pixels.shape == _gemm_route(first).shape
        assert pixels.flags.c_contiguous and pixels.flags.writeable and pixels.base is None
        later = decode_to_pixels(second)
        assert not np.array_equal(later, snapshot)
        assert np.array_equal(pixels, snapshot)

    def test_pool_group_one_is_byte_identical_to_in_process(self):
        codec = ProgressiveCodec(quality=90)
        streams = [
            _group_one_stream(codec.encode(_ramp_image(33 + i, 40, i, color_image=i % 3 != 2)))
            for i in range(6)
        ]
        expected = decode_progressive_batch(streams)
        with DecodePool(2) as pool:
            pooled = pool.decode_batch(streams)
            assert pool.stats.parallel_batches == 1
        for got, want in zip(pooled, expected, strict=True):
            assert got.pixels.dtype == want.pixels.dtype
            assert np.array_equal(got.pixels, want.pixels)


class TestImageBufferSatellites:
    """from_array dtype fast paths and the cached __hash__."""

    def test_from_array_uint8_skips_float_roundtrip(self):
        array = np.arange(64, dtype=np.uint8).reshape(8, 8)
        image = ImageBuffer.from_array(array)
        assert image.pixels.dtype == np.uint8
        assert np.array_equal(image.pixels, array)
        # writeable input is copied: caller mutations cannot corrupt the
        # frozen buffer (or its cached hash) afterwards
        array[0, 0] = 99
        assert image.pixels[0, 0] == 0

    def test_from_array_uint8_readonly_is_zero_copy(self):
        array = np.arange(64, dtype=np.uint8).reshape(8, 8)
        array.setflags(write=False)
        image = ImageBuffer.from_array(array)
        assert image.pixels is array

    def test_from_array_integer_clips(self):
        array = np.array([[-5, 0], [255, 300]], dtype=np.int32)
        image = ImageBuffer.from_array(array)
        assert np.array_equal(image.pixels, [[0, 0], [255, 255]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_from_array_float_rounds_and_clips(self, dtype):
        array = np.array([[-1.2, 0.4], [254.6, 300.0]], dtype=dtype)
        image = ImageBuffer.from_array(array)
        assert np.array_equal(image.pixels, [[0, 0], [255, 255]])
        # round-half-even, matching the old float64 round-trip
        ties = ImageBuffer.from_array(np.array([[0.5, 1.5, 2.5]], dtype=dtype))
        assert ties.pixels.tolist() == [[0, 2, 2]]

    def test_hash_is_cached_and_consistent(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        image = ImageBuffer(pixels)
        first = hash(image)
        assert image.__dict__["_hash"] == first  # cached after first call
        assert hash(image) == first
        assert hash(ImageBuffer(pixels.copy())) == first  # equal images, equal hash
        assert image == ImageBuffer(pixels.copy())

    def test_hash_usable_in_sets(self):
        image = ImageBuffer(np.zeros((4, 4), dtype=np.uint8))
        other = ImageBuffer(np.ones((4, 4), dtype=np.uint8))
        assert len({image, other, ImageBuffer(np.zeros((4, 4), dtype=np.uint8))}) == 2


class TestColorSatellite:
    """Exact BT.601 inverse constants, no defensive copies."""

    def test_inverse_matrix_is_exact(self):
        product = codec_reference._YCBCR_TO_RGB @ color._RGB_TO_YCBCR
        assert np.allclose(product, np.eye(3), atol=1e-15)

    def test_roundtrip_tight(self):
        rng = np.random.default_rng(1)
        rgb = rng.uniform(0, 255, size=(9, 9, 3))
        back = codec_reference.ycbcr_to_rgb(codec_reference.rgb_to_ycbcr(rgb))
        assert np.allclose(back, rgb, atol=1e-10)

    def test_ycbcr_to_rgb_does_not_mutate_input(self):
        ycc = np.full((4, 4, 3), 128.0)
        expected = ycc.copy()
        codec_reference.ycbcr_to_rgb(ycc)
        assert np.array_equal(ycc, expected)

    def test_known_constants(self):
        matrix = codec_reference._YCBCR_TO_RGB
        assert matrix[0, 2] == pytest.approx(1.402)
        assert matrix[2, 1] == pytest.approx(1.772)
        assert matrix[1, 1] == pytest.approx(-0.344136, abs=1e-6)
        assert matrix[1, 2] == pytest.approx(-0.714136, abs=1e-6)


class TestReaderBatchIntegration:
    """The record reader's batch assembly matches per-sample decoding."""

    def test_assemble_batch_matches_single(self, tmp_path):
        from repro.core.dataset import PCRDataset

        rng = np.random.default_rng(0)
        samples = [
            (f"img{i}", ImageBuffer.from_array(rng.integers(0, 256, size=(24, 24, 3))), i % 3)
            for i in range(8)
        ]
        dataset = PCRDataset.build(samples, tmp_path / "pcr", images_per_record=4)
        try:
            codec = ProgressiveCodec(quality=90)
            for record_name in dataset.record_names:
                decoded = dataset.read_record(record_name, decode=True)
                raw = dataset.read_record(record_name, decode=False)
                for sample, undecoded in zip(decoded, raw):
                    assert np.array_equal(
                        sample.image.pixels, codec.decode(undecoded.stream).pixels
                    )
        finally:
            dataset.close()

    def test_assemble_samples_batch_decoded_alignment(self, tmp_path):
        """Record assembly keys each batch-decoded image to its own sample.

        Mixed record sizes (3, 3, 1) with decode=True — a mis-slice would
        pair one sample's pixels with another's metadata.
        """
        from repro.core.dataset import PCRDataset
        from repro.core.reader import assemble_samples

        rng = np.random.default_rng(4)
        samples = [
            (f"img{i}", ImageBuffer.from_array(rng.integers(0, 256, size=(17, 21, 3))), i)
            for i in range(7)
        ]
        dataset = PCRDataset.build(samples, tmp_path / "pcr", images_per_record=3)
        try:
            reader = dataset.reader
            codec = ProgressiveCodec(quality=90)
            records = [
                assemble_samples(reader.read_record_bytes(name, dataset.n_groups), decode=True)
                for name in dataset.record_names
            ]
            assert [len(record) for record in records] == [3, 3, 1]
            flat = [sample for record in records for sample in record]
            assert [(s.key, s.label) for s in flat] == [(f"img{i}", i) for i in range(7)]
            for sample in flat:
                assert np.array_equal(sample.image.pixels, codec.decode(sample.stream).pixels)
        finally:
            dataset.close()
