"""Tests for markers, baseline/progressive codecs, and lossless transcoding."""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.codecs.baseline import BaselineCodec
from repro.codecs.image import ImageBuffer
from repro.codecs.markers import (
    EOI,
    SOF_MARKER,
    SOI,
    SOS_MARKER,
    SUBSAMPLING_420,
    SUBSAMPLING_NONE,
    CodecFormatError,
    FrameHeader,
    ScanHeader,
    find_scan_segments,
    parse_frame_header,
    write_scan_segment,
)
from repro.codecs.progressive import (
    ProgressiveCodec,
    ScanScript,
    assemble_partial_stream,
    coefficients_to_image,
    decode_coefficients,
    encode_coefficients,
    image_to_coefficients,
    split_scans,
)
from repro.codecs.quantization import QuantizationTables
from repro.codecs.transcode import is_lossless_roundtrip, transcode_to_progressive
from repro.metrics.psnr import mse


def _malformed_streams() -> dict[str, bytes]:
    """Streams whose frame or scan header is malformed, by what is wrong."""
    frame = FrameHeader(16, 16, 3, SUBSAMPLING_420, QuantizationTables.for_quality(90))
    sof = frame.to_bytes()
    frames = {  # parsing stops at the frame: no scans, no EOI
        "sof-cut-in-its-length": sof[:3],
        "sof-cut-in-its-payload": sof[:20],
        "sof-shorter-than-its-fields": SOF_MARKER + struct.pack("<H", 4) + bytes(4),
        "no-components": replace(frame, n_components=0).to_bytes(),
        "two-components": replace(frame, n_components=2).to_bytes(),
        "subsampling-5": replace(frame, subsampling=5).to_bytes(),
    }
    scans = {
        "scan-without-components": ScanHeader((), 1, 5),
        "scan-repeating-a-component": ScanHeader((0, 0), 1, 5),
        "scan-naming-component-7": ScanHeader((7,), 1, 5),
        "sequential-scan-naming-component-7": ScanHeader((7,), 0, 63),
        "band-start-after-its-end": ScanHeader((0,), 6, 5),
        "band-end-past-63": ScanHeader((0,), 1, 64),
    }
    streams = {case: SOI + segment for case, segment in frames.items()}
    for case, scan in scans.items():
        streams[case] = SOI + sof + write_scan_segment(scan, bytes(40)) + EOI
    # The header names one component, so needs 4 bytes; the segment holds 2.
    streams["scan-header-past-its-segment"] = (
        SOI + sof + SOS_MARKER + struct.pack("<I", 2) + bytes([1, 0]) + EOI
    )
    return streams


_MALFORMED = _malformed_streams()


class TestMarkers:
    def test_frame_header_roundtrip(self):
        header = FrameHeader(100, 80, 3, 1, QuantizationTables.for_quality(85))
        data = SOI + header.to_bytes() + EOI
        parsed, offset = parse_frame_header(data)
        assert parsed.height == 100
        assert parsed.width == 80
        assert parsed.n_components == 3
        assert parsed.quant_tables.quality == 85
        assert data[offset : offset + 2] == EOI

    def test_component_shape_subsampling(self):
        header = FrameHeader(33, 21, 3, 1, QuantizationTables.for_quality(90))
        assert header.component_shape(0) == (33, 21)
        assert header.component_shape(1) == (17, 11)

    def test_scan_header_roundtrip(self):
        header = ScanHeader((0, 1, 2), 0, 0)
        parsed, _ = ScanHeader.parse(header.to_bytes(), 0)
        assert parsed == header

    def test_missing_soi_raises(self):
        with pytest.raises(CodecFormatError):
            parse_frame_header(b"\x00\x00")

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_headers_raise_codec_format_error(self, case):
        from tests.codec_reference import decode_coefficients_reference

        for decode in (decode_coefficients, decode_coefficients_reference):
            with pytest.raises(CodecFormatError):
                decode(_MALFORMED[case])

    def test_find_segments_on_truncated_stream(self, color_image):
        codec = ProgressiveCodec(quality=85)
        data = codec.encode(color_image)
        segments = find_scan_segments(data)
        assert len(segments) == 10
        # Cut in the middle of the 4th scan: only 3 complete scans remain.
        cut = segments[3].start + (segments[3].end - segments[3].start) // 2
        truncated = data[:cut]
        assert len(find_scan_segments(truncated)) == 3


class TestScanScript:
    def test_default_color_script_has_ten_scans(self):
        script = ScanScript.default_color()
        assert len(script) == 10
        script.validate(3)

    def test_default_grayscale_script_has_ten_scans(self):
        script = ScanScript.default_grayscale()
        assert len(script) == 10
        script.validate(1)

    def test_sequential_script_covers_everything(self):
        ScanScript.sequential(3).validate(3)
        ScanScript.sequential(1).validate(1)

    def test_default_for_unknown_component_count(self):
        with pytest.raises(ValueError):
            ScanScript.default_for(2)

    def test_validate_rejects_overlap(self):
        script = ScanScript((ScanHeader((0,), 0, 10), ScanHeader((0,), 10, 63)))
        with pytest.raises(ValueError):
            script.validate(1)

    def test_validate_rejects_missing_coverage(self):
        script = ScanScript((ScanHeader((0,), 0, 10),))
        with pytest.raises(ValueError):
            script.validate(1)

    def test_validate_rejects_unknown_component(self):
        script = ScanScript((ScanHeader((0, 5), 0, 63),))
        with pytest.raises(ValueError):
            script.validate(1)


class TestProgressiveCodec:
    def test_roundtrip_quality_improves_with_scans(self, color_image):
        codec = ProgressiveCodec(quality=90)
        data = codec.encode(color_image)
        errors = [mse(color_image, codec.decode(data, max_scans=k)) for k in (1, 3, 5, 10)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 400.0

    def test_grayscale_roundtrip(self, gray_image):
        codec = ProgressiveCodec(quality=90)
        data = codec.encode(gray_image)
        assert codec.n_scans(data) == 10
        decoded = codec.decode(data)
        assert decoded.pixels.shape == gray_image.pixels.shape
        assert mse(gray_image, decoded) < 200.0

    def test_odd_dimensions_roundtrip(self, odd_sized_image):
        codec = ProgressiveCodec(quality=90)
        decoded = codec.decode(codec.encode(odd_sized_image))
        assert decoded.height == odd_sized_image.height
        assert decoded.width == odd_sized_image.width

    def test_higher_quality_means_more_bytes_and_lower_error(self, color_image):
        low = ProgressiveCodec(quality=40)
        high = ProgressiveCodec(quality=95)
        low_data = low.encode(color_image)
        high_data = high.encode(color_image)
        assert len(high_data) > len(low_data)
        assert mse(color_image, high.decode(high_data)) < mse(color_image, low.decode(low_data))

    def test_decode_truncated_stream(self, color_image):
        codec = ProgressiveCodec(quality=90)
        data = codec.encode(color_image)
        segments = find_scan_segments(data)
        truncated = data[: segments[4].end]  # 5 complete scans, no EOI
        image = codec.decode(truncated)
        assert image.pixels.shape == color_image.pixels.shape

    def test_negative_max_scans_is_rejected(self, color_image):
        from repro.codecs.parallel import DecodePool
        from repro.codecs.progressive import decode_progressive_batch

        codec = ProgressiveCodec(quality=90)
        data = codec.encode(color_image)
        coefficients, n_applied = decode_coefficients(data, max_scans=0)
        assert n_applied == 0
        assert all(not plane.any() for plane in coefficients.planes)
        # Slice semantics would decode all but the last |max_scans| scans.
        for max_scans in (-1, -9):
            with pytest.raises(ValueError, match="max_scans"):
                decode_coefficients(data, max_scans=max_scans)
            with pytest.raises(ValueError, match="max_scans"):
                codec.decode(data, max_scans=max_scans)
            for batch in ([data], []):
                with pytest.raises(ValueError, match="max_scans"):
                    decode_progressive_batch(batch, max_scans=max_scans)
        with DecodePool(2) as pool:
            for batch in ([data, data], []):
                with pytest.raises(ValueError, match="max_scans"):
                    pool.decode_batch(batch, max_scans=-1)

    def test_split_and_reassemble_scans(self, color_image):
        codec = ProgressiveCodec(quality=90)
        data = codec.encode(color_image)
        prefix, scans = split_scans(data)
        assert len(scans) == 10
        for k in (1, 4, 10):
            partial = assemble_partial_stream(prefix, scans[:k])
            coefficients, n_applied = decode_coefficients(partial)
            assert n_applied == k
        full = assemble_partial_stream(prefix, scans)
        assert np.array_equal(
            codec.decode(full).pixels, codec.decode(data).pixels
        )

    def test_scan_sizes_decrease_in_importance(self, color_image):
        # The DC + low-frequency scans carry more bytes per coefficient than
        # the trailing high-frequency scans for natural-ish images.
        codec = ProgressiveCodec(quality=90)
        _, scans = split_scans(codec.encode(color_image))
        total = sum(len(scan) for scan in scans)
        first_half = sum(len(scan) for scan in scans[:5])
        assert first_half > 0.35 * total

    def test_coefficient_planes_shapes(self, color_image):
        planes = image_to_coefficients(color_image, quality=90)
        assert len(planes.planes) == 3
        assert planes.planes[0].shape[1] == 64
        # Chroma is subsampled: fewer blocks than luma.
        assert planes.planes[1].shape[0] < planes.planes[0].shape[0]
        reconstructed = coefficients_to_image(planes)
        assert reconstructed.pixels.shape == color_image.pixels.shape

    def test_custom_script(self, color_image):
        script = ScanScript(
            (
                ScanHeader((0, 1, 2), 0, 0),
                ScanHeader((0,), 1, 63),
                ScanHeader((1,), 1, 63),
                ScanHeader((2,), 1, 63),
            )
        )
        codec = ProgressiveCodec(quality=90, script=script)
        data = codec.encode(color_image)
        assert codec.n_scans(data) == 4


class TestBaselineCodec:
    def test_roundtrip(self, color_image):
        codec = BaselineCodec(quality=90)
        data = codec.encode(color_image)
        decoded = codec.decode(data)
        assert mse(color_image, decoded) < 400.0

    def test_scan_count_equals_components(self, color_image, gray_image):
        codec = BaselineCodec(quality=90)
        assert codec.n_scans(codec.encode(color_image)) == 3
        assert codec.n_scans(codec.encode(gray_image)) == 1

    def test_partial_read_leaves_holes(self, color_image):
        # Reading only the first scan of a sequential stream decodes only the
        # luma channel; chroma stays flat, so the error is far higher than a
        # progressive scan-1 read of similar size.
        codec = BaselineCodec(quality=90)
        data = codec.encode(color_image)
        partial = codec.decode(data, max_scans=1)
        full = codec.decode(data)
        assert mse(color_image, partial) > mse(color_image, full)

    def test_baseline_and_progressive_sizes_are_close(self, color_image):
        baseline = BaselineCodec(quality=90).encode(color_image)
        progressive = ProgressiveCodec(quality=90).encode(color_image)
        ratio = len(progressive) / len(baseline)
        assert 0.7 < ratio < 1.6


class TestTranscode:
    def test_transcode_is_lossless(self, color_image):
        baseline = BaselineCodec(quality=85).encode(color_image)
        progressive = transcode_to_progressive(baseline)
        assert is_lossless_roundtrip(baseline, progressive)
        assert len(find_scan_segments(progressive)) == 10

    def test_transcode_back_to_sequential(self, color_image):
        baseline = BaselineCodec(quality=85).encode(color_image)
        progressive = transcode_to_progressive(baseline)
        sequential = transcode_to_progressive(progressive, ScanScript.sequential(3))
        assert is_lossless_roundtrip(baseline, sequential)
        assert len(find_scan_segments(sequential)) == 3

    def test_transcode_grayscale(self, gray_image):
        baseline = BaselineCodec(quality=85).encode(gray_image)
        progressive = transcode_to_progressive(baseline)
        assert len(find_scan_segments(progressive)) == 10
        assert is_lossless_roundtrip(baseline, progressive)

    def test_different_subsampling_is_not_lossless(self):
        image = ImageBuffer.from_array(np.random.default_rng(4).uniform(0, 255, size=(32, 32, 3)))
        subsampled = ProgressiveCodec(quality=90, subsampling=SUBSAMPLING_420).encode(image)
        full = ProgressiveCodec(quality=90, subsampling=SUBSAMPLING_NONE).encode(image)
        assert is_lossless_roundtrip(subsampled, full) is False
        assert is_lossless_roundtrip(full, subsampled) is False

    def test_same_coefficients_under_other_tables_is_not_lossless(self, color_image):
        coefficients = image_to_coefficients(color_image, quality=90)
        script = ScanScript.default_for(3)
        q90 = encode_coefficients(coefficients, script)
        coefficients.header = replace(coefficients.header, quant_tables=QuantizationTables.for_quality(20))
        q20 = encode_coefficients(coefficients, script)
        # Identical quantized coefficients, but the pixels they decode to differ.
        planes_q90, planes_q20 = decode_coefficients(q90)[0].planes, decode_coefficients(q20)[0].planes
        assert all(np.array_equal(a, b) for a, b in zip(planes_q90, planes_q20))
        codec = ProgressiveCodec()
        assert not np.array_equal(codec.decode(q90).pixels, codec.decode(q20).pixels)
        assert is_lossless_roundtrip(q90, q20) is False

    def test_decoded_pixels_identical_after_transcode(self, color_image):
        baseline = BaselineCodec(quality=85).encode(color_image)
        progressive = transcode_to_progressive(baseline)
        a = BaselineCodec().decode(baseline)
        b = ProgressiveCodec().decode(progressive)
        assert np.array_equal(a.pixels, b.pixels)


class TestImageBuffer:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            ImageBuffer(np.zeros((4, 4), dtype=np.float32))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_from_array_clips(self):
        image = ImageBuffer.from_array(np.array([[-10.0, 300.0], [0.0, 128.4]]))
        assert image.pixels[0, 0] == 0
        assert image.pixels[0, 1] == 255
        assert image.pixels[1, 1] == 128

    def test_grayscale_conversion_weights(self):
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[..., 1] = 255
        gray = ImageBuffer(rgb).to_grayscale()
        assert gray.pixels[0, 0] == 150  # round(0.587 * 255)
