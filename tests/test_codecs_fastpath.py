"""Differential tests: the vectorized fast path vs the scalar reference.

The fast path (``repro.codecs.fastpath``) must match the scalar
implementation on every valid stream:

* the *entropy stage* produces **byte-identical** streams given identical
  coefficient planes (``test_scan_bodies_identical_per_scan``), and
  decoding produces **identical coefficient planes** at every scan prefix;
* the *forward transform* (``repro.codecs.encodepath``) carries a
  documented ±1-quant-step error budget instead of byte identity, so
  whole-stream comparisons against the reference encode go through
  ``_assert_stream_parity`` (the full forward-path differential suite
  lives in ``tests/test_codecs_encodepath.py``).

The scalar side is the ``*_reference`` stages in
``tests/codec_reference.py``, with the whole-stream loops over them.  A
perf smoke test pins the ordering (the runtime coder must beat the
reference) so accidental de-vectorization fails CI.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import fastpath
from repro.codecs.baseline import BaselineCodec
from repro.codecs.fastpath import decode_streams_fast, encode_scan_bodies_fast
from repro.codecs.huffman import MAX_CODE_LENGTH, SUPER_BITS
from repro.codecs.image import ImageBuffer
from repro.codecs.markers import (
    SUBSAMPLING_420,
    SUBSAMPLING_NONE,
    find_scan_segments,
)
from repro.codecs.progressive import (
    ProgressiveCodec,
    ScanScript,
    assemble_partial_stream,
    decode_coefficients,
    decode_progressive_batch,
    empty_coefficients,
    encode_coefficients,
    image_to_coefficients,
    parse_frame_header,
    split_scans,
)
from repro.codecs.markers import FrameHeader, ScanHeader, write_scan_segment
from repro.codecs.quantization import QuantizationTables
from repro.codecs.rle import symbol_stream
from tests.codec_reference import (
    ac_band_symbols,
    dc_symbols,
    decode_coefficients_reference,
    decode_reference,
    encode_coefficients_reference,
    encode_reference,
    encode_scan_body_reference,
    walk_one_reference,
)


def make_structured_image(size: int = 48, seed: int = 0, color: bool = True) -> ImageBuffer:
    """A deterministic image with both low- and high-frequency content.

    Mirrors the helper in ``tests/conftest.py``; duplicated here because
    importing a ``conftest`` module by name is ambiguous when pytest runs
    the whole repo (``benchmarks/`` ships its own conftest).
    """
    rng = np.random.default_rng(seed)
    coordinates = np.linspace(0, 1, size)
    xx, yy = np.meshgrid(coordinates, coordinates)
    base = 128 + 80 * np.sin(4 * np.pi * xx) * np.cos(2 * np.pi * yy)
    texture = 30 * np.sin(24 * np.pi * (xx + 0.3 * yy))
    noise = rng.normal(0, 4, size=(size, size))
    luma = base + texture + noise
    if not color:
        return ImageBuffer.from_array(luma)
    rgb = np.stack([luma, 0.7 * luma + 40.0, 220.0 - 0.5 * luma], axis=-1)
    return ImageBuffer.from_array(rgb)


def _random_image(seed: int, size: int, color: bool) -> ImageBuffer:
    rng = np.random.default_rng(seed)
    shape = (size, size, 3) if color else (size, size)
    return ImageBuffer.from_array(rng.integers(0, 256, shape).astype(np.uint8))


def _encode_both(codec, image: ImageBuffer) -> tuple[bytes, bytes]:
    scalar_stream = encode_reference(
        image, codec.quality, codec.subsampling, sequential=isinstance(codec, BaselineCodec)
    )
    return scalar_stream, codec.encode(image)


def _assert_stream_parity(scalar_stream: bytes, fast_stream: bytes) -> None:
    """Whole-stream parity under the forward-path error budget.

    The two encodes may differ in bytes (the float32 forward transform can
    round a coefficient to the adjacent quant step — see
    ``repro.codecs.encodepath``), so compare decoded planes: identical
    geometry, every coefficient within 1 step, mismatches within the
    documented corpus rate (with small-sample slack for single images).
    """
    from repro.codecs.encodepath import MAX_MISMATCH_RATE

    scalar_coeffs, _ = decode_coefficients(scalar_stream)
    fast_coeffs, _ = decode_coefficients(fast_stream)
    total = 0
    mismatched = 0
    for scalar_plane, fast_plane in zip(scalar_coeffs.planes, fast_coeffs.planes):
        assert scalar_plane.shape == fast_plane.shape
        delta = np.abs(scalar_plane.astype(np.int64) - fast_plane.astype(np.int64))
        assert int(delta.max(initial=0)) <= 1
        mismatched += int((delta > 0).sum())
        total += delta.size
    assert mismatched <= max(3, int(total * MAX_MISMATCH_RATE))


def _spy_in_place(monkeypatch, takes):
    """Spy on ``_decode_in_place``: the scans it decodes that ``takes`` selects."""
    calls = []
    decode = fastpath._decode_in_place

    def spy(payload, sup_ac, sup_dc, long_codes, scan, coefficients, n_payload_bits):
        if takes(scan):
            calls.append(scan)
        return decode(payload, sup_ac, sup_dc, long_codes, scan, coefficients, n_payload_bits)

    monkeypatch.setattr(fastpath, "_decode_in_place", spy)
    return calls


@pytest.fixture()
def dc_replays(monkeypatch):
    """The DC-only scans the walk flags: one list entry per in-place decode."""
    return _spy_in_place(monkeypatch, lambda scan: scan.spectral_end == 0)


def _assert_decodes_match(stream: bytes, n_scans: int) -> None:
    for max_scans in range(1, n_scans + 1):
        scalar_coeffs, scalar_applied = decode_coefficients_reference(stream, max_scans)
        fast_coeffs, fast_applied = decode_coefficients(stream, max_scans=max_scans)
        assert scalar_applied == fast_applied
        for scalar_plane, fast_plane in zip(scalar_coeffs.planes, fast_coeffs.planes):
            assert np.array_equal(scalar_plane, fast_plane)


class TestStreamEquivalence:
    """Stream parity (entropy byte-identical, forward within budget) across configurations."""

    @pytest.mark.parametrize("subsampling", [SUBSAMPLING_420, SUBSAMPLING_NONE])
    @pytest.mark.parametrize("quality", [50, 90])
    def test_progressive_color(self, subsampling, quality):
        image = make_structured_image(41, seed=11, color=True)
        codec = ProgressiveCodec(quality=quality, subsampling=subsampling)
        scalar_stream, fast_stream = _encode_both(codec, image)
        _assert_stream_parity(scalar_stream, fast_stream)
        _assert_decodes_match(scalar_stream, codec.n_scans(scalar_stream))

    def test_progressive_grayscale(self):
        image = make_structured_image(40, seed=12, color=False)
        codec = ProgressiveCodec(quality=85)
        scalar_stream, fast_stream = _encode_both(codec, image)
        _assert_stream_parity(scalar_stream, fast_stream)
        _assert_decodes_match(scalar_stream, codec.n_scans(scalar_stream))

    @pytest.mark.parametrize("color", [True, False])
    def test_baseline_sequential(self, color):
        image = make_structured_image(35, seed=13, color=color)
        codec = BaselineCodec(quality=80)
        scalar_stream, fast_stream = _encode_both(codec, image)
        _assert_stream_parity(scalar_stream, fast_stream)
        _assert_decodes_match(scalar_stream, codec.n_scans(scalar_stream))

    def test_random_noise_images(self):
        # Noise maximizes symbol density and exercises long codes/ZRL runs.
        for seed, size, color in [(0, 24, True), (1, 17, True), (2, 32, False)]:
            image = _random_image(seed, size, color)
            codec = ProgressiveCodec(quality=95)
            scalar_stream, fast_stream = _encode_both(codec, image)
            _assert_stream_parity(scalar_stream, fast_stream)
            _assert_decodes_match(scalar_stream, codec.n_scans(scalar_stream))

    def test_all_ten_default_scans_present(self):
        image = make_structured_image(48, seed=14, color=True)
        codec = ProgressiveCodec()
        stream = codec.encode(image)
        assert codec.n_scans(stream) == 10
        _assert_decodes_match(stream, 10)

    def test_scan_bodies_identical_per_scan(self):
        """Scan-level check: each scan body matches segment-for-segment."""
        image = make_structured_image(33, seed=15, color=True)
        coefficients = image_to_coefficients(image, quality=90)
        script = ScanScript.default_for(coefficients.header.n_components)
        scalar_stream = encode_coefficients_reference(coefficients, script)
        fast_stream = encode_coefficients(coefficients, script)
        scalar_segments = find_scan_segments(scalar_stream)
        fast_segments = find_scan_segments(fast_stream)
        assert len(scalar_segments) == len(fast_segments) == len(script)
        for scalar_segment, fast_segment in zip(scalar_segments, fast_segments):
            assert (
                scalar_stream[scalar_segment.start : scalar_segment.end]
                == fast_stream[fast_segment.start : fast_segment.end]
            )

    def test_fastpath_decodes_scalar_stream_and_vice_versa(self):
        image = make_structured_image(30, seed=16, color=True)
        codec = ProgressiveCodec(quality=75)
        stream = encode_reference(image, quality=75)
        fast_image = codec.decode(stream)
        scalar_image = decode_reference(stream)
        assert fast_image == scalar_image


def _scalar_symbol_stream(planes, scans):
    """What the scalar coders emit scan by scan: ``(symbols, extras, scan_ends)``."""
    symbols: list[int] = []
    extras: list[tuple[int, int]] = []
    scan_ends: list[int] = []
    for scan in scans:
        for component in scan.component_ids:
            plane = planes[component].tolist()
            if scan.spectral_start == 0 and scan.spectral_end == 0:
                block_symbols, block_extras = dc_symbols([block[0] for block in plane])
                symbols += block_symbols
                extras += block_extras
                continue
            previous_dc = 0
            for block in plane:
                if scan.spectral_start == 0:
                    dc_syms, dc_extras = dc_symbols([block[0] - previous_dc])
                    previous_dc = block[0]
                    symbols += dc_syms
                    extras += dc_extras
                band = block[max(scan.spectral_start, 1) : scan.spectral_end + 1]
                block_symbols, block_extras = ac_band_symbols(band)
                symbols += block_symbols
                extras += block_extras
        scan_ends.append(len(symbols))
    return symbols, extras, scan_ends


def _assert_stream_matches_scalar(planes, scans) -> None:
    symbols, bits, n_bits, scan_ends = symbol_stream(planes, scans)
    expected_symbols, expected_extras, expected_ends = _scalar_symbol_stream(planes, scans)
    assert symbols.tolist() == expected_symbols
    assert list(zip(bits.tolist(), n_bits.tolist())) == expected_extras
    assert scan_ends.tolist() == expected_ends


class TestVectorizedSymbolArrays:
    """The one-pass symbol stream is the scalar coders' stream, item for item."""

    @given(
        st.lists(
            st.lists(st.integers(-300, 300), min_size=9, max_size=9),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_ac_symbol_arrays_match_scalar(self, blocks):
        plane = np.zeros((len(blocks), 64), dtype=np.int32)
        plane[:, 20:29] = blocks
        _assert_stream_matches_scalar([plane], [ScanHeader((0,), 20, 28)])

    @given(st.lists(st.integers(-2000, 2000), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_dc_symbol_arrays_match_scalar(self, values):
        plane = np.zeros((len(values), 64), dtype=np.int32)
        plane[:, 0] = values
        _assert_stream_matches_scalar([plane], [ScanHeader((0,), 0, 0)])

    @given(
        st.lists(
            st.lists(st.integers(-200, 200), min_size=64, max_size=64),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_symbol_arrays_match_scalar(self, blocks):
        plane = np.array(blocks, dtype=np.int32)
        _assert_stream_matches_scalar([plane], [ScanHeader((0,), 0, 63)])

    def test_zrl_heavy_band(self):
        plane = np.zeros((4, 64), dtype=np.int32)
        plane[0, 41] = 5        # two ZRLs then a coefficient
        plane[1, 63] = -1       # three ZRLs, coefficient on the last slot: no EOB
        plane[2, 17] = plane[2, 34] = 2  # a ZRL before each of two entries
        # block 3 stays all-zero: a single EOB
        _assert_stream_matches_scalar([plane], [ScanHeader((0,), 1, 63)])
        _assert_stream_matches_scalar([plane], [ScanHeader((0,), 0, 63)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_scripts_and_bands_match_scalar(self, seed):
        """Random components, block counts, band splits and scan groupings.

        Each component's 64 indices are cut into random bands; scans that
        share a band across components are merged at random into
        multi-component scans, and the scan order is shuffled.
        """
        rng = np.random.default_rng(seed)
        n_components = int(rng.integers(1, 4))
        planes = []
        for _ in range(n_components):
            n_blocks = int(rng.integers(0, 7))
            density = rng.random()
            values = rng.integers(-40, 41, size=(n_blocks, 64))
            planes.append((values * (rng.random((n_blocks, 64)) < density)).astype(np.int32))
        by_band: dict[tuple[int, int], list[int]] = {}
        for component in range(n_components):
            cuts = sorted(rng.choice(np.arange(1, 64), size=int(rng.integers(0, 6)), replace=False))
            edges = [0, *[int(cut) for cut in cuts], 64]
            for start, stop in zip(edges, edges[1:]):
                by_band.setdefault((start, stop - 1), []).append(component)
        scans = []
        for (start, end), components in by_band.items():
            if len(components) > 1 and rng.random() < 0.5:
                scans.append(ScanHeader(tuple(components), start, end))
            else:
                scans.extend(ScanHeader((component,), start, end) for component in components)
        order = rng.permutation(len(scans))
        _assert_stream_matches_scalar(planes, [scans[index] for index in order])


class TestMagnitudeLimits:
    """The format's magnitude edges: AC within +-32767, DC up to +-2**30."""

    @staticmethod
    def _coefficients(subsampling=SUBSAMPLING_420):
        header = FrameHeader(
            height=40,
            width=48,
            n_components=3,
            subsampling=subsampling,
            quant_tables=QuantizationTables.for_quality(90),
        )
        coefficients = empty_coefficients(header)
        rng = np.random.default_rng(0)
        for plane in coefficients.planes:
            plane[:, :12] = rng.integers(-20, 21, size=(plane.shape[0], 12))
        return coefficients

    _SCRIPTS = {"progressive": ScanScript.default_color(), "sequential": ScanScript.sequential(3)}

    @pytest.mark.parametrize("layout", sorted(_SCRIPTS))
    @pytest.mark.parametrize("position", [1, 5, 40])
    def test_ac_at_the_edge_round_trips(self, layout, position):
        coefficients = self._coefficients()
        coefficients.planes[2][1, position] = 32767
        coefficients.planes[0][3, position] = -32767
        script = self._SCRIPTS[layout]
        stream = encode_coefficients(coefficients, script)
        assert stream == encode_coefficients_reference(coefficients, script)
        decoded, _ = decode_coefficients(stream)
        for original, plane in zip(coefficients.planes, decoded.planes):
            assert np.array_equal(original, plane)

    @pytest.mark.parametrize("value", [32768, -32768])
    @pytest.mark.parametrize("layout", sorted(_SCRIPTS))
    @pytest.mark.parametrize("position", [1, 5, 40])
    def test_ac_past_the_edge_raises_naming_the_component(self, layout, position, value):
        coefficients = self._coefficients()
        coefficients.planes[2][1, position] = value
        script = self._SCRIPTS[layout]
        with pytest.raises(ValueError, match="component 2"):
            encode_coefficients(coefficients, script)
        with pytest.raises(ValueError, match="component 2"):
            encode_coefficients_reference(coefficients, script)

    @pytest.mark.parametrize("layout", sorted(_SCRIPTS))
    def test_dc_up_to_two_to_the_thirty_round_trips(self, layout, dc_replays):
        coefficients = self._coefficients(SUBSAMPLING_NONE)
        for plane in coefficients.planes:
            plane[:, 0] = np.resize([1 << 30, -(1 << 30), 0, -(1 << 30)], plane.shape[0])
        script = self._SCRIPTS[layout]
        stream = encode_coefficients(coefficients, script)
        assert stream == encode_coefficients_reference(coefficients, script)
        decoded, _ = decode_coefficients(stream)
        for original, plane in zip(coefficients.planes, decoded.planes):
            assert np.array_equal(original, plane)
        # Diffs outside +-32767 do not fit a packed entry: the progressive
        # DC scan is finished by the cold replay; a mixed scan has no walk.
        assert len(dc_replays) == (1 if layout == "progressive" else 0)


class TestPropertyRoundTrip:
    """Property-style: random coefficient planes round-trip bit-identically."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_random_planes_roundtrip(self, seed, use_420):
        rng = np.random.default_rng(seed)
        image = ImageBuffer.from_array(
            rng.integers(0, 256, (16 + int(rng.integers(0, 17)),) * 2 + (3,)).astype(
                np.uint8
            )
        )
        subsampling = SUBSAMPLING_420 if use_420 else SUBSAMPLING_NONE
        coefficients = image_to_coefficients(image, quality=70, subsampling=subsampling)
        script = ScanScript.default_for(coefficients.header.n_components)
        scalar_stream = encode_coefficients_reference(coefficients, script)
        fast_stream = encode_coefficients(coefficients, script)
        assert scalar_stream == fast_stream
        decoded, _ = decode_coefficients(fast_stream)
        for original_plane, decoded_plane in zip(coefficients.planes, decoded.planes):
            assert np.array_equal(original_plane, decoded_plane)


class TestScanBodyFunctions:
    """Direct checks of the scan-level fast-path entry points."""

    def test_decode_scan_body_fast_single_segment(self):
        image = make_structured_image(25, seed=17, color=True)
        coefficients = image_to_coefficients(image, quality=90)
        script = ScanScript.default_for(3)
        stream = encode_coefficients(coefficients, script)
        header, _ = parse_frame_header(stream)
        segments = find_scan_segments(stream)
        fast_result = empty_coefficients(header)
        for segment in segments:
            assert decode_streams_fast([(stream, (segment,), fast_result)]) is None
        for original_plane, decoded_plane in zip(coefficients.planes, fast_result.planes):
            assert np.array_equal(original_plane, decoded_plane)

    def test_encode_scan_bodies_fast_is_scalar_body(self):
        image = make_structured_image(27, seed=18, color=True)
        coefficients = image_to_coefficients(image, quality=90)
        script = ScanScript.default_for(3)
        assert encode_scan_bodies_fast(coefficients, script) == [
            encode_scan_body_reference(coefficients, scan) for scan in script
        ]

    def test_truncated_scan_payload_raises_documented_errors(self):
        """Deep truncation must raise EOFError/ValueError, never IndexError.

        A heavily truncated DC scan over many blocks decodes garbage through
        the payload, through all the 1-padding, and off the end of the refill
        word list — the guard must convert that into the documented EOFError
        rather than leaking an IndexError.
        """
        from repro.codecs.markers import EOI, write_scan_segment
        from repro.codecs.progressive import split_scans

        image = make_structured_image(128, seed=19, color=True)
        stream = ProgressiveCodec(quality=90).encode(image)
        prefix, _ = split_scans(stream)
        segment = find_scan_segments(stream)[0]  # DC scan, many blocks
        body = stream[segment.payload_start : segment.end]
        for cut in (len(body) - 8, len(body) // 2, 40):
            bad = prefix + write_scan_segment(segment.header, body[:cut]) + EOI
            with pytest.raises((EOFError, ValueError)):
                decode_coefficients(bad)


#: The two decode tiers: scalar reference and the pair-LUT fast path.
_TIERS = (("scalar", decode_coefficients_reference), ("fast", decode_coefficients))


def _tier_error_classes(stream: bytes) -> list[str]:
    """Decode ``stream`` on every tier; return each tier's outcome class.

    Outcomes are ``"ok"`` or the raised error's class name.  Only the
    documented classes are caught — anything else (IndexError, TypeError)
    propagates and fails the calling test.
    """
    outcomes = []
    for _, decode in _TIERS:
        try:
            decode(stream)
            outcomes.append("ok")
        except (EOFError, ValueError) as error:
            outcomes.append(type(error).__name__)
    return outcomes


class TestInvalidStreamFuzz:
    """Both tiers must raise the *same* error class on invalid streams.

    The fast tier decodes the 1-padding as data and classifies defects after
    the fact, so its raise sites carry offset-based classification
    (``_invalid_code_error`` / ``_overflow_error``, in ``_decode_in_place``) to
    mirror the scalar reference's bit-by-bit semantics.  These tests pin
    that contract for the three documented defect families — truncation
    mid-symbol, invalid prefix, band overflow.
    """

    @staticmethod
    def _stream_and_segments():
        image = make_structured_image(64, seed=3, color=True)
        stream = ProgressiveCodec(quality=90).encode(image)
        return stream, find_scan_segments(stream)

    @staticmethod
    def _rebuild(stream, segments, target_index, new_body):
        from repro.codecs.markers import EOI, write_scan_segment
        from repro.codecs.progressive import split_scans

        prefix, _ = split_scans(stream)
        out = prefix
        for index, segment in enumerate(segments):
            body = (
                new_body
                if index == target_index
                else stream[segment.payload_start : segment.end]
            )
            out += write_scan_segment(segment.header, body)
        return out + EOI

    def test_truncated_mid_symbol_same_error_class(self):
        stream, segments = self._stream_and_segments()
        for index, segment in enumerate(segments):
            body = stream[segment.payload_start : segment.end]
            for cut in {len(body) - 1, len(body) - 3, len(body) // 2, 20}:
                if cut <= 8 or cut >= len(body):
                    continue
                bad = self._rebuild(stream, segments, index, body[:cut])
                outcomes = _tier_error_classes(bad)
                assert outcomes[0] != "ok", f"scan {index} cut {cut} not defective"
                assert outcomes[0] == outcomes[1], (
                    f"scan {index} cut {cut}: {dict(zip([t[0] for t in _TIERS], outcomes))}"
                )

    def test_bit_flip_fuzz_same_error_class(self):
        stream, segments = self._stream_and_segments()
        rng = np.random.default_rng(29)
        for index, segment in enumerate(segments):
            body = stream[segment.payload_start : segment.end]
            for _ in range(6):
                position = int(rng.integers(8, len(body)))
                flipped = bytes([body[position] ^ (1 << int(rng.integers(0, 8)))])
                mutated = body[:position] + flipped + body[position + 1 :]
                if b"\xff" in mutated[8:]:
                    mutated = mutated.replace(b"\xff", b"\xfe")
                bad = self._rebuild(stream, segments, index, mutated)
                outcomes = _tier_error_classes(bad)
                assert outcomes[0] == outcomes[1], (
                    f"scan {index} flip @{position}: "
                    f"{dict(zip([t[0] for t in _TIERS], outcomes))}"
                )

    def test_garbage_past_padding_ignored_identically(self):
        """Trailing junk past the needed symbols is ignored by every tier."""
        stream, segments = self._stream_and_segments()
        baseline, _ = decode_coefficients(stream)
        rng = np.random.default_rng(31)
        for index, segment in enumerate(segments):
            body = stream[segment.payload_start : segment.end]
            junk = bytes(rng.integers(0, 255, 32, endpoint=True).astype(np.uint8))
            junk = junk.replace(b"\xff", b"\xfe")  # keep marker parsing intact
            padded_stream = self._rebuild(stream, segments, index, body + junk)
            for _, decode in _TIERS:
                decoded, _ = decode(padded_stream)
                for expected, actual in zip(baseline.planes, decoded.planes):
                    assert np.array_equal(expected, actual)

    def test_oversubscribed_table_same_error_class(self):
        """Length counts with a Kraft sum over 1 are no prefix code.

        One flipped byte of a table's counts (here: every symbol at length
        1) used to decode garbage silently on the scalar tier and leak an
        ``IndexError`` out of the fast tier's table build.
        """
        stream, segments = self._stream_and_segments()
        for index in (0, 1):  # the DC scan and the first AC scan
            segment = segments[index]
            body = stream[segment.payload_start : segment.end]
            n_symbols = int.from_bytes(body[:2], "little")
            assert n_symbols > 2
            counts = bytes([n_symbols]) + bytes(15)
            bad = self._rebuild(stream, segments, index, body[:2] + counts + body[18:])
            assert _tier_error_classes(bad) == ["ValueError", "ValueError"], index

    def test_zero_category_nonzero_run_same_error_class(self):
        """A zero-category symbol with a nonzero run errs identically.

        The symbol (never emitted by an encoder) is crafted with a run that
        overflows the band — the scalar reference raises at the symbol
        itself, the fast tier treats it as a pure zero-run, finishes the
        block, and then hits the crafted invalid prefix that follows — and
        both tiers must surface ``ValueError``.
        """
        from tests.codec_reference import BitWriter
        from tests.codec_reference import HuffmanTable

        stream, segments = self._stream_and_segments()
        target = next(
            index
            for index, segment in enumerate(segments)
            if segment.header.spectral_start >= 1
        )
        header = segments[target].header
        band_length = header.spectral_end - header.spectral_start + 1
        # Incomplete canonical code: 00 = EOB, 01 = (run 0, category 1),
        # 10 = the bogus (run 5, category 0) symbol, prefix 11 invalid.
        table = HuffmanTable(code_lengths={0x00: 2, 0x11: 2, 0x50: 2})
        writer = BitWriter()
        for _ in range(band_length - 1):  # coefficients up to the band edge
            table.encode_symbol(0x11, writer)
            writer.write_bits(1, 1)
        table.encode_symbol(0x50, writer)  # run of 5 overflows the band
        for _ in range(8):  # 16 in-payload bits of the invalid 11-prefix
            writer.write_bits(0b11, 2)
            writer.write_bits(0b01, 2)
        payload = writer.getvalue()
        assert b"\xff" not in payload  # must not fabricate a marker
        bad = self._rebuild(stream, segments, target, table.to_bytes() + payload)
        outcomes = _tier_error_classes(bad)
        assert outcomes == ["ValueError", "ValueError"]

    @staticmethod
    def _overflow_body(n_fill: int, overflow_symbol: int, dc: bool, inside: bool) -> bytes:
        """A scan body whose first defect is a band overflow in block 0.

        ``n_fill`` one-bit coefficients, then ``overflow_symbol`` — a run of
        5 *with* a coefficient, so it overshoots the band and is the
        band-overflow family proper (not the zero-category treatment
        above).  ``inside``: its magnitude bits and 32 more payload bits
        (an invalid prefix, so the scan cannot complete) follow; otherwise
        the payload ends on its code and the magnitude crosses the end.
        """
        from tests.codec_reference import BitWriter
        from tests.codec_reference import HuffmanTable

        # Canonical codes: 00 = EOB / zero DC diff, 01 = (run 0, category
        # 1), 10 = the overflowing symbol, prefix 11 invalid.
        table = HuffmanTable(code_lengths={0x00: 2, 0x01: 2, overflow_symbol: 2})
        writer = BitWriter()
        if dc:
            table.encode_symbol(0x00, writer)
        for _ in range(n_fill):
            table.encode_symbol(0x01, writer)
            writer.write_bits(0, 1)
        table.encode_symbol(overflow_symbol, writer)
        if inside:
            writer.write_bits(0, overflow_symbol & 0x0F)
            for _ in range(8):
                writer.write_bits(0b1101, 4)
        payload = writer.getvalue()
        assert b"\xff" not in payload  # must not fabricate a marker
        return table.to_bytes() + payload

    @pytest.fixture()
    def overflow_calls(self, monkeypatch):
        """Spy on ``_overflow_error``: ``(calling function, line, class)``."""
        calls = []
        classify = fastpath._overflow_error

        def spy(consumed_after, n_payload_bits):
            error = classify(consumed_after, n_payload_bits)
            caller = sys._getframe(1)
            calls.append((caller.f_code.co_name, caller.f_lineno, type(error).__name__))
            return error

        monkeypatch.setattr(fastpath, "_overflow_error", spy)
        return calls

    def test_band_overflow_ac_scan_same_error_class(self, overflow_calls):
        """AC-only scan: the batched decode finds the overflow by replay."""
        stream, segments = self._stream_and_segments()
        target = next(
            index
            for index, segment in enumerate(segments)
            if segment.header.spectral_start >= 1
        )
        n_fill = segments[target].header.band_length - 1
        inside = self._overflow_body(n_fill, 0x58, dc=False, inside=True)
        bad = self._rebuild(stream, segments, target, inside)
        assert _tier_error_classes(bad) == ["ValueError", "ValueError"]
        assert [(name, cls) for name, _, cls in overflow_calls] == [
            ("_decode_in_place", "ValueError")
        ]
        # Magnitude bits crossing the payload end: the in-place loop reads
        # them from the padding, and the classifier answers EOFError, as the
        # scalar reference reads a symbol's bits before its band check.
        del overflow_calls[:]
        crossing = self._overflow_body(n_fill, 0x58, dc=False, inside=False)
        bad = self._rebuild(stream, segments, target, crossing)
        assert _tier_error_classes(bad) == ["EOFError", "EOFError"]
        assert [(name, cls) for name, _, cls in overflow_calls] == [
            ("_decode_in_place", "EOFError")
        ]

    def test_band_overflow_mixed_scan_same_error_class(self, overflow_calls):
        """Sequential scan: every in-place raise site classifies by offset.

        Three shapes reach the three ``_overflow_error`` sites of
        ``_decode_in_place``: the overflowing symbol first in its
        probe window, second in it (an odd fill count pairs it behind the
        last coefficient: its category is sized so that 3 + 2 + category
        bits fill the window exactly), and too wide for the window (a
        2-bit code + ``SUPER_BITS`` magnitude bits: the two-level escape).
        """
        image = make_structured_image(64, seed=3, color=True)
        stream = BaselineCodec(quality=90).encode(image)
        segments = find_scan_segments(stream)
        assert segments[0].header.spectral_start == 0
        n_fill = segments[0].header.spectral_end - 1
        # Run 5 with a coefficient: 0x57 / 0x5C at 12-bit windows.
        pairs, too_wide = 0x50 | (SUPER_BITS - 5), 0x50 | SUPER_BITS
        for shape in [(n_fill, pairs), (n_fill - 1, pairs), (n_fill, too_wide)]:
            for inside, expected in [(True, "ValueError"), (False, "EOFError")]:
                body = self._overflow_body(*shape, dc=True, inside=inside)
                bad = self._rebuild(stream, segments, 0, body)
                assert _tier_error_classes(bad) == [expected, expected], (shape, inside)
        assert [(name, cls) for name, _, cls in overflow_calls] == [
            ("_decode_in_place", "ValueError"),
            ("_decode_in_place", "EOFError"),
        ] * 3
        assert len({line for _, line, _ in overflow_calls}) == 3


class TestDcOnlyPrefixFuzz:
    """Group-1 prefixes under fuzz: the walked DC decode against the scalar tier.

    A group-1 read is the frame header, the DC scan and EOI, assembled as
    the PCR reader does (``assemble_partial_stream``).  Truncated or
    bit-flipped, it must give the scalar reference's coefficients or error
    class; every error comes out of the in-place decode (``_decode_in_place``),
    and a valid prefix never reaches it.
    """

    @staticmethod
    def _sources() -> list[bytes]:
        return [
            ProgressiveCodec(quality=90).encode(make_structured_image(64, seed=3)),
            ProgressiveCodec(quality=50).encode(make_structured_image(40, seed=4, color=False)),
            ProgressiveCodec(quality=95).encode(_random_image(5, 33, color=True)),
            ProgressiveCodec(quality=90, subsampling=SUBSAMPLING_NONE).encode(
                _random_image(6, 48, color=True)
            ),
        ]

    @staticmethod
    def _group1(stream: bytes):
        """The stream's group-1 prefix, its DC scan header, and that scan's body."""
        from repro.codecs.huffman import MAX_CODE_LENGTH

        prefix, scans = split_scans(stream)
        segment = find_scan_segments(stream)[0]
        assert segment.header.spectral_end == 0
        body = stream[segment.payload_start : segment.end]
        table_bytes = 2 + MAX_CODE_LENGTH + int.from_bytes(body[:2], "little")
        return assemble_partial_stream(prefix, scans[:1]), segment.header, body, table_bytes

    @staticmethod
    def _rebuilt(stream: bytes, header, body: bytes) -> bytes:
        prefix, _ = split_scans(stream)
        return assemble_partial_stream(prefix, [write_scan_segment(header, body)])

    @staticmethod
    def _outcomes(stream: bytes) -> list[str]:
        """Each tier's outcome class; where both decode, identical planes."""
        outcomes, decoded = [], []
        for _, decode in _TIERS:
            try:
                coefficients, _ = decode(stream)
                outcomes.append("ok")
                decoded.append(coefficients.planes)
            except (EOFError, ValueError) as error:
                outcomes.append(type(error).__name__)
        if len(decoded) == 2:
            for scalar_plane, fast_plane in zip(*decoded):
                assert np.array_equal(scalar_plane, fast_plane)
        return outcomes

    def test_valid_prefixes_never_reach_the_cold_replay(self, dc_replays):
        for stream in self._sources():
            group1, *_ = self._group1(stream)
            assert self._outcomes(group1) == ["ok", "ok"]
            _assert_decodes_match(stream, 1)
        assert dc_replays == []

    def test_a_frame_without_blocks_decodes_like_the_reference(self, dc_replays):
        """A 0 x 0 frame: the DC scan has no diffs to take."""
        from repro.codecs.markers import EOI, SOI

        stream = self._sources()[0]
        _, header, body, _ = self._group1(stream)
        frame = FrameHeader(
            height=0,
            width=0,
            n_components=3,
            subsampling=SUBSAMPLING_420,
            quant_tables=QuantizationTables.for_quality(90),
        )
        empty = SOI + frame.to_bytes() + write_scan_segment(header, body) + EOI
        assert self._outcomes(empty) == ["ok", "ok"]
        assert dc_replays == []

    def test_truncated_prefixes_same_error_class(self, dc_replays):
        for stream in self._sources():
            _, header, body, table_bytes = self._group1(stream)
            cuts = range(table_bytes + 1, len(body), max(1, (len(body) - table_bytes) // 12))
            for cut in [*cuts, len(body) - 1]:
                replays_before = len(dc_replays)
                outcomes = self._outcomes(self._rebuilt(stream, header, body[:cut]))
                assert outcomes[0] != "ok" and outcomes[0] == outcomes[1], (cut, outcomes)
                assert len(dc_replays) == replays_before + 1

    def test_bit_flips_same_error_class(self, dc_replays):
        rng = np.random.default_rng(37)
        defective = 0
        for stream in self._sources():
            _, header, body, table_bytes = self._group1(stream)
            for _ in range(50):
                position = int(rng.integers(table_bytes, len(body)))
                flipped = bytes([body[position] ^ (1 << int(rng.integers(0, 8)))])
                mutated = body[:position] + flipped + body[position + 1 :]
                replays_before = len(dc_replays)
                outcomes = self._outcomes(self._rebuilt(stream, header, mutated))
                assert outcomes[0] == outcomes[1], (position, outcomes)
                if outcomes[1] != "ok":
                    defective += 1
                    assert len(dc_replays) == replays_before + 1
        # An encoder's code is complete, so most flips only change diffs;
        # a few desynchronise the scan into over-reading its payload (5 of
        # these 200; truncation above reaches that path every time).
        assert defective >= 4


class TestRecordLevelFuzz:
    """``TestDcOnlyPrefixFuzz``'s defective prefixes inside a record of eight.

    A record decodes through one ``decode_progressive_batch`` call, so a
    defect must still raise what its stream raises alone — the same class
    and message — with a note naming its position; with several defects the
    lowest position wins, whichever step of the decode finds each.  At the
    default cap the record is one pass; at 64 bytes every stream is a pass
    and a walk batch of its own.
    """

    _POSITIONS = (0, 3, 7)

    @pytest.fixture(autouse=True, params=[None, 64], ids=["default-cap", "cap-64"])
    def walk_cap(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fastpath, "_WALK_BATCH_BYTES", request.param)

    @staticmethod
    def _valid() -> list[bytes]:
        fuzz = TestDcOnlyPrefixFuzz
        prefixes = [fuzz._group1(stream)[0] for stream in fuzz._sources()]
        return prefixes + prefixes

    @staticmethod
    def _alone(stream: bytes) -> Exception:
        with pytest.raises((EOFError, ValueError)) as caught:
            decode_coefficients(stream)
        return caught.value

    @staticmethod
    def _defects() -> list[bytes]:
        """Truncated and bit-flipped group-1 prefixes that fail alone."""
        fuzz = TestDcOnlyPrefixFuzz
        rng = np.random.default_rng(43)
        defects = []
        for stream in fuzz._sources():
            _, header, body, table_bytes = fuzz._group1(stream)
            for cut in (table_bytes + 1, (table_bytes + len(body)) // 2, len(body) - 1):
                defects.append(fuzz._rebuilt(stream, header, body[:cut]))
            flipped = []
            for _ in range(60):  # most flips only change diffs
                position = int(rng.integers(table_bytes, len(body)))
                flip = bytes([body[position] ^ (1 << int(rng.integers(0, 8)))])
                mutated = fuzz._rebuilt(stream, header, body[:position] + flip + body[position + 1 :])
                try:
                    decode_coefficients(mutated)
                except (EOFError, ValueError):
                    flipped.append(mutated)
            defects += flipped[:2]
        assert len(defects) >= 4 * 3 + 3
        return defects

    @staticmethod
    def _raised(record: list[bytes]) -> Exception:
        with pytest.raises((EOFError, ValueError)) as caught:
            decode_progressive_batch(record)
        return caught.value

    def test_each_defect_raises_its_own_error_naming_its_position(self):
        valid = self._valid()
        for defect in self._defects():
            alone = self._alone(defect)
            for position in self._POSITIONS:
                record = valid[:position] + [defect] + valid[position + 1 :]
                raised = self._raised(record)
                assert type(raised) is type(alone) and str(raised) == str(alone)
                assert raised.__notes__ == [f"stream {position} of 8"]

    def test_the_lower_of_two_defects_wins(self):
        valid = self._valid()
        defects = self._defects()
        first, second = defects[0], defects[-1]
        for low, high in ((0, 7), (3, 7), (0, 3)):
            record = list(valid)
            record[low], record[high] = first, second
            raised = self._raised(record)
            assert type(raised) is type(self._alone(first)) and str(raised) == str(self._alone(first))
            assert raised.__notes__ == [f"stream {low} of 8"]

    def test_a_later_header_or_mixed_scan_error_does_not_come_first(self):
        """Frame headers are parsed and mixed scans decoded before the walk;
        a lower stream whose DC scan fails only in the walk's finisher still
        wins, and a lower header or mixed-scan defect wins over it."""
        valid = self._valid()
        dc_defect = self._defects()[1]
        baseline = BaselineCodec(quality=90).encode(make_structured_image(32, seed=8))
        segment = find_scan_segments(baseline)[0]
        body = baseline[segment.payload_start : segment.end]
        mixed_defect = TestDcOnlyPrefixFuzz._rebuilt(baseline, segment.header, body[: len(body) // 2])
        header_defect = valid[0][:9]  # cut inside the frame header
        for late in (header_defect, mixed_defect):
            for first, second in ((dc_defect, late), (late, dc_defect)):
                record = list(valid)
                record[2], record[5] = first, second
                raised = self._raised(record)
                alone = self._alone(first)
                assert type(raised) is type(alone) and str(raised) == str(alone)
                assert raised.__notes__ == ["stream 2 of 8"]


class TestInPlaceLoopOnWalkedScans:
    """The in-place loop on valid DC-only and AC-only scans: the walk's planes.

    The walk hands a valid scan to ``_decode_in_place`` only for a DC diff
    too wide for a packed entry, so without this test the loop would never
    run on a valid scan whose band starts past the DC slot.
    """

    def test_each_scan_of_the_golden_and_group1_streams(self, monkeypatch):
        from repro.codecs.huffman import HuffmanTable
        from tests.test_codecs_golden import CASES

        streams = [encode_coefficients(make(), script) for make, script, _ in CASES.values()]
        streams += TestDcOnlyPrefixFuzz._sources()
        decode_in_place = fastpath._decode_in_place
        walk_replays = _spy_in_place(monkeypatch, lambda scan: True)
        kinds = set()
        for stream in streams:
            header, _ = parse_frame_header(stream)
            for segment in find_scan_segments(stream):
                scan = segment.header
                if scan.spectral_start == 0 < scan.spectral_end:
                    continue  # a mixed scan is never walked
                kind = "dc" if scan.spectral_end == 0 else "ac"
                walked = empty_coefficients(header)
                assert decode_streams_fast([(stream, [segment], walked)]) is None
                body = stream[segment.payload_start : segment.end]
                (pair, _, _, long_codes), consumed = HuffmanTable.cached_from_bytes(body, kind)
                in_place = empty_coefficients(header)
                payload = body[consumed:]
                decode_in_place(payload, pair, pair, long_codes, scan, in_place, len(payload) * 8)
                for walked_plane, plane in zip(walked.planes, in_place.planes):
                    assert np.array_equal(walked_plane, plane), (kind, scan)
                kinds.add(kind)
        assert kinds == {"dc", "ac"}
        # Only the extreme golden case's DC diffs (+-2**30) left the walk.
        assert walk_replays and all(scan.spectral_end == 0 for scan in walk_replays)


class TestBlockSegmentation:
    """The vector block segmentation of ``_finish_ac_scans``, shape by shape.

    Each test builds coefficient planes (or a raw symbol stream) whose block
    structure stresses one case of the segmentation — blocks that end
    without an EOB, band length 1, component boundaries, entries that cross
    a block end — and requires the scalar reference's coefficients or error
    class, at the default walk-batch cap and at 64 bytes.
    """

    @pytest.fixture(autouse=True, params=[None, 64], ids=["default-cap", "cap-64"])
    def walk_cap(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fastpath, "_WALK_BATCH_BYTES", request.param)

    @pytest.fixture()
    def replays(self, monkeypatch):
        """The AC-only scans the epilogue flags: one list entry per in-place decode."""
        return _spy_in_place(monkeypatch, lambda scan: scan.spectral_start > 0)

    @staticmethod
    def _empty_planes(size: int = 32):
        """All-zero 4:2:0 planes: 16 luma and 4 + 4 chroma blocks at 32 px."""
        header = image_to_coefficients(
            make_structured_image(size, seed=1), quality=90, subsampling=SUBSAMPLING_420
        ).header
        return empty_coefficients(header)

    @staticmethod
    def _stream(coefficients, scans, bodies=None) -> bytes:
        """SOI + SOF + the given scans (any script, valid or not) + EOI."""
        from repro.codecs.markers import EOI, SOI, write_scan_segment

        parts = [SOI, coefficients.header.to_bytes()]
        for index, scan in enumerate(scans):
            body = bodies[index] if bodies else encode_scan_body_reference(coefficients, scan)
            parts.append(write_scan_segment(scan, body))
        return b"".join(parts + [EOI])

    @staticmethod
    def _decode_both(stream: bytes):
        scalar, _ = decode_coefficients_reference(stream)
        fast, _ = decode_coefficients(stream)
        for scalar_plane, fast_plane in zip(scalar.planes, fast.planes):
            assert np.array_equal(scalar_plane, fast_plane)
        return fast

    def _assert_round_trip(self, coefficients, scans) -> None:
        decoded = self._decode_both(self._stream(coefficients, scans))
        for scan in scans:
            band = slice(scan.spectral_start, scan.spectral_end + 1)
            for component in scan.component_ids:
                assert np.array_equal(
                    decoded.planes[component][:, band], coefficients.planes[component][:, band]
                )

    def test_full_blocks_back_to_back_and_across_a_component_boundary(self, replays):
        """No EOB anywhere: every block's last band slot is nonzero."""
        from repro.codecs.markers import ScanHeader

        coefficients = self._empty_planes()
        rng = np.random.default_rng(41)
        for plane in coefficients.planes:
            plane[:, 9] = rng.choice([-3, -1, 1, 2, 40], size=plane.shape[0])
            plane[::3, 5:9] = rng.integers(-5, 6, size=plane[::3, 5:9].shape)
            plane[:, 63] = 1  # 1..63: three ZRLs, then run 14: full by a long run
        scans = [ScanHeader((0, 1, 2), 5, 9), ScanHeader((2, 0), 10, 63)]
        self._assert_round_trip(coefficients, scans)
        assert replays == []

    def test_band_length_one(self, replays):
        from repro.codecs.markers import ScanHeader

        coefficients = self._empty_planes()
        rng = np.random.default_rng(42)
        for plane in coefficients.planes:
            plane[:, 7] = rng.choice([0, 0, 1, -2, 300], size=plane.shape[0])
        coefficients.planes[1][:, 7] = 5  # a component of full blocks only
        coefficients.planes[2][:, 7] = 0  # and one of EOBs only
        self._assert_round_trip(coefficients, [ScanHeader((0, 1, 2), 7, 7)])
        assert replays == []

    def test_empty_block_directly_after_a_full_one(self, replays):
        from repro.codecs.markers import ScanHeader

        coefficients = self._empty_planes()
        luma = coefficients.planes[0]
        full = [0, 2, 3, 6, 9, 10, 15]
        luma[full, 20] = -7  # full blocks: last slot of band 11..20
        luma[[4, 12], 13] = 3  # ordinary blocks: a coefficient, then EOB
        # blocks 1, 5, 7, 8, 11, 13, 14 stay empty: a bare EOB after a full block
        self._assert_round_trip(coefficients, [ScanHeader((0,), 11, 20)])
        assert replays == []

    @staticmethod
    def _crafted_body(blocks) -> bytes:
        """A scan body from per-block ``(symbol, bits, n_bits)`` lists."""
        from tests.codec_reference import BitWriter
        from tests.codec_reference import HuffmanTable

        table = HuffmanTable.from_symbols([s for block in blocks for s, _, _ in block])
        writer = BitWriter()
        for block in blocks:
            for symbol, bits, n_bits in block:
                table.encode_symbol(symbol, writer)
                writer.write_bits(bits, n_bits)
        return table.to_bytes() + writer.getvalue()

    #: Blocks of a 20-slot band: a coefficient then EOB; the last slot filled
    #: through a ZRL (no EOB); a bare EOB.
    _ORDINARY = [(0x21, 1, 1), (0x00, 0, 0)]
    _FULL = [(0xF0, 0, 0), (0x32, 0b10, 2)]
    _EMPTY = [(0x00, 0, 0)]

    def test_zrl_crossing_the_band_end_ends_its_block(self, replays):
        """A ZRL whose 16-run overshoots: ``read_ac_band``'s ``index += 16``."""
        from repro.codecs.markers import ScanHeader

        scan = ScanHeader((0,), 1, 20)
        crossing = [(0x91, 0, 1), (0xF0, 0, 0)]  # slot 9 = -1, then 10 + 16 > 20
        blocks = [self._ORDINARY, self._FULL, crossing, self._FULL, self._EMPTY]
        blocks += [self._ORDINARY, crossing, crossing, self._FULL] + [self._EMPTY] * 7
        coefficients = self._empty_planes()
        stream = self._stream(coefficients, [scan], [self._crafted_body(blocks)])
        decoded = self._decode_both(stream)
        luma = decoded.planes[0]
        assert luma[2, 10] == -1 and not luma[2, 11:].any()
        assert luma[3, 20] == 2 and luma[5, 3] == 1 and luma[7, 10] == -1
        assert replays == [scan]

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "crossing-end"])
    def test_coefficient_run_crossing_the_band_end_mid_scan(self, replays, inside):
        """Run 5 with a coefficient from position 16 of 20, after two full blocks.

        Inside the payload the band check raises ``ValueError``; when the
        payload ends on the symbol's code its 12 magnitude bits cross the
        end first: ``EOFError``, as the scalar decoder reads before it checks.
        """
        from repro.codecs.markers import ScanHeader

        scan = ScanHeader((0,), 1, 20)
        overshoot = [(0xF1, 1, 1), (0x5C, 0x800, 12 if inside else 0)]
        blocks = [self._FULL, self._FULL, overshoot]
        if inside:
            blocks += [self._ORDINARY] * 13
        coefficients = self._empty_planes()
        stream = self._stream(coefficients, [scan], [self._crafted_body(blocks)])
        expected = "ValueError" if inside else "EOFError"
        assert _tier_error_classes(stream) == [expected, expected]
        assert replays == [scan]

    def test_invalid_prefix_opening_the_last_block_of_a_63_slot_band(self, replays):
        """The sentinel as the entry that would complete the scan.

        On a 63-slot band the invalid-window sentinel's advance lands, from
        a block start, exactly on the last slot — it looks like a block end
        that crosses nothing — so only the check by name flags the scan.
        """
        from tests.codec_reference import BitWriter
        from tests.codec_reference import HuffmanTable
        from repro.codecs.markers import ScanHeader

        scan = ScanHeader((0,), 1, 63)
        # Incomplete canonical code: 00 = EOB, 01 = (run 0, category 1),
        # prefix 1 invalid.
        table = HuffmanTable(code_lengths={0x00: 2, 0x01: 2})
        writer = BitWriter()
        for _ in range(15):
            table.encode_symbol(0x00, writer)
        for _ in range(8):  # in-payload bits from the invalid prefix on: more
            writer.write_bits(0b10110110, 8)  # than the sentinel's nominal 31
        coefficients = self._empty_planes()
        assert coefficients.planes[0].shape[0] == 16
        stream = self._stream(coefficients, [scan], [table.to_bytes() + writer.getvalue()])
        assert _tier_error_classes(stream) == ["ValueError", "ValueError"]
        assert replays == [scan]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_sparse_planes_random_bands(self, seed):
        """Random sparse planes x 1-3 disjoint bands x 1-3 components each."""
        from repro.codecs.markers import ScanHeader

        rng = np.random.default_rng(seed)
        coefficients = self._empty_planes(size=int(rng.choice([8, 24, 40])))
        for plane in coefficients.planes:
            density = rng.choice([0.0, 0.02, 0.2, 0.9, 1.0])
            values = rng.integers(-1200, 1201, size=plane.shape)
            values[rng.random(plane.shape) < 0.7] //= 300  # mostly small magnitudes
            plane[...] = values * (rng.random(plane.shape) < density)
        cuts = np.sort(rng.choice(np.arange(1, 65), size=int(rng.integers(2, 5)), replace=False))
        scans = []
        for start, stop in zip(cuts[:-1], cuts[1:]):
            components = rng.permutation(3)[: int(rng.integers(1, 4))]
            scans.append(ScanHeader(tuple(int(c) for c in components), int(start), int(stop) - 1))
        self._assert_round_trip(coefficients, scans)

    def test_valid_streams_never_reach_the_cold_replay(self, replays, dc_replays):
        streams = [
            ProgressiveCodec(quality=90).encode(make_structured_image(64, seed=3)),
            ProgressiveCodec(quality=50).encode(make_structured_image(40, seed=4, color=False)),
            ProgressiveCodec(quality=95).encode(_random_image(5, 33, color=True)),
            BaselineCodec(quality=90).encode(make_structured_image(48, seed=6)),
        ]
        for stream in streams:
            _assert_decodes_match(stream, len(find_scan_segments(stream)))
        assert replays == [] and dc_replays == []


class TestWindowEscapes:
    """Symbols the window table cannot finish, with no second table to go to.

    A window whose first code fits but whose magnitude does not holds the
    symbol's negated plain entry; a window under a code longer than
    ``SUPER_BITS`` holds ``-1`` and ``long_code_entry`` matches the next 16
    bits against the table's long codes.  The crafted code is derived from
    the window: one symbol at each length ``1 .. SUPER_BITS - 1`` and one
    long code at ``SUPER_BITS + 1 .. 16`` bits, whose window is the
    ``SUPER_BITS - 1`` ones then a zero — so every other pattern under that
    prefix, and the all-ones window of the padding, is invalid — and each
    flavour (DC-only, the AC walk, a ``BaselineCodec`` mixed scan) must give
    the scalar reference's coefficients or error class, at the default
    walk-batch cap and at 64 bytes.
    """

    @pytest.fixture(autouse=True, params=[None, 64], ids=["default-cap", "cap-64"])
    def walk_cap(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fastpath, "_WALK_BATCH_BYTES", request.param)

    @pytest.fixture()
    def long_lookups(self, monkeypatch):
        """Spy on ``long_code_entry``: ``(n long codes, returned entry)``."""
        calls = []
        lookup = fastpath.long_code_entry

        def spy(long_codes, bits16, ac):
            entry = lookup(long_codes, bits16, ac)
            calls.append((len(long_codes), entry))
            return entry

        monkeypatch.setattr(fastpath, "long_code_entry", spy)
        return calls

    #: The oversized category: its 2-bit code + ``SUPER_BITS`` magnitude
    #: bits never fit the window.  As a run/size byte it is run 0, so the
    #: same symbol is an AC coefficient and a DC diff.
    _BIG = SUPER_BITS
    #: A positive magnitude of that category (top bit set): 2053 at 12 bits.
    _BIG_VALUE = (1 << (SUPER_BITS - 1)) | 5
    #: Run/size symbols in code-length order; the oversized one second.
    _AC_SYMBOLS = [0x01, _BIG, 0x00, 0xF0, 0x11, 0x21, 0x02, 0x31, 0x12, 0x41, 0x03, 0x51, 0x61, 0x71]
    #: DC categories, likewise (the oversized one second).
    _DC_SYMBOLS = [0, 1, _BIG] + [category for category in range(2, 15) if category != SUPER_BITS]
    #: The long codes' window (``SUPER_BITS - 1`` ones, a zero) then a one,
    #: which none of them has (they continue with zeros), then 16
    #: arbitrary in-payload bits.
    _NO_MATCH = [((((1 << (SUPER_BITS - 1)) - 1) << 2) | 0b01, SUPER_BITS + 1)]
    _IN_PAYLOAD = [(0b0110110101101101, 16)]
    #: Every long-code length the window leaves.
    _LONG_LENGTHS = list(range(SUPER_BITS + 1, MAX_CODE_LENGTH + 1))

    @staticmethod
    def _table(symbols, long_symbol, length):
        from tests.codec_reference import HuffmanTable

        short = [symbol for symbol in symbols if symbol != long_symbol][: SUPER_BITS - 1]
        lengths = {symbol: index + 1 for index, symbol in enumerate(short)}
        lengths[long_symbol] = length
        return HuffmanTable(code_lengths=lengths)

    @staticmethod
    def _body(table, symbols, raw=()) -> bytes:
        """Table + ``(symbol, bits, n_bits)`` items + raw ``(bits, n_bits)``."""
        from tests.codec_reference import BitWriter

        writer = BitWriter()
        for symbol, bits, n_bits in symbols:
            table.encode_symbol(symbol, writer)
            writer.write_bits(bits, n_bits)
        for bits, n_bits in raw:
            writer.write_bits(bits, n_bits)
        return table.to_bytes() + writer.getvalue()

    @staticmethod
    def _luma_stream(scan, body) -> bytes:
        coefficients = TestBlockSegmentation._empty_planes()
        assert coefficients.planes[0].shape[0] == 16
        return TestBlockSegmentation._stream(coefficients, [scan], [body])

    @staticmethod
    def _ac_blocks(long_symbol):
        """16 blocks of a 20-slot band that use every escape route."""
        eob = (0x00, 0, 0)
        # Two 2-bit symbols resolve in one paired probe; the next probe
        # opens on the oversized symbol: +_BIG_VALUE at slot 2.
        big = TestWindowEscapes._BIG
        oversized = [(0x01, 1, 1), (0x01, 0, 1), (big, TestWindowEscapes._BIG_VALUE, big), eob]
        long_block = {
            0xF0: [(0xF0, 0, 0), (0x11, 1, 1), eob],  # a long-coded ZRL
            0x00: [(0x11, 0, 1), eob],  # every EOB is long-coded
            0x61: [(0x61, 1, 1), eob],  # a long-coded coefficient
        }[long_symbol]
        return [oversized, long_block, [eob], long_block, oversized] + [[eob]] * 11

    @pytest.mark.parametrize("length", _LONG_LENGTHS)
    @pytest.mark.parametrize("long_category", [0, 11])
    def test_dc_scan(self, long_lookups, dc_replays, long_category, length):
        from repro.codecs.markers import ScanHeader

        table = self._table(self._DC_SYMBOLS, long_category, length)
        long_diff = (long_category, 0x400 if long_category else 0, long_category)
        zero = (0, 0, 0) if long_category else (1, 1, 1)
        # A paired probe (+1, -1), the oversized diff right behind it, then
        # the long code between short ones.
        big = (self._BIG, self._BIG_VALUE, self._BIG)
        diffs = [(1, 1, 1), (1, 0, 1), big, long_diff, zero, long_diff]
        diffs += [zero] * 10
        scan = ScanHeader((0,), 0, 0)
        decoded = TestBlockSegmentation._decode_both(
            self._luma_stream(scan, self._body(table, diffs))
        )
        assert decoded.planes[0][:3, 0].tolist() == [1, 0, self._BIG_VALUE]
        assert [entry < -1 for _, entry in long_lookups] == [True, True]
        assert dc_replays == []  # the walk finished every escape itself
        # A pattern under the long codes' prefix that is none of them.
        del long_lookups[:]
        head = [zero, zero] if long_category else [zero]  # 2 bits either way
        inside = self._body(table, head, self._NO_MATCH + self._IN_PAYLOAD)
        crossing = self._body(table, head, self._NO_MATCH)
        assert len(crossing) - len(table.to_bytes()) == 2  # 2 + 16 bits cross the end
        assert _tier_error_classes(self._luma_stream(scan, inside)) == ["ValueError"] * 2
        assert _tier_error_classes(self._luma_stream(scan, crossing)) == ["EOFError"] * 2
        # Per stream, the walk finds no match and records the sentinel,
        # then the cold replay matches the same bits and classifies.
        assert long_lookups == [(1, 0)] * 4
        assert dc_replays == [scan, scan]

    def test_dc_scan_long_code_too_wide_for_a_packed_entry(self, long_lookups, dc_replays):
        """A long-coded DC category 17: resolved in the DC flavour, then replayed.

        Read as a run/size byte, 0x11 would be a one-bit coefficient; the
        walk must read it as a category and flag the diff, which no packed
        entry holds, for the replay.
        """
        from repro.codecs.markers import ScanHeader

        table = self._table(self._DC_SYMBOLS, 17, SUPER_BITS + 1)
        diffs = [(1, 1, 1), (17, 0x400, 17)] + [(0, 0, 0)] * 14
        scan = ScanHeader((0,), 0, 0)
        decoded = TestBlockSegmentation._decode_both(
            self._luma_stream(scan, self._body(table, diffs))
        )
        assert decoded.planes[0][:3, 0].tolist() == [1, -130046, -130046]  # +1, then 0x400 - 0x1FFFF
        assert dc_replays == [scan]
        assert long_lookups and all(entry < -1 for _, entry in long_lookups)

    @pytest.mark.parametrize("length", _LONG_LENGTHS)
    @pytest.mark.parametrize("long_symbol", [0xF0, 0x00, 0x61], ids=["zrl", "eob", "coefficient"])
    def test_ac_walk(self, long_lookups, long_symbol, length):
        from repro.codecs.markers import ScanHeader

        table = self._table(self._AC_SYMBOLS, long_symbol, length)
        blocks = self._ac_blocks(long_symbol)
        scan = ScanHeader((0,), 1, 20)
        body = self._body(table, [item for block in blocks for item in block])
        decoded = TestBlockSegmentation._decode_both(self._luma_stream(scan, body))
        luma = decoded.planes[0]
        big = self._BIG_VALUE
        assert luma[0, 1:5].tolist() == [1, -1, big, 0] and luma[4, 3] == big
        if long_symbol == 0xF0:
            assert luma[1, 18] == 1 and not luma[1, 1:18].any()
        assert len(long_lookups) == (16 if long_symbol == 0x00 else 2)
        assert all(entry < -1 for _, entry in long_lookups)
        del long_lookups[:]
        head = [(0x01, 1, 1)]  # 2 bits
        inside = self._body(table, head, self._NO_MATCH + self._IN_PAYLOAD)
        crossing = self._body(table, head, self._NO_MATCH)
        assert _tier_error_classes(self._luma_stream(scan, inside)) == ["ValueError"] * 2
        assert _tier_error_classes(self._luma_stream(scan, crossing)) == ["EOFError"] * 2
        # Per stream, the walk finds no match and records the sentinel,
        # then the in-place decode matches the same bits and classifies.
        assert long_lookups == [(1, 0)] * 4

    @pytest.mark.parametrize("length", _LONG_LENGTHS)
    @pytest.mark.parametrize("long_symbol", [0xF0, 0x00, 0x61], ids=["zrl", "eob", "coefficient"])
    def test_mixed_scan(self, long_lookups, long_symbol, length):
        image = make_structured_image(16, seed=3, color=False)
        stream = BaselineCodec(quality=90).encode(image)
        segments = find_scan_segments(stream)
        header = segments[0].header
        assert (header.component_ids, header.spectral_start, header.spectral_end) == ((0,), 0, 63)
        table = self._table(self._AC_SYMBOLS, long_symbol, length)
        # Each block opens on a DC diff coded with the same table: an
        # oversized one (+_BIG_VALUE), a paired-width one, and — where EOB's
        # code is the long one — a zero diff through the long-code route.
        big = self._BIG_VALUE
        dc_diffs = [(self._BIG, big, self._BIG), (0x01, 0, 1), (0x00, 0, 0), (0x02, 0b10, 2)]
        blocks = self._ac_blocks(long_symbol)[:4]
        symbols = [item for dc, block in zip(dc_diffs, blocks) for item in [dc] + block]
        good = TestInvalidStreamFuzz._rebuild(stream, segments, 0, self._body(table, symbols))
        decoded = TestBlockSegmentation._decode_both(good)
        luma = decoded.planes[0]
        assert luma[:, 0].tolist() == [big, big - 1, big - 1, big + 1]
        assert luma[0, 1:5].tolist() == [1, -1, big, 0]
        if long_symbol == 0xF0:
            assert luma[1, 18] == 1 and not luma[1, 1:18].any()
        assert len(long_lookups) == (5 if long_symbol == 0x00 else 2)
        assert all(entry < -1 for _, entry in long_lookups)
        del long_lookups[:]
        head = [(0x01, 1, 1)]  # the first block's DC diff, 2 bits
        for raw, expected in [
            (self._NO_MATCH + self._IN_PAYLOAD, "ValueError"),
            (self._NO_MATCH, "EOFError"),
        ]:
            bad = TestInvalidStreamFuzz._rebuild(stream, segments, 0, self._body(table, head, raw))
            assert _tier_error_classes(bad) == [expected, expected]
        assert long_lookups == [(1, 0), (1, 0)]

    def test_real_streams_need_no_long_codes(self, monkeypatch, long_lookups):
        """Escapes of streams whose codes fit the window take the negated-entry route.

        The long-code helper is for tables that have a code longer than
        the window; a stream without one must never reach it, however many
        oversized magnitudes it holds (DC diffs and AC coefficients alike,
        both walked).
        """
        from repro.codecs.huffman import HuffmanTable

        escapes = []
        walk = fastpath._walk_one

        def spy_walk(strides, windows, pair, long_codes, blob, byte_base, fallback_entries, ac):
            before = len(fallback_entries)
            probes = walk(strides, windows, pair, long_codes, blob, byte_base, fallback_entries, ac)
            escapes.extend(entry > 0 for entry in fallback_entries[before:])
            return probes

        monkeypatch.setattr(fastpath, "_walk_one", spy_walk)
        streams = [
            ProgressiveCodec(quality=95).encode(_random_image(seed, 96, color=True))
            for seed in (7, 8)
        ]
        longest = 0
        for stream in streams:
            for segment in find_scan_segments(stream):
                table, _ = HuffmanTable.from_bytes(stream[segment.payload_start : segment.end])
                longest = max(longest, *table.code_lengths.values())
            _assert_decodes_match(stream, 10)
        assert len(escapes) >= 20  # oversized magnitudes are routine at q95
        assert all(escapes)  # each one finished its symbol from its own window
        assert longest <= SUPER_BITS and long_lookups == []

    def test_an_encoder_made_long_code_takes_the_long_code_route(self, long_lookups):
        """A code longer than the window in a table the encoder built.

        Not only crafted tables have them: about 4 % of the e2e corpus's
        tables (224 px, quality 90) carry a 14- or 15-bit code.  Its first
        image is one, in the luma band 10..35 scan.
        """
        from repro.codecs.huffman import HuffmanTable
        from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec

        generator = SyntheticImageGenerator(4, SyntheticImageSpec(image_size=224), seed=11)
        ((_, image, _),) = generator.generate_batch(1, seed=11)
        stream = ProgressiveCodec(quality=90).encode(image)
        longest = [
            max(HuffmanTable.from_bytes(stream[segment.payload_start : segment.end])[0].code_lengths.values())
            for segment in find_scan_segments(stream)
        ]
        assert max(longest) > SUPER_BITS
        scalar, _ = decode_coefficients_reference(stream)
        fast, _ = decode_coefficients(stream)
        for scalar_plane, fast_plane in zip(scalar.planes, fast.planes):
            assert np.array_equal(scalar_plane, fast_plane)
        assert long_lookups
        assert all(n_long >= 1 and entry < -1 for n_long, entry in long_lookups)


class TestWalkProbes:
    """The stride walk records what the reference walk records, probe for probe.

    ``walk_one_reference`` is the walk as first written (``array('i')``
    probes, escapes inline); the runtime walk must return the same probe
    offsets and append the same ``fallback_entries`` on every scan of the
    e2e corpus's first 32 images at scan groups 1 and 10, and on crafted
    scans that take each escape route: an oversized magnitude, a long code
    (each entry kind), an invalid prefix mid-scan and a DC diff of
    category 16 and up.
    """

    @pytest.fixture()
    def walks(self, monkeypatch):
        """Run the reference beside every walk: ``(runtime, reference, n_strides)`` per call."""
        calls = []
        walk = fastpath._walk_one

        def spy(strides, windows, pair, long_codes, blob, byte_base, fallback_entries, ac):
            expected_entries = []
            expected = walk_one_reference(
                strides, windows, pair, long_codes, blob, byte_base, expected_entries, ac
            )
            before = len(fallback_entries)
            probes = walk(strides, windows, pair, long_codes, blob, byte_base, fallback_entries, ac)
            calls.append(
                (
                    (list(probes), fallback_entries[before:]),
                    (list(expected), expected_entries),
                    len(strides),
                )
            )
            return probes

        monkeypatch.setattr(fastpath, "_walk_one", spy)
        return calls

    @staticmethod
    def _assert_same_walks(calls) -> None:
        assert calls
        for runtime, reference, _ in calls:
            assert runtime == reference

    @staticmethod
    def _walk_crafted(scan, body) -> None:
        stream = TestWindowEscapes._luma_stream(scan, body)
        try:
            decode_coefficients(stream)
        except (ValueError, EOFError):
            pass

    @pytest.mark.parametrize("max_scans", [1, None], ids=["group-1", "group-10"])
    def test_every_corpus_scan(self, walks, max_scans):
        from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec

        generator = SyntheticImageGenerator(4, SyntheticImageSpec(image_size=224), seed=11)
        codec = ProgressiveCodec(quality=90)
        for _, image, _ in generator.generate_batch(32, seed=11):
            decode_coefficients(codec.encode(image), max_scans=max_scans)
        self._assert_same_walks(walks)
        assert len(walks) == 32 * (1 if max_scans == 1 else 10)
        if max_scans is None:  # the corpus escapes, and only with packed entries
            entries = [entry for (_, entries), _, _ in walks for entry in entries]
            assert entries and min(entries) > 0

    @pytest.mark.parametrize(
        "length", [SUPER_BITS, 14, 15, 16], ids=["oversized", "long-14", "long-15", "long-16"]
    )
    @pytest.mark.parametrize("long_symbol", [0xF0, 0x00, 0x61], ids=["zrl", "eob", "coefficient"])
    def test_ac_escapes(self, walks, long_symbol, length):
        """At length ``SUPER_BITS`` every code fits the window: only oversized magnitudes escape."""
        table = TestWindowEscapes._table(TestWindowEscapes._AC_SYMBOLS, long_symbol, length)
        blocks = TestWindowEscapes._ac_blocks(long_symbol)
        body = TestWindowEscapes._body(table, [item for block in blocks for item in block])
        self._walk_crafted(ScanHeader((0,), 1, 20), body)
        self._assert_same_walks(walks)
        ((_, entries), _, _) = walks[0]
        assert any(entry > 0 for entry in entries)  # the padding may end on a -1

    @pytest.mark.parametrize("length", [SUPER_BITS, 14, 16], ids=["oversized", "long-14", "long-16"])
    @pytest.mark.parametrize("long_category", [0, 11])
    def test_dc_escapes(self, walks, long_category, length):
        table = TestWindowEscapes._table(TestWindowEscapes._DC_SYMBOLS, long_category, length)
        long_diff = (long_category, 0x400 if long_category else 0, long_category)
        zero = (0, 0, 0) if long_category else (1, 1, 1)
        big = (TestWindowEscapes._BIG, TestWindowEscapes._BIG_VALUE, TestWindowEscapes._BIG)
        diffs = [(1, 1, 1), (1, 0, 1), big, long_diff, zero, long_diff]
        diffs += [zero] * 10
        self._walk_crafted(ScanHeader((0,), 0, 0), TestWindowEscapes._body(table, diffs))
        self._assert_same_walks(walks)
        ((_, entries), _, _) = walks[0]
        assert any(entry > 0 for entry in entries)

    @pytest.mark.parametrize("dc", [False, True], ids=["ac", "dc"])
    def test_an_invalid_prefix_mid_scan_ends_the_walk_at_its_probe(self, walks, dc):
        if dc:
            table = TestWindowEscapes._table(TestWindowEscapes._DC_SYMBOLS, 0, SUPER_BITS + 1)
            head, tail, scan = [(1, 1, 1)] * 3, [(1, 0, 1)] * 40, ScanHeader((0,), 0, 0)
        else:
            table = TestWindowEscapes._table(TestWindowEscapes._AC_SYMBOLS, 0x61, SUPER_BITS + 1)
            head, tail, scan = [(0x01, 1, 1)] * 3, [(0x01, 0, 1)] * 40, ScanHeader((0,), 1, 20)
        body = TestWindowEscapes._body(table, head, TestWindowEscapes._NO_MATCH)
        body += TestWindowEscapes._body(table, tail)[len(table.to_bytes()) :]
        self._walk_crafted(scan, body)
        self._assert_same_walks(walks)
        ((probes, entries), _, n_strides) = walks[0]
        assert entries[-1] == -1 and entries.count(-1) == 1
        # Stopped at the escape, well before the valid symbols behind it.
        ((_, no_match_bits),) = TestWindowEscapes._NO_MATCH
        assert probes[-1] == 6 and n_strides - 64 > 6 + no_match_bits + 40 * 2

    @pytest.mark.parametrize("category, length", [(16, 14), (17, 14), (17, 16)])
    def test_a_dc_diff_of_category_16_and_up_ends_the_walk(self, walks, category, length):
        table = TestWindowEscapes._table(TestWindowEscapes._DC_SYMBOLS, category, length)
        diffs = [(1, 1, 1), (category, 0x400, category)] + [(0, 0, 0)] * 14
        self._walk_crafted(ScanHeader((0,), 0, 0), TestWindowEscapes._body(table, diffs))
        self._assert_same_walks(walks)
        ((probes, entries), _, _) = walks[0]
        assert entries == [-1] and probes[-1] == 3  # behind the 3-bit diff of +1


class TestOversizedScansWalkAlone(TestStreamEquivalence, TestInvalidStreamFuzz):
    """The same differential and fuzz bodies with a 64-byte walk-batch cap.

    A scan larger than ``_WALK_BATCH_BYTES`` closes the open batch and is
    walked as a batch of its own; at 64 bytes that is the fate of nearly
    every AC scan, so coefficients and error classes must still match the
    scalar reference on every inherited test.
    """

    @pytest.fixture(autouse=True)
    def walks(self, monkeypatch):
        """Patch the cap; yields the payload sizes of every batch walked."""
        batches = []
        walk = fastpath._walk_batch

        def spy(jobs):
            batches.append([len(job[1]) for job in jobs])
            return walk(jobs)

        monkeypatch.setattr(fastpath, "_WALK_BATCH_BYTES", 64)
        monkeypatch.setattr(fastpath, "_walk_batch", spy)
        return batches

    def test_a_scan_over_the_cap_is_a_batch_of_its_own(self, walks):
        stream, segments = self._stream_and_segments()
        decode_coefficients(stream)
        # Every scan of a progressive stream is DC-only or AC-only: walked.
        assert all(
            segment.header.spectral_start >= 1 or segment.header.spectral_end == 0
            for segment in segments
        )
        assert sum(len(sizes) for sizes in walks) == len(segments)
        oversized = [sizes for sizes in walks if max(sizes) > 64]
        assert len(oversized) >= 3
        assert all(len(sizes) == 1 for sizes in oversized)
        assert all(sum(sizes) <= 64 for sizes in walks if sizes not in oversized)


class TestPerformanceSmoke:
    """The LUT fast path must decisively beat the scalar reference.

    Timings compare medians over several trials on the same small fixed
    workload; the fast path is required to win by 1.5x (it wins by ~4-5x in
    practice), so only a genuine de-vectorization can trip this.
    """

    @staticmethod
    def _median_seconds(fn, trials: int = 5) -> float:
        samples = []
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    def test_fastpath_beats_scalar(self):
        # 96px keeps the run in the tens of milliseconds while giving the
        # entropy layer enough symbols that fixed per-scan costs (shared
        # Huffman table construction) don't mask the fast-path advantage.
        image = make_structured_image(96, seed=19, color=True)
        coefficients = image_to_coefficients(image, quality=90)
        script = ScanScript.default_for(coefficients.header.n_components)
        stream = encode_coefficients(coefficients, script)
        decode_coefficients(stream)  # warm LUT/table caches

        fast_decode = self._median_seconds(lambda: decode_coefficients(stream))
        scalar_decode = self._median_seconds(lambda: decode_coefficients_reference(stream))
        assert fast_decode * 1.5 < scalar_decode, (
            f"LUT decode ({fast_decode * 1e3:.2f} ms) must beat the scalar "
            f"reference ({scalar_decode * 1e3:.2f} ms) by at least 1.5x"
        )
        fast_encode = self._median_seconds(lambda: encode_coefficients(coefficients, script))
        scalar_encode = self._median_seconds(
            lambda: encode_coefficients_reference(coefficients, script)
        )
        assert fast_encode * 1.5 < scalar_encode, (
            f"vectorized encode ({fast_encode * 1e3:.2f} ms) must beat the scalar "
            f"reference ({scalar_encode * 1e3:.2f} ms) by at least 1.5x"
        )


class TestEncodeWorkspace:
    """The entropy encode works in per-thread buffers that outlive each image.

    Its arrays are slices of buffers owned by the calling thread's
    ``PixelScratch``, shared by stages whose arrays are never live
    together, and its shape-only arithmetic is a cached ``BlockLayout``.
    These pin what that buys (no large per-image allocation, a bounded
    resident size) and what it must not cost (a stale buffer or another
    thread leaking into a stream).
    """

    @staticmethod
    def _coefficients(size: int, seed: int, color: bool = True):
        return image_to_coefficients(make_structured_image(size, seed=seed, color=color), 90)

    def test_steady_state_encode_allocates_little(self):
        import tracemalloc

        coefficients = self._coefficients(224, seed=31)
        script = ScanScript.default_color()
        encode_coefficients(coefficients, script)  # sizes the buffers, builds the layout
        tracemalloc.start()
        try:
            encode_coefficients(coefficients, script)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The image's own arrays take 2.6-2.8 MB; only its nonzero index,
        # histogram and bytes may be allocated per image.
        assert peak <= 512 << 10, f"encode peaked at {peak / 1024:.0f} KiB over its baseline"

    def test_stale_buffers_never_reach_a_stream(self):
        """Shrinking, empty and regrowing images through one thread's buffers."""
        gray = np.random.default_rng(33).integers(0, 256, size=(37, 53)).astype(np.uint8)
        empty = FrameHeader(0, 0, 3, SUBSAMPLING_420, QuantizationTables.for_quality(90))
        cases = [
            (self._coefficients(224, seed=32), None),
            (image_to_coefficients(ImageBuffer.from_array(gray), 90), None),
            (empty_coefficients(empty), None),
            (image_to_coefficients(_random_image(34, 1, True), 90), None),
            (self._coefficients(64, seed=35), ScanScript.sequential(3)),
            (self._coefficients(224, seed=36), None),
        ]
        for coefficients, script in cases:
            script = script or ScanScript.default_for(coefficients.header.n_components)
            assert encode_coefficients(coefficients, script) == encode_coefficients_reference(
                coefficients, script
            ), (coefficients.header, script)

    def test_threads_reproduce_the_serial_streams(self):
        import threading

        images = {name: self._coefficients(96 + 32 * name, seed=40 + name) for name in range(2)}
        script = ScanScript.default_color()
        serial = {name: encode_coefficients(c, script) for name, c in images.items()}
        barrier = threading.Barrier(2)
        results: dict[int, list[bytes]] = {name: [] for name in images}

        def encode_repeatedly(name):
            barrier.wait()
            for _ in range(20):
                results[name].append(encode_coefficients(images[name], script))

        threads = [threading.Thread(target=encode_repeatedly, args=(name,)) for name in images]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name, streams in results.items():
            assert len(streams) == 20 and all(stream == serial[name] for stream in streams)

    def test_buffers_and_layout_stay_under_three_mib(self):
        import threading

        from repro.codecs.pixelpath import _thread_scratch
        from repro.codecs.rle import block_layout

        coefficients = self._coefficients(224, seed=37)
        script = ScanScript.default_color()
        held = {}

        def encode_in_a_fresh_thread():
            encode_coefficients(coefficients, script)
            held["scratch"] = _thread_scratch().nbytes

        thread = threading.Thread(target=encode_in_a_fresh_thread)
        thread.start()
        thread.join()
        shapes = tuple(plane.shape for plane in coefficients.planes)
        layout = block_layout(shapes, script).nbytes
        assert held["scratch"] > 0 and layout > 0
        assert held["scratch"] + layout <= 3 << 20, (held["scratch"], layout)
