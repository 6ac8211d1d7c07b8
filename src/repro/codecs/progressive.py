"""Progressive (spectral-selection) encoding and decoding.

A progressive stream stores the quantized DCT coefficients of every block in
multiple *scans*.  Each scan covers a spectral band ``[ss, se]`` of zigzag
indices for one or more components, ordered so that early scans carry the
perceptually important low frequencies.  Decoding a prefix of the scans
yields an approximation of the full image — the property PCR scan groups are
built on.

The default scan script produces 10 scans (matching libjpeg's default
progressive behaviour referenced in the paper, Section 3.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.fastpath import decode_scan_bodies_fast, encode_scan_bodies_fast
from repro.codecs.blocks import block_grid_shape, merge_blocks, split_into_blocks
from repro.codecs.color import (
    rgb_to_ycbcr,
    subsample_420,
    upsample_420,
    ycbcr_to_rgb,
)
from repro.codecs.dct import forward_dct_blocks, inverse_dct_blocks
from repro.codecs.huffman import HuffmanTable
from repro.codecs.image import ImageBuffer
from repro.obs import get_registry, get_tracer
from repro.codecs.markers import (
    EOI,
    SOI,
    SUBSAMPLING_420,
    SUBSAMPLING_NONE,
    CodecFormatError,
    FrameHeader,
    ScanHeader,
    ScanSegment,
    find_scan_segments,
    parse_frame_header,
    write_scan_segment,
)
from repro.codecs.encodepath import encode_to_planes
from repro.codecs.pixelpath import decode_to_pixels
from repro.codecs.quantization import QuantizationTables, dequantize, quantize
from repro.codecs.rle import (
    ac_band_symbols,
    dc_symbols,
    decode_magnitude,
    read_ac_band,
    write_symbols,
)
from repro.codecs.zigzag import N_COEFFICIENTS, blocks_to_zigzag, zigzag_to_blocks

DEFAULT_QUALITY = 90
DEFAULT_N_SCANS = 10


@dataclass(frozen=True)
class ScanScript:
    """An ordered list of scans to emit when encoding progressively."""

    scans: tuple[ScanHeader, ...]

    def __len__(self) -> int:
        return len(self.scans)

    def __iter__(self):
        return iter(self.scans)

    @classmethod
    def default_color(cls) -> "ScanScript":
        """The default 10-scan script for 3-component (YCbCr) images.

        Scan 1 carries all DC coefficients; low-frequency luma and chroma AC
        bands follow; the final scans carry high-frequency luma detail.  The
        ordering mirrors libjpeg's default progressive script: early scans
        improve quality far more than later ones.
        """
        scans = (
            ScanHeader((0, 1, 2), 0, 0),
            ScanHeader((0,), 1, 2),
            ScanHeader((1,), 1, 2),
            ScanHeader((2,), 1, 2),
            ScanHeader((0,), 3, 9),
            ScanHeader((1,), 3, 63),
            ScanHeader((2,), 3, 63),
            ScanHeader((0,), 10, 35),
            ScanHeader((0,), 36, 52),
            ScanHeader((0,), 53, 63),
        )
        return cls(scans=scans)

    @classmethod
    def default_grayscale(cls) -> "ScanScript":
        """The default 10-scan script for single-component images."""
        bands = [(1, 2), (3, 5), (6, 9), (10, 17), (18, 26), (27, 35), (36, 47), (48, 55), (56, 63)]
        scans = [ScanHeader((0,), 0, 0)]
        scans.extend(ScanHeader((0,), ss, se) for ss, se in bands)
        return cls(scans=tuple(scans))

    @classmethod
    def default_for(cls, n_components: int) -> "ScanScript":
        """Return the default script for an image with ``n_components``."""
        if n_components == 3:
            return cls.default_color()
        if n_components == 1:
            return cls.default_grayscale()
        raise ValueError(f"unsupported component count: {n_components}")

    @classmethod
    def sequential(cls, n_components: int) -> "ScanScript":
        """A single full-band scan per component (the baseline/sequential layout)."""
        scans = tuple(ScanHeader((c,), 0, 63) for c in range(n_components))
        return cls(scans=scans)

    def validate(self, n_components: int) -> None:
        """Check that the script covers every coefficient exactly once."""
        covered: dict[int, set[int]] = {c: set() for c in range(n_components)}
        for scan in self.scans:
            for component in scan.component_ids:
                if component >= n_components:
                    raise ValueError(
                        f"scan references component {component} but image has {n_components}"
                    )
                band = set(range(scan.spectral_start, scan.spectral_end + 1))
                overlap = covered[component] & band
                if overlap:
                    raise ValueError(
                        f"component {component} coefficients {sorted(overlap)[:4]}... covered twice"
                    )
                covered[component] |= band
        for component, indices in covered.items():
            if indices != set(range(N_COEFFICIENTS)):
                missing = sorted(set(range(N_COEFFICIENTS)) - indices)
                raise ValueError(
                    f"component {component} is missing coefficients {missing[:4]}..."
                )


@dataclass
class CoefficientPlanes:
    """Quantized zigzag coefficients for every component of one image."""

    header: FrameHeader
    planes: list[np.ndarray] = field(default_factory=list)


def image_to_coefficients(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
) -> CoefficientPlanes:
    """Forward-transform an image into quantized zigzag coefficient planes.

    Runs the batched float32 forward path (:mod:`repro.codecs.encodepath`:
    fused colour conversion + level shift, strided 4:2:0 downsample, one
    fused quantize+DCT sgemm per component), reusing the calling thread's
    work buffers from one image to the next.  Against
    :func:`image_to_coefficients_reference` the coefficients may differ by
    at most 1 quant step at a documented, tested rate (see the error
    budget in :mod:`repro.codecs.encodepath`).
    """
    tables = QuantizationTables.for_quality(quality)
    if not image.is_color:
        subsampling = SUBSAMPLING_NONE
    header = FrameHeader(
        height=image.height,
        width=image.width,
        n_components=3 if image.is_color else 1,
        subsampling=subsampling,
        quant_tables=tables,
    )
    planes = encode_to_planes(image, tables, subsampling)
    return CoefficientPlanes(header=header, planes=planes)


def coefficients_to_image(coefficients: CoefficientPlanes) -> ImageBuffer:
    """Reconstruct an image from (possibly partial) coefficient planes.

    Runs the batched float32 pixel path (:mod:`repro.codecs.pixelpath`),
    reusing the calling thread's work buffers from one image to the next;
    pixels are within 1 LSB of :func:`coefficients_to_image_reference`.
    """
    return ImageBuffer(decode_to_pixels(coefficients))


def empty_coefficients(header: FrameHeader) -> CoefficientPlanes:
    """Allocate all-zero coefficient planes for a frame header."""
    planes = []
    for index in range(header.n_components):
        comp_h, comp_w = header.component_shape(index)
        nv, nh = block_grid_shape(comp_h, comp_w)
        planes.append(np.zeros((nv * nh, N_COEFFICIENTS), dtype=np.int32))
    return CoefficientPlanes(header=header, planes=planes)


def encode_coefficients(coefficients: CoefficientPlanes, script: ScanScript) -> bytes:
    """Serialize coefficient planes as SOI + SOF + scans + EOI."""
    script.validate(coefficients.header.n_components)
    bodies = encode_scan_bodies_fast(coefficients, script)
    parts = [SOI, coefficients.header.to_bytes()]
    parts.extend(write_scan_segment(scan, body) for scan, body in zip(script, bodies))
    parts.append(EOI)
    return b"".join(parts)


def decode_coefficients(
    data: bytes, max_scans: int | None = None
) -> tuple[CoefficientPlanes, int]:
    """Decode up to ``max_scans`` scans; returns (coefficients, scans applied).

    Truncated streams (no EOI, or a partial final scan) decode the complete
    scans that are present — exactly the behaviour the PCR reader relies on
    when it terminates a partial read with an EOI token.  ``max_scans=0``
    decodes no scans; a negative ``max_scans`` is a ``ValueError``.

    The whole segment list is handed over at once
    (:func:`repro.codecs.fastpath.decode_scan_bodies_fast`), letting it
    amortize its vectorized scan-assembly epilogue across every AC scan of
    the stream.
    """
    if max_scans is not None and max_scans < 0:
        raise ValueError(f"max_scans must be >= 0, got {max_scans}")
    header, _ = parse_frame_header(data)
    coefficients = empty_coefficients(header)
    segments = find_scan_segments(data)
    if max_scans is not None:
        segments = segments[:max_scans]
    decode_scan_bodies_fast(data, segments, coefficients)
    return coefficients, len(segments)


def decode_progressive_batch(
    payloads: list[bytes], max_scans: int | None = None
) -> list[ImageBuffer]:
    """Decode a whole minibatch of (possibly truncated) streams at once.

    The minibatch-level entry point the ``DataLoader`` path uses, and a
    plain loop: :func:`decode_coefficients` + :func:`coefficients_to_image`
    per payload, bitwise identical to calling them yourself (pinned by the
    equivalence tests in ``tests/test_codecs_pixelpath.py``).  Float32 work
    buffers are the calling thread's and table/basis setup is shared
    through the module caches, batch or not, so the batch form costs what
    the per-image loop costs; what it adds is the instrumentation below.

    Every call records ``decode.streams_total`` / ``decode.bytes_total``
    counters and a ``decode.batch_seconds`` histogram sample on the default
    :mod:`repro.obs` registry.  This is the one instrumentation point both
    the in-process path and the :class:`~repro.codecs.parallel.DecodePool`
    workers share, so a worker's per-chunk registry delta aggregates into
    the parent to exactly the totals an in-process decode would have
    produced (the fork-parity test in ``tests/test_obs.py`` pins this).
    """
    registry = get_registry()
    start = time.perf_counter()
    with get_tracer().span("decode.batch", {"streams": len(payloads)}):
        images: list[ImageBuffer] = []
        for data in payloads:
            coefficients, _ = decode_coefficients(data, max_scans=max_scans)
            images.append(coefficients_to_image(coefficients))
    registry.counter("decode.streams_total").inc(len(payloads))
    registry.counter("decode.bytes_total").inc(sum(len(data) for data in payloads))
    registry.histogram("decode.batch_seconds").observe(time.perf_counter() - start)
    return images


def encode_progressive_batch(
    images: list[ImageBuffer],
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
    script: ScanScript | None = None,
    layout: str = "progressive",
) -> list[bytes]:
    """Encode a whole chunk of images at once — the minibatch ingest entry.

    The encode-side mirror of :func:`decode_progressive_batch`, and like
    it a plain loop over the per-image APIs with identical output: work
    buffers are the calling thread's and Huffman/basis setup is shared
    through the module caches, batch or not.

    ``layout`` selects what each returned stream is:

    * ``"progressive"`` — the default multi-scan progressive stream
      (``script`` or the component-count default script);
    * ``"sequential"`` — the baseline single-scan-per-component layout
      (what :class:`~repro.codecs.baseline.BaselineCodec` emits).

    Every call records ``ingest.images_total`` / ``ingest.pixel_bytes_total``
    / ``ingest.encoded_bytes_total`` counters and an
    ``ingest.encode_batch_seconds`` histogram sample on the default
    :mod:`repro.obs` registry, under an ``ingest.encode_batch`` span.
    This is the one instrumentation point the in-process path and the
    :class:`~repro.codecs.parallel.EncodePool` workers share, so a
    worker's per-chunk registry delta aggregates into the parent to
    exactly the totals an in-process encode would have produced.
    """
    if layout not in ("progressive", "sequential"):
        raise ValueError(f"unknown encode layout: {layout!r}")
    registry = get_registry()
    start = time.perf_counter()
    with get_tracer().span("ingest.encode_batch", {"images": len(images), "layout": layout}):
        streams: list[bytes] = []
        for image in images:
            coefficients = image_to_coefficients(image, quality, subsampling)
            n_components = coefficients.header.n_components
            if layout == "sequential":
                chosen = ScanScript.sequential(n_components)
            else:
                chosen = script if script is not None else ScanScript.default_for(n_components)
            streams.append(encode_coefficients(coefficients, chosen))
    registry.counter("ingest.images_total").inc(len(images))
    registry.counter("ingest.pixel_bytes_total").inc(
        sum(image.pixels.nbytes for image in images)
    )
    registry.counter("ingest.encoded_bytes_total").inc(sum(len(s) for s in streams))
    registry.histogram("ingest.encode_batch_seconds").observe(time.perf_counter() - start)
    return streams


class ProgressiveCodec:
    """Encode and decode progressive PCR-codec streams."""

    def __init__(
        self,
        quality: int = DEFAULT_QUALITY,
        subsampling: int = SUBSAMPLING_420,
        script: ScanScript | None = None,
    ) -> None:
        self.quality = quality
        self.subsampling = subsampling
        self._script = script

    def script_for(self, n_components: int) -> ScanScript:
        """Return the scan script used for an image with ``n_components``."""
        if self._script is not None:
            return self._script
        return ScanScript.default_for(n_components)

    def encode(self, image: ImageBuffer) -> bytes:
        """Encode an image to a progressive byte stream."""
        coefficients = image_to_coefficients(image, self.quality, self.subsampling)
        script = self.script_for(coefficients.header.n_components)
        return encode_coefficients(coefficients, script)

    def decode(self, data: bytes, max_scans: int | None = None) -> ImageBuffer:
        """Decode a (possibly truncated) stream, optionally limiting scans."""
        coefficients, _ = decode_coefficients(data, max_scans=max_scans)
        return coefficients_to_image(coefficients)

    def n_scans(self, data: bytes) -> int:
        """Number of complete scans present in an encoded stream."""
        return len(find_scan_segments(data))


def split_scans(data: bytes) -> tuple[bytes, list[bytes]]:
    """Split an encoded stream into (header prefix, list of scan segments).

    Concatenating ``header + b"".join(scans[:k]) + EOI`` produces a valid
    stream decodable at quality level ``k`` — this is the primitive the PCR
    writer uses to regroup per-image scans into dataset-wide scan groups.
    """
    header, offset = parse_frame_header(data)
    del header
    segments = find_scan_segments(data)
    if not segments:
        raise CodecFormatError("stream contains no scans")
    prefix = data[:offset]
    return prefix, [data[segment.start : segment.end] for segment in segments]


def assemble_partial_stream(header_prefix: bytes, scans: list[bytes]) -> bytes:
    """Reassemble a decodable stream from a header prefix and scan segments."""
    return header_prefix + b"".join(scans) + EOI


# --------------------------------------------------------------------------
# Scalar reference stages: the differential oracle.  Only tests call these;
# every runtime entry point above runs the vectorized stages.
# --------------------------------------------------------------------------


def image_to_coefficients_reference(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
) -> CoefficientPlanes:
    """Reference for :func:`image_to_coefficients`: float64 colour / subsample / DCT / quantize."""
    tables = QuantizationTables.for_quality(quality)
    if image.is_color:
        ycc = rgb_to_ycbcr(image.as_float())
        if subsampling == SUBSAMPLING_420:
            channels = [ycc[..., 0], subsample_420(ycc[..., 1]), subsample_420(ycc[..., 2])]
        else:
            channels = [ycc[..., 0], ycc[..., 1], ycc[..., 2]]
        n_components = 3
    else:
        channels = [image.as_float()]
        n_components = 1
        subsampling = SUBSAMPLING_NONE
    header = FrameHeader(
        height=image.height,
        width=image.width,
        n_components=n_components,
        subsampling=subsampling,
        quant_tables=tables,
    )
    planes: list[np.ndarray] = []
    for index, channel in enumerate(channels):
        blocks = split_into_blocks(channel)
        coefficients = forward_dct_blocks(blocks)
        quantized = quantize(coefficients, tables.table_for_component(index))
        zigzag = blocks_to_zigzag(quantized)
        planes.append(zigzag.reshape(-1, N_COEFFICIENTS).astype(np.int32))
    return CoefficientPlanes(header=header, planes=planes)


def coefficients_to_image_reference(coefficients: CoefficientPlanes) -> ImageBuffer:
    """Reference for :func:`coefficients_to_image`: float64 dequantize / IDCT / merge / colour."""
    header = coefficients.header
    tables = header.quant_tables
    channels: list[np.ndarray] = []
    for index, plane in enumerate(coefficients.planes):
        comp_h, comp_w = header.component_shape(index)
        nv, nh = block_grid_shape(comp_h, comp_w)
        blocks_zz = plane.reshape(nv, nh, N_COEFFICIENTS)
        blocks = zigzag_to_blocks(blocks_zz)
        dequantized = dequantize(blocks, tables.table_for_component(index))
        spatial = inverse_dct_blocks(dequantized)
        channels.append(merge_blocks(spatial, comp_h, comp_w))
    if header.n_components == 1:
        return ImageBuffer.from_array(channels[0])
    if header.subsampling == SUBSAMPLING_420:
        cb = upsample_420(channels[1], header.height, header.width)
        cr = upsample_420(channels[2], header.height, header.width)
    else:
        cb, cr = channels[1], channels[2]
    ycc = np.stack([channels[0], cb, cr], axis=-1)
    return ImageBuffer.from_array(ycbcr_to_rgb(ycc))


def encode_scan_body_reference(coefficients: CoefficientPlanes, scan: ScanHeader) -> bytes:
    """Reference scan encoder: optimised Huffman table, then per-coefficient Python loops.

    Byte-identical to the scan's body from
    :func:`~repro.codecs.fastpath.encode_scan_bodies_fast`, and like it raises
    ``ValueError`` naming the component for an AC coefficient outside +-32767.
    """
    all_symbols: list[int] = []
    per_component: list[tuple[list[int], list[tuple[int, int]]]] = []
    for component in scan.component_ids:
        plane = coefficients.planes[component]
        band = plane[:, max(scan.spectral_start, 1) : scan.spectral_end + 1].astype(np.int64)
        if band.size and int(np.abs(band).max()) > 32767:
            raise ValueError(
                f"component {component}: AC coefficient outside +-32767, whose category "
                f"does not fit the symbol's size nibble"
            )
        symbols: list[int] = []
        extras: list[tuple[int, int]] = []
        if scan.spectral_start == 0 and scan.spectral_end == 0:
            dc_syms, dc_extras = dc_symbols([int(v) for v in plane[:, 0]])
            symbols.extend(dc_syms)
            extras.extend(dc_extras)
        elif scan.spectral_start == 0:
            # Full/mixed band: per block, DC delta followed by the AC band.
            previous_dc = 0
            for block in plane:
                dc_value = int(block[0])
                diff = dc_value - previous_dc
                previous_dc = dc_value
                dc_syms, dc_extras = dc_symbols([diff])
                # dc_symbols delta-codes against 0, so a single diff round-trips.
                symbols.extend(dc_syms)
                extras.extend(dc_extras)
                band = [int(v) for v in block[1 : scan.spectral_end + 1]]
                ac_syms, ac_extras = ac_band_symbols(band)
                symbols.extend(ac_syms)
                extras.extend(ac_extras)
        else:
            for block in plane:
                band = [int(v) for v in block[scan.spectral_start : scan.spectral_end + 1]]
                ac_syms, ac_extras = ac_band_symbols(band)
                symbols.extend(ac_syms)
                extras.extend(ac_extras)
        per_component.append((symbols, extras))
        all_symbols.extend(symbols)
    table = HuffmanTable.from_symbols(all_symbols)
    writer = BitWriter()
    for symbols, extras in per_component:
        write_symbols(symbols, extras, table, writer)
    return table.to_bytes() + writer.getvalue()


def decode_scan_body_reference(
    data: bytes,
    segment: ScanSegment,
    coefficients: CoefficientPlanes,
) -> None:
    """Reference scan decoder (bit-at-a-time Huffman probing) into ``coefficients``.

    Coefficients and error classes match
    :func:`~repro.codecs.fastpath.decode_scan_bodies_fast`.
    """
    scan = segment.header
    table, consumed = HuffmanTable.from_bytes(data[segment.payload_start : segment.end])
    reader = BitReader(data[segment.payload_start + consumed : segment.end])
    for component in scan.component_ids:
        plane = coefficients.planes[component]
        n_blocks = plane.shape[0]
        if scan.spectral_start == 0 and scan.spectral_end == 0:
            previous = 0
            for block_index in range(n_blocks):
                category = table.decode_symbol(reader)
                bits = reader.read_bits(category)
                previous += decode_magnitude(bits, category)
                plane[block_index, 0] = previous
        elif scan.spectral_start == 0:
            previous = 0
            band_length = scan.spectral_end
            for block_index in range(n_blocks):
                category = table.decode_symbol(reader)
                bits = reader.read_bits(category)
                previous += decode_magnitude(bits, category)
                plane[block_index, 0] = previous
                band = read_ac_band(reader, table, band_length)
                plane[block_index, 1 : scan.spectral_end + 1] = band
        else:
            band_length = scan.band_length
            for block_index in range(n_blocks):
                band = read_ac_band(reader, table, band_length)
                plane[block_index, scan.spectral_start : scan.spectral_end + 1] = band
