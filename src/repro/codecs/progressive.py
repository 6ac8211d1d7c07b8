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

from repro.codecs.fastpath import decode_streams_fast, encode_scan_bodies_fast, record_passes
from repro.codecs.blocks import block_grid_shape
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
    find_scan_segments,
    parse_frame_header,
    write_scan_segment,
)
from repro.codecs.encodepath import encode_to_planes
from repro.codecs.pixelpath import decode_sets_to_pixels, decode_to_pixels
from repro.codecs.quantization import QuantizationTables
from repro.codecs.zigzag import N_COEFFICIENTS

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
    """Quantized zigzag coefficients for every component of one image.

    ``dc_only`` is set by the entropy decode when none of the scans it
    applied carries an AC band, so every block is one constant and
    :func:`~repro.codecs.pixelpath.decode_to_pixels` reconstructs the image
    at block resolution; planes built any other way leave it false.
    Inside a batch decode such planes hold the DC column alone,
    ``(n_blocks, 1)`` (see :func:`empty_coefficients`);
    :func:`decode_coefficients` widens them to ``(n_blocks, 64)`` before it
    returns them, so every plane a caller sees is 64 wide.
    """

    header: FrameHeader
    planes: list[np.ndarray] = field(default_factory=list)
    dc_only: bool = False


def image_to_coefficients(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
) -> CoefficientPlanes:
    """Forward-transform an image into quantized zigzag coefficient planes.

    Runs the batched float32 forward path (:mod:`repro.codecs.encodepath`:
    planar colour conversion + level shift, strided 4:2:0 downsample, one
    fused quantize+DCT sgemm per component), reusing the calling thread's
    work buffers from one image to the next.  Against the float64
    reference in ``tests/codec_reference.py`` the coefficients may differ
    by at most 1 quant step at a documented, tested rate (see the error
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
    pixels are within 1 LSB of the float64 reference in
    ``tests/codec_reference.py``.
    """
    return ImageBuffer(decode_to_pixels(coefficients))


def empty_coefficients(header: FrameHeader, dc_only: bool = False) -> CoefficientPlanes:
    """Allocate all-zero coefficient planes for a frame header.

    One ``(n_blocks, 64)`` int32 plane per component; with ``dc_only``,
    one ``(n_blocks, 1)`` DC column per component, marked ``dc_only``.  A
    decode whose scans carry no AC band writes and reads only the DC slot,
    and the 63 other columns would be ≈ 300 KB of fresh zero pages per
    224-px image.
    """
    width = 1 if dc_only else N_COEFFICIENTS
    planes = []
    for index in range(header.n_components):
        comp_h, comp_w = header.component_shape(index)
        nv, nh = block_grid_shape(comp_h, comp_w)
        planes.append(np.zeros((nv * nh, width), dtype=np.int32))
    return CoefficientPlanes(header=header, planes=planes, dc_only=dc_only)


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

    The one-stream case of :func:`decode_progressive_batch`'s entropy half
    (:func:`_decode_streams`), raising the stream's error.  The result is
    marked ``dc_only`` when no applied scan's band reaches past the DC
    slot, read off the scan headers alone; its planes are widened from the
    decode's DC columns to ``(n_blocks, 64)`` with zero AC columns.
    """
    _check_max_scans(max_scans)
    decoded, failure = _decode_streams([data], max_scans)
    if failure is not None:
        raise failure[1]
    coefficients, applied = decoded[0]
    if coefficients.dc_only:
        for index, column in enumerate(coefficients.planes):
            plane = np.zeros((column.shape[0], N_COEFFICIENTS), dtype=np.int32)
            plane[:, 0] = column[:, 0]
            coefficients.planes[index] = plane
    return coefficients, applied


def _check_max_scans(max_scans: int | None) -> None:
    if max_scans is not None and max_scans < 0:
        raise ValueError(f"max_scans must be >= 0, got {max_scans}")


def _decode_streams(payloads: list[bytes], max_scans: int | None):
    """The entropy half of one batch-decode pass: every stream's coefficients.

    Each distinct frame-header prefix is parsed once (all of a record's
    streams share one), and its :class:`FrameHeader` object is shared by
    the streams that carry it, which is what lets
    :func:`~repro.codecs.pixelpath.decode_sets_to_pixels` colour their
    DC-only sets together.  A stream whose applied scans carry no AC band
    decodes into ``(n_blocks, 1)`` DC columns (``empty_coefficients(...,
    dc_only=True)``), since nothing downstream reads its AC slots.  The
    scans of every stream then go to one
    :func:`~repro.codecs.fastpath.decode_streams_fast` call.

    Returns ``(decoded, failure)``: ``(coefficients, scans applied)`` for
    the streams before the first that cannot be decoded, and ``None`` or
    ``(index, error)`` for that stream, ``error`` being the ``ValueError``
    or ``EOFError`` it raises decoded alone.  A stream whose header or scan
    segments fail ends the batch there; the streams before it are still
    decoded, and their own errors come first.
    """
    frames: dict[bytes, tuple[FrameHeader, int]] = {}
    streams = []
    failure = None
    for index, data in enumerate(payloads):
        try:
            # SOI, the SOF marker and its length, then the payload: the
            # prefix parses on its own exactly as it does inside ``data``.
            prefix = bytes(data[: 6 + int.from_bytes(data[4:6], "little")])
            frame = frames.get(prefix)
            if frame is None:
                frame = frames[prefix] = parse_frame_header(prefix)
            segments = find_scan_segments(data, frame)
        except (ValueError, EOFError) as error:
            failure = index, error
            break
        if max_scans is not None:
            segments = segments[:max_scans]
        dc_only = all(segment.header.spectral_end == 0 for segment in segments)
        streams.append((data, segments, empty_coefficients(frame[0], dc_only)))
    failure = decode_streams_fast(streams) or failure
    decoded = [(coefficients, len(segments)) for _, segments, coefficients in streams]
    return decoded[: failure[0]] if failure else decoded, failure


def decode_progressive_batch(
    payloads: list[bytes], max_scans: int | None = None
) -> list[ImageBuffer]:
    """Decode a whole minibatch of (possibly truncated) streams at once.

    The minibatch-level entry point the ``DataLoader`` path uses.  The
    batch decodes in passes, not image by image: a pass is a run of
    consecutive streams whose bytes fit one walk batch
    (:func:`~repro.codecs.fastpath.record_passes`), so a group-1 record is
    one pass and each group-10 stream its own.  In a pass each distinct
    frame header is parsed once; the DC-only and AC-only scans of every
    stream go through one sequence of stride walks
    (:func:`~repro.codecs.fastpath.decode_streams_fast`), so a group-1
    record's eight DC scans share one phase-0 window pass and one
    compaction; and the DC-only images of one header share one
    block-resolution colour pass
    (:func:`~repro.codecs.pixelpath.decode_sets_to_pixels`).  Sets with AC
    bands run the gemm route per image.  Pixels are bitwise identical to
    :func:`decode_coefficients` + :func:`coefficients_to_image` per payload
    (pinned by ``TestBatchDecode`` in ``tests/test_codecs_pixelpath.py``);
    docs/performance.md, "Minibatch decode API", has what the record pass
    saves.

    ``max_scans`` is validated first, so an empty batch refuses a negative
    one too.  A batch raises the error its lowest-index defective stream
    raises alone — the same class and message — with a note ``"stream i
    of n"`` naming it.

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
    _check_max_scans(max_scans)
    with get_tracer().span("decode.batch", {"streams": len(payloads)}):
        images = []
        for first, stop in record_passes(payloads):
            decoded, failure = _decode_streams(payloads[first:stop], max_scans)
            if failure is not None:
                index, error = failure
                error.add_note(f"stream {first + index} of {len(payloads)}")
                raise error
            pixels = decode_sets_to_pixels([coefficients for coefficients, _ in decoded])
            images += [ImageBuffer(frame) for frame in pixels]
    registry.counter("decode.streams_total").inc(len(payloads))
    registry.counter("decode.bytes_total").inc(sum(len(data) for data in payloads))
    registry.histogram("decode.batch_seconds").observe(time.perf_counter() - start)
    return images
def encode_progressive_batch(
    images: list[ImageBuffer],
    quality: int = DEFAULT_QUALITY,
    layout: str = "progressive",
) -> list[bytes]:
    """Encode a whole chunk of images at once — the minibatch ingest entry.

    The encode-side mirror of :func:`decode_progressive_batch`, and like
    it a plain loop over the per-image APIs with identical output: work
    buffers are the calling thread's and Huffman/basis setup is shared
    through the module caches, batch or not.  Every image is 4:2:0
    subsampled.  :mod:`repro.core.convert` is where ingest calls it,
    in-process or through an :class:`~repro.codecs.parallel.EncodePool`.

    ``layout`` selects what each returned stream is:

    * ``"progressive"`` — the stream :class:`ProgressiveCodec` emits by
      default (the component-count default script);
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
            coefficients = image_to_coefficients(image, quality)
            n_components = coefficients.header.n_components
            if layout == "sequential":
                script = ScanScript.sequential(n_components)
            else:
                script = ScanScript.default_for(n_components)
            streams.append(encode_coefficients(coefficients, script))
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
    frame = parse_frame_header(data)
    segments = find_scan_segments(data, frame)
    if not segments:
        raise CodecFormatError("stream contains no scans")
    prefix = data[: frame[1]]
    return prefix, [data[segment.start : segment.end] for segment in segments]


def assemble_partial_stream(header_prefix: bytes, scans: list[bytes]) -> bytes:
    """Reassemble a decodable stream from a header prefix and scan segments."""
    return header_prefix + b"".join(scans) + EOI

