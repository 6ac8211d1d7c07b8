"""Whole-stream loops over the scalar reference stages, for differential tests.

:mod:`repro.codecs.progressive` keeps each scalar stage as a
``*_reference`` function; these compose them the way the runtime entry
points (``encode_coefficients``, ``decode_coefficients``,
``ProgressiveCodec.encode`` / ``.decode``) compose the vectorized stages.
"""

from __future__ import annotations

from repro.codecs.image import ImageBuffer
from repro.codecs.markers import (
    EOI,
    SOI,
    SUBSAMPLING_420,
    find_scan_segments,
    parse_frame_header,
    write_scan_segment,
)
from repro.codecs.progressive import (
    DEFAULT_QUALITY,
    CoefficientPlanes,
    ScanScript,
    coefficients_to_image_reference,
    decode_scan_body_reference,
    empty_coefficients,
    encode_scan_body_reference,
    image_to_coefficients_reference,
)


def encode_coefficients_reference(coefficients: CoefficientPlanes, script: ScanScript) -> bytes:
    """SOI + SOF + reference-coded scans + EOI."""
    script.validate(coefficients.header.n_components)
    parts = [SOI, coefficients.header.to_bytes()]
    for scan in script:
        parts.append(write_scan_segment(scan, encode_scan_body_reference(coefficients, scan)))
    parts.append(EOI)
    return b"".join(parts)


def decode_coefficients_reference(
    data: bytes, max_scans: int | None = None
) -> tuple[CoefficientPlanes, int]:
    """Decode up to ``max_scans`` scans one reference scan at a time."""
    header, _ = parse_frame_header(data)
    coefficients = empty_coefficients(header)
    segments = find_scan_segments(data)[:max_scans]
    for segment in segments:
        decode_scan_body_reference(data, segment, coefficients)
    return coefficients, len(segments)


def encode_reference(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
    sequential: bool = False,
) -> bytes:
    """The reference twin of ``ProgressiveCodec.encode`` (``BaselineCodec`` if ``sequential``)."""
    coefficients = image_to_coefficients_reference(image, quality, subsampling)
    n_components = coefficients.header.n_components
    script = ScanScript.sequential(n_components) if sequential else ScanScript.default_for(n_components)
    return encode_coefficients_reference(coefficients, script)


def decode_reference(data: bytes, max_scans: int | None = None) -> ImageBuffer:
    """The reference twin of ``ProgressiveCodec.decode``."""
    coefficients, _ = decode_coefficients_reference(data, max_scans)
    return coefficients_to_image_reference(coefficients)
