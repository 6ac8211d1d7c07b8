"""Baseline (sequential) encoding.

A baseline stream serializes each component's blocks in a single full-band
scan, left-to-right and top-to-bottom.  Partially reading such a stream
yields "holes" — complete blocks of early components and nothing for the
rest — which is the behaviour the paper contrasts against progressive
compression (Section 2, Figure 1).

Both directions run the stages of :mod:`repro.codecs.progressive`; only
the scan script differs.
"""

from __future__ import annotations

from repro.codecs.image import ImageBuffer
from repro.codecs.markers import SUBSAMPLING_420, find_scan_segments
from repro.codecs.progressive import (
    DEFAULT_QUALITY,
    ScanScript,
    coefficients_to_image,
    decode_coefficients,
    encode_coefficients,
    image_to_coefficients,
)


class BaselineCodec:
    """Encode and decode sequential (single pass per component) streams."""

    def __init__(self, quality: int = DEFAULT_QUALITY, subsampling: int = SUBSAMPLING_420) -> None:
        self.quality = quality
        self.subsampling = subsampling

    def encode(self, image: ImageBuffer) -> bytes:
        """Encode an image as a sequential stream."""
        coefficients = image_to_coefficients(image, self.quality, self.subsampling)
        script = ScanScript.sequential(coefficients.header.n_components)
        return encode_coefficients(coefficients, script)

    def decode(self, data: bytes, max_scans: int | None = None) -> ImageBuffer:
        """Decode a sequential stream (optionally only the first scans)."""
        coefficients, _ = decode_coefficients(data, max_scans=max_scans)
        return coefficients_to_image(coefficients)

    def n_scans(self, data: bytes) -> int:
        """Number of scans in the stream (== number of components)."""
        return len(find_scan_segments(data))


__all__ = ["BaselineCodec", "DEFAULT_QUALITY"]
