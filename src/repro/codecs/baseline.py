"""Baseline (sequential) encoding.

A baseline stream serializes each component's blocks in a single full-band
scan, left-to-right and top-to-bottom.  Partially reading such a stream
yields "holes" — complete blocks of early components and nothing for the
rest — which is the behaviour the paper contrasts against progressive
compression (Section 2, Figure 1).

Entropy coding runs through the vectorized fast path (see
:mod:`repro.codecs.fastpath`) via the scan dispatch in
:mod:`repro.codecs.progressive`; toggle with :mod:`repro.codecs.config`.
"""

from __future__ import annotations

from repro.codecs.image import ImageBuffer
from repro.codecs.markers import SUBSAMPLING_420, find_scan_segments
from repro.codecs.progressive import (
    DEFAULT_QUALITY,
    ScanScript,
    coefficients_to_image,
    decode_coefficients,
    decode_progressive_batch,
    encode_coefficients,
    encode_progressive_batch,
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

    def encode_batch(self, images: list[ImageBuffer]) -> list[bytes]:
        """Encode a minibatch of images under one ``ingest.*`` metrics sample.

        See :func:`repro.codecs.progressive.encode_progressive_batch`;
        results are bitwise identical to per-image :meth:`encode` calls.
        """
        return encode_progressive_batch(
            images, self.quality, self.subsampling, layout="sequential"
        )

    def decode(self, data: bytes, max_scans: int | None = None) -> ImageBuffer:
        """Decode a sequential stream (optionally only the first scans)."""
        coefficients, _ = decode_coefficients(data, max_scans=max_scans)
        return coefficients_to_image(coefficients)

    def decode_batch(
        self, payloads: list[bytes], max_scans: int | None = None
    ) -> list[ImageBuffer]:
        """Decode a batch of sequential streams.

        The scan layout is irrelevant to the batch loop, so this is the same
        instrumented path progressive streams use.
        """
        return decode_progressive_batch(payloads, max_scans=max_scans)

    def n_scans(self, data: bytes) -> int:
        """Number of scans in the stream (== number of components)."""
        return len(find_scan_segments(data))


__all__ = ["BaselineCodec", "DEFAULT_QUALITY"]
