"""Whole-stream loops over the scalar reference stages, for differential tests.

:mod:`repro.codecs.progressive` keeps each scalar stage as a
``*_reference`` function; these compose them the way the runtime entry
points (``encode_coefficients``, ``decode_coefficients``,
``ProgressiveCodec.encode`` / ``.decode``) compose the vectorized stages.
The heap construction of Huffman code lengths the two-queue merge in
:mod:`repro.codecs.huffman` must reproduce lives here too.
"""

from __future__ import annotations

import heapq
from collections import Counter

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


def heap_huffman_lengths(counts: dict[int, int]) -> dict[int, int]:
    """Huffman code lengths from a heap keyed ``(count, node id)``, leaves in symbol order."""
    ordered = sorted(counts.items())
    heap = [(count, node) for node, (_, count) in enumerate(ordered)]
    heapq.heapify(heap)
    parents: dict[int, int] = {}
    next_node = len(ordered)
    while len(heap) > 1:
        count_a, node_a = heapq.heappop(heap)
        count_b, node_b = heapq.heappop(heap)
        parents[node_a] = parents[node_b] = next_node
        heapq.heappush(heap, (count_a + count_b, next_node))
        next_node += 1
    lengths: dict[int, int] = {}
    for leaf, (symbol, _) in enumerate(ordered):
        depth, node = 0, leaf
        while node in parents:
            node = parents[node]
            depth += 1
        lengths[symbol] = depth
    return lengths


def limited_heap_huffman_lengths(counts: dict[int, int], max_length: int) -> dict[int, int]:
    """:func:`heap_huffman_lengths`, re-run on damped counts until no code exceeds ``max_length``."""
    lengths = heap_huffman_lengths(counts)
    damping = 1
    while max(lengths.values()) > max_length:
        damping *= 2
        damped = Counter({s: (c + damping - 1) // damping + 1 for s, c in counts.items()})
        lengths = heap_huffman_lengths(damped)
    return lengths
