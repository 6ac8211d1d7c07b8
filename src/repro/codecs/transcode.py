"""Lossless baseline-to-progressive transcoding (the ``jpegtran`` role).

The paper converts existing JPEG files to progressive form losslessly:
the quantized DCT coefficients are untouched, only the scan structure and
entropy coding change.  This module does the same for PCR-codec streams —
coefficients are decoded from the source stream and re-emitted with a
progressive scan script, without a second quantization pass.

Both directions run the vectorized entropy coder
(:mod:`repro.codecs.fastpath`), which makes dataset-wide conversion (the
Fig. 15 conversion-cost scenario) entropy-bound rather than
Python-loop-bound.
"""

from __future__ import annotations

from repro.codecs.markers import find_scan_segments
from repro.codecs.progressive import (
    CoefficientPlanes,
    ScanScript,
    decode_coefficients,
    encode_coefficients,
)


def transcode_to_progressive(data: bytes, script: ScanScript | None = None) -> bytes:
    """Losslessly convert any encoded stream to progressive form.

    Parameters
    ----------
    data:
        A complete baseline or progressive stream.
    script:
        The progressive scan script to use; defaults to the 10-scan default
        script for the stream's component count.
    """
    coefficients, _ = decode_coefficients(data)
    if script is None:
        script = ScanScript.default_for(coefficients.header.n_components)
    return encode_coefficients(coefficients, script)


def transcode_to_sequential(data: bytes) -> bytes:
    """Losslessly convert any encoded stream to the sequential layout."""
    coefficients, _ = decode_coefficients(data)
    script = ScanScript.sequential(coefficients.header.n_components)
    return encode_coefficients(coefficients, script)


def is_lossless_roundtrip(original: bytes, transcoded: bytes) -> bool:
    """Check that two streams hold identical quantized coefficients."""
    original_coefficients, _ = decode_coefficients(original)
    transcoded_coefficients, _ = decode_coefficients(transcoded)
    return _coefficients_equal(original_coefficients, transcoded_coefficients)


def scan_count(data: bytes) -> int:
    """Number of complete scans in a stream."""
    return len(find_scan_segments(data))


def _coefficients_equal(a: CoefficientPlanes, b: CoefficientPlanes) -> bool:
    if a.header.height != b.header.height or a.header.width != b.header.width:
        return False
    if len(a.planes) != len(b.planes):
        return False
    return all((pa == pb).all() for pa, pb in zip(a.planes, b.planes))
