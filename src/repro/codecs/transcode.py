"""Lossless baseline-to-progressive transcoding (the ``jpegtran`` role).

The paper converts existing JPEG files to progressive form losslessly:
the quantized DCT coefficients are untouched, only the scan structure and
entropy coding change.  This module does the same for PCR-codec streams —
coefficients are decoded from the source stream and re-emitted with a
progressive scan script, without a second quantization pass.

The decode and the re-encode both run the vectorized entropy coder
(:mod:`repro.codecs.fastpath`), which makes dataset-wide conversion (the
Fig. 15 conversion-cost scenario) entropy-bound rather than
Python-loop-bound.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.progressive import ScanScript, decode_coefficients, encode_coefficients


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


def is_lossless_roundtrip(original: bytes, transcoded: bytes) -> bool:
    """Check that two streams decode to the same image from the same coefficients.

    The frame headers must encode to the same bytes (dimensions, component
    count, subsampling and quantization tables), which also fixes every
    plane's shape, and every quantized coefficient must be equal.
    """
    a, _ = decode_coefficients(original)
    b, _ = decode_coefficients(transcoded)
    if a.header.to_bytes() != b.header.to_bytes():
        return False
    return all(np.array_equal(pa, pb) for pa, pb in zip(a.planes, b.planes))
