"""BT.601 colour-conversion constants.

JPEG converts RGB input to YCbCr and typically stores chroma at half
resolution (4:2:0).  The PCR codec does the same so that chroma scans carry
fewer bytes than luma scans, which is what produces the "scan sizes cluster"
behaviour described in the paper (Section 4.4, Figure 16).  The conversion
runs fused into the forward path (:mod:`repro.codecs.encodepath`) and the
pixel path (:mod:`repro.codecs.pixelpath`); this module holds the matrix and
weights they share.
"""

from __future__ import annotations

import numpy as np

# ITU-R BT.601 luma weights, as used by JFIF.  The Cb/Cr rows are derived
# from them exactly (``Cb = 0.5 (B - Y) / (1 - Kb)``, ``Cr = 0.5 (R - Y) /
# (1 - Kr)``) rather than spelled as the truncated 6-decimal constants the
# JFIF note prints (-0.168736, -0.331264, -0.418688, -0.081312), so the
# analytic inverse weights below are exact rather than approximate.
_KR, _KG, _KB = 0.299, 0.587, 0.114

_RGB_TO_YCBCR = np.array(
    [
        [_KR, _KG, _KB],
        [-0.5 * _KR / (1.0 - _KB), -0.5 * _KG / (1.0 - _KB), 0.5],
        [0.5, -0.5 * _KG / (1.0 - _KR), -0.5 * _KB / (1.0 - _KR)],
    ]
)

# The chroma weights of the exact analytic inverse of the BT.601 forward
# matrix (Cb/Cr rows scaled so the chroma extrema map to +/-0.5):
# R = Y + 2(1-Kr)Cr, B = Y + 2(1-Kb)Cb, and G balances the luma equation.
# Writing the constants out (instead of a numeric ``np.linalg.inv``
# round-trip) keeps them reproducible to the last bit across BLAS/LAPACK
# builds.
_CR_TO_R = 2.0 * (1.0 - _KR)  # 1.402
_CB_TO_B = 2.0 * (1.0 - _KB)  # 1.772
_CB_TO_G = -(_KB * _CB_TO_B) / _KG  # -0.344136...
_CR_TO_G = -(_KR * _CR_TO_R) / _KG  # -0.714136...
