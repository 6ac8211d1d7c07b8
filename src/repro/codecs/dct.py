"""Two-dimensional DCT-II / DCT-III for 8x8 blocks.

Uses the orthonormal variant so that forward followed by inverse is the
identity (up to floating point error), and coefficient magnitudes match the
conventional JPEG quantization tables.

The forward (:mod:`repro.codecs.encodepath`) and pixel
(:mod:`repro.codecs.pixelpath`) paths express the transform as matrix
products against :func:`dct_basis_matrix`, the single source of truth for
the basis both use.  The ``scipy.fft`` transform the tests compare them
with is in ``tests/codec_reference.py``, so no runtime process loads
``scipy.fft``.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.blocks import BLOCK_SIZE


def dct_basis_matrix(n: int = BLOCK_SIZE) -> np.ndarray:
    """The orthonormal DCT-II basis ``D`` with ``dct(x) == D @ x``.

    ``D[k, i] = c_k * cos((2i + 1) * k * pi / (2n))`` with ``c_0 = sqrt(1/n)``
    and ``c_k = sqrt(2/n)`` otherwise, so the 2-D transforms factor as
    ``dctn(X) == D @ X @ D.T`` and ``idctn(C) == D.T @ C @ D``.
    """
    i = np.arange(n, dtype=np.float64)
    basis = np.cos((2.0 * i[None, :] + 1.0) * i[:, None] * np.pi / (2.0 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0, :] = np.sqrt(1.0 / n)
    return basis

