"""Two-dimensional DCT-II / DCT-III for 8x8 blocks.

Uses the orthonormal variant so that forward followed by inverse is the
identity (up to floating point error), and coefficient magnitudes match the
conventional JPEG quantization tables.

The scalar reference path routes through ``scipy.fft``; the batched pixel
fast path (:mod:`repro.codecs.pixelpath`) expresses the same transform as
matrix products against :func:`dct_basis_matrix`, which is the single
source of truth for the basis both use.  ``scipy`` is imported where the
reference runs, so a serving, loader or ingest process never loads it.
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


def forward_dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Apply the 2-D DCT-II to every 8x8 block of an ``(..., 8, 8)`` array.

    The pixel values are level-shifted by 128 first, as in JPEG.
    """
    from scipy.fft import dctn

    blocks = np.asarray(blocks, dtype=np.float64)
    _check_block_shape(blocks)
    return dctn(blocks - 128.0, type=2, norm="ortho", axes=(-2, -1))


def inverse_dct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Apply the 2-D inverse DCT (DCT-III) and undo the level shift."""
    from scipy.fft import idctn

    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_block_shape(coeffs)
    return idctn(coeffs, type=2, norm="ortho", axes=(-2, -1)) + 128.0


def _check_block_shape(array: np.ndarray) -> None:
    if array.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(
            f"expected trailing dimensions ({BLOCK_SIZE}, {BLOCK_SIZE}), "
            f"got shape {array.shape}"
        )
