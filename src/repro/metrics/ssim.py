"""Structural similarity (SSIM) between two images.

Follows Wang, Bovik, Sheikh & Simoncelli (2004), with a uniform window: a
``_DEFAULT_WINDOW`` x ``_DEFAULT_WINDOW`` (7x7) box average
(``scipy.ndimage.uniform_filter``) slides over the luma channels, and the
local means, variances and covariance are combined into the SSIM index.
Wang et al. weight their window with an 11x11 Gaussian (sigma 1.5); this
implementation does not.  ``scipy`` is imported where a filter runs, so
importing the metric costs only NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.image import ImageBuffer

_K1 = 0.01
_K2 = 0.03
_DATA_RANGE = 255.0
_DEFAULT_WINDOW = 7


def _to_luma(image: ImageBuffer | np.ndarray) -> np.ndarray:
    if isinstance(image, ImageBuffer):
        return image.to_grayscale().as_float()
    array = np.asarray(image, dtype=np.float64)
    if array.ndim == 3:
        return 0.299 * array[..., 0] + 0.587 * array[..., 1] + 0.114 * array[..., 2]
    return array


def ssim(
    reference: ImageBuffer | np.ndarray,
    candidate: ImageBuffer | np.ndarray,
    window: int = _DEFAULT_WINDOW,
    full: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Compute the mean SSIM index between two images.

    Parameters
    ----------
    reference, candidate:
        Images of identical dimensions (colour images are converted to luma).
    window:
        Side length of the local (uniform) window.
    full:
        When true, also return the per-pixel SSIM map.
    """
    from scipy.ndimage import uniform_filter

    x = _to_luma(reference)
    y = _to_luma(candidate)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    if min(x.shape) < window:
        window = max(3, min(x.shape) // 2 * 2 + 1)

    c1 = (_K1 * _DATA_RANGE) ** 2
    c2 = (_K2 * _DATA_RANGE) ** 2

    mu_x = uniform_filter(x, size=window)
    mu_y = uniform_filter(y, size=window)
    mu_x_sq = mu_x * mu_x
    mu_y_sq = mu_y * mu_y
    mu_xy = mu_x * mu_y

    sigma_x_sq = uniform_filter(x * x, size=window) - mu_x_sq
    sigma_y_sq = uniform_filter(y * y, size=window) - mu_y_sq
    sigma_xy = uniform_filter(x * y, size=window) - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x_sq + sigma_y_sq + c2)
    ssim_map = numerator / denominator
    mean_ssim = float(ssim_map.mean())
    if full:
        return mean_ssim, ssim_map
    return mean_ssim


def contrast_structure(
    reference: ImageBuffer | np.ndarray,
    candidate: ImageBuffer | np.ndarray,
    window: int = _DEFAULT_WINDOW,
) -> float:
    """The contrast-structure term of SSIM (used by MS-SSIM's coarse scales)."""
    from scipy.ndimage import uniform_filter

    x = _to_luma(reference)
    y = _to_luma(candidate)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    if min(x.shape) < window:
        window = max(3, min(x.shape) // 2 * 2 + 1)
    c2 = (_K2 * _DATA_RANGE) ** 2
    mu_x = uniform_filter(x, size=window)
    mu_y = uniform_filter(y, size=window)
    sigma_x_sq = uniform_filter(x * x, size=window) - mu_x * mu_x
    sigma_y_sq = uniform_filter(y * y, size=window) - mu_y * mu_y
    sigma_xy = uniform_filter(x * y, size=window) - mu_x * mu_y
    cs_map = (2.0 * sigma_xy + c2) / (sigma_x_sq + sigma_y_sq + c2)
    return float(cs_map.mean())
