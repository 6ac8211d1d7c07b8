"""Image container used throughout the codec and the PCR pipeline.

The library does not depend on PIL, so images are plain ``uint8`` numpy
arrays wrapped in a tiny container that carries shape metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ImageBuffer:
    """An 8-bit image held as an ``(H, W, C)`` or ``(H, W)`` numpy array.

    Attributes
    ----------
    pixels:
        ``uint8`` array.  Grayscale images are 2-D; colour images are 3-D
        with ``C == 3`` (RGB channel order).
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.dtype != np.uint8:
            raise TypeError(f"ImageBuffer requires uint8 pixels, got {arr.dtype}")
        if arr.ndim == 2:
            pass
        elif arr.ndim == 3:
            if arr.shape[2] != 3:
                raise ValueError(
                    f"colour images must have 3 channels, got {arr.shape[2]}"
                )
        else:
            raise ValueError(f"expected 2-D or 3-D pixel array, got shape {arr.shape}")

    @property
    def height(self) -> int:
        """Image height in pixels."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Image width in pixels."""
        return int(self.pixels.shape[1])

    @property
    def channels(self) -> int:
        """Number of channels (1 for grayscale, 3 for RGB)."""
        return 1 if self.pixels.ndim == 2 else int(self.pixels.shape[2])

    @property
    def is_color(self) -> bool:
        """Whether the image has three colour channels."""
        return self.channels == 3

    def as_float(self) -> np.ndarray:
        """Return the pixels as ``float64`` in ``[0, 255]``."""
        return self.pixels.astype(np.float64)

    def to_grayscale(self) -> "ImageBuffer":
        """Return a grayscale (luma) version of this image."""
        if not self.is_color:
            return self
        rgb = self.as_float()
        luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        return ImageBuffer(np.clip(np.round(luma), 0, 255).astype(np.uint8))

    @classmethod
    def from_array(cls, array: np.ndarray) -> "ImageBuffer":
        """Build an image from any numeric array by clipping to ``[0, 255]``.

        Dtype-preserving fast paths: ``uint8`` input skips the float64
        round-trip entirely (a read-only array is wrapped without copying;
        a writeable one is copied so later caller mutations cannot corrupt
        the frozen buffer or its cached hash), and float input is
        rounded/clipped in its own precision — ``np.round`` over float32
        matches the float64 result exactly, since the cast up is
        value-preserving.
        """
        array = np.asarray(array)
        if array.dtype == np.uint8:
            return cls(array.copy() if array.flags.writeable else array)
        if array.dtype.kind in "iu":
            return cls(np.clip(array, 0, 255).astype(np.uint8))
        return cls(np.clip(np.round(array), 0, 255).astype(np.uint8))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return (
            self.pixels.shape == other.pixels.shape
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    def __hash__(self) -> int:  # frozen dataclass requires explicit hash with __eq__
        # ``pixels.tobytes()`` copies the whole image; hashing a frozen
        # value twice should not.  Cached via object.__setattr__ because the
        # dataclass is frozen (the pixel array is treated as immutable).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.pixels.shape, self.pixels.tobytes()))
            object.__setattr__(self, "_hash", cached)
        return cached
