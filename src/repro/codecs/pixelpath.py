"""Batched float32 fast path for the pixel half of the decoder.

The scalar decoder reconstructs pixels in five float64 stages — zigzag
reorder, dequantize, ``scipy`` IDCT, block merge, chroma upsample + colour
conversion — allocating a fresh array at every step.  This module collapses
all of that into a handful of float32 primitives built for whole
coefficient planes:

* **Fused dequantize + IDCT.**  The orthonormal 2-D IDCT of an 8x8 block is
  ``D.T @ C @ D`` (``D`` from :func:`repro.codecs.dct.dct_basis_matrix`),
  which flattens to a single ``(64, 64)`` operator on the raveled block.
  Folding the quantization table *and* the inverse-zigzag permutation into
  that operator's rows yields a per-table **scaled basis** ``B`` with
  ``spatial_flat = plane_zigzag @ B`` — one sgemm per component takes the
  entropy decoder's ``(n_blocks, 64)`` int32 plane straight to spatial
  samples.  Bases are cached per quantization table, exactly like the
  Huffman decode LUTs.
* **Zero-copy block layout.**  The gemm output is merged into one padded
  channel buffer per component with a single strided assignment
  (:func:`repro.codecs.blocks.merge_blocks_into`); the level shift is one
  in-place add; 4:2:0 chroma upsampling is four strided assignments into
  the shared ``(H, W, 3)`` YCbCr buffer (no ``np.repeat`` temporaries).
* **Float32 end to end.**  Colour conversion is one ``(H*W, 3) @ (3, 3)``
  float32 matmul with the -128 chroma centering folded into a bias vector,
  followed by a single in-place round/clip and one uint8 output allocation.

A :class:`PixelScratch` carries the intermediate buffers; each thread owns
one (:func:`_thread_scratch`), so consecutive decodes reuse them whether
they come as a minibatch
(:func:`repro.codecs.progressive.decode_progressive_batch`) or one image at
a time.  The batch path runs the same per-image gemms as the single-image
path — results are *bitwise identical* either way.

Relative to the float64 reference the fused path reorders floating-point
arithmetic, so decoded pixels may differ where a value lands within float32
epsilon of a rounding tie: the error budget is **at most 1 LSB per pixel**
(intermediate magnitudes stay below 2^12 while float32 carries 24 mantissa
bits), enforced across scan groups by ``tests/test_codecs_pixelpath.py``.
The scalar path remains available behind ``use_fastpath(False)`` as the
differential reference.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codecs.blocks import BLOCK_SIZE, block_grid_shape, merge_blocks_into
from repro.codecs.color import _YCBCR_TO_RGB, _YCBCR_TO_RGB_BIAS
from repro.codecs.dct import dct_basis_matrix
from repro.codecs.markers import SUBSAMPLING_420
from repro.codecs.zigzag import N_COEFFICIENTS, ZIGZAG_ORDER

__all__ = [
    "PixelScratch",
    "channels_to_pixels",
    "component_channels",
    "decode_to_pixels",
    "scaled_inverse_basis",
]

#: ``(64, 64)`` float64 flattened 2-D IDCT operator with rows permuted to
#: zigzag order: ``spatial_flat[p] = sum_z _IDCT_ZZ[z, p] * coeff_zigzag[z]``.
#: (``vec(D.T @ C @ D) = kron(D, D).T @ vec(C)``, then row ``z`` selects
#: natural index ``ZIGZAG_ORDER[z]``.)
_IDCT_ZZ = np.kron(dct_basis_matrix(), dct_basis_matrix())[ZIGZAG_ORDER, :]

#: Transposed float32 YCbCr->RGB matrix (``ycc_rows @ _RGB_MATRIX_T``) and
#: the bias folding in the -128 chroma centering, shared with the scalar
#: constants in :mod:`repro.codecs.color`.
_RGB_MATRIX_T = np.ascontiguousarray(_YCBCR_TO_RGB.T, dtype=np.float32)
_RGB_BIAS = _YCBCR_TO_RGB_BIAS.astype(np.float32)

#: Quantization-table bytes -> float32 scaled basis.  Bounded FIFO, same
#: idiom as the Huffman LUT caches: reads are GIL-atomic dict lookups, the
#: evict+insert pair takes the lock (concurrent builders are benign).
_BASIS_CACHE: dict[bytes, np.ndarray] = {}
_BASIS_CACHE_MAX = 256
_BASIS_LOCK = threading.Lock()


def scaled_inverse_basis(table: np.ndarray) -> np.ndarray:
    """The per-table fused dequantize+IDCT operator, cached.

    ``spatial_flat = plane_zigzag @ basis`` where ``basis[z, p]`` carries the
    IDCT weight of zigzag coefficient ``z`` on pixel ``p``, pre-multiplied by
    that coefficient's quantization step — dequantization disappears into
    the matmul.
    """
    table = np.asarray(table, dtype=np.float64)
    key = table.tobytes()
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        steps = table.reshape(N_COEFFICIENTS)[ZIGZAG_ORDER]
        basis = np.ascontiguousarray(
            (_IDCT_ZZ * steps[:, None]).astype(np.float32)
        )
        with _BASIS_LOCK:
            if len(_BASIS_CACHE) >= _BASIS_CACHE_MAX:
                _BASIS_CACHE.pop(next(iter(_BASIS_CACHE)))
            _BASIS_CACHE[key] = basis
    return basis


class PixelScratch:
    """Reusable float32 work buffers for decoding a batch of images.

    Buffers are keyed by ``(role, shape)`` so a batch of mixed image sizes
    still reuses whatever it can, with a size bound so a long-lived scratch
    over many distinct shapes cannot grow without limit.  A scratch must
    not be shared across threads; each ``DataLoader`` worker / batch call
    owns its own (see :func:`_thread_scratch`).
    """

    __slots__ = ("_buffers",)

    #: Distinct (role, shape) buffers kept before the scratch resets.  A
    #: single image decode uses ~10 roles, so the bound never bites within
    #: one decode; buffers already handed out stay valid (they are plain
    #: arrays — eviction only drops the reuse cache).
    MAX_BUFFERS = 64

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, role: tuple, shape: tuple[int, ...]) -> np.ndarray:
        """Return an uninitialized float32 buffer of ``shape``, reused."""
        key = (role, shape)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self.MAX_BUFFERS:
                self._buffers.clear()
            buffer = np.empty(shape, dtype=np.float32)
            self._buffers[key] = buffer
        return buffer


_THREAD_SCRATCH = threading.local()


def _thread_scratch() -> PixelScratch:
    """The calling thread's scratch, used whenever the caller passes none.

    The codec objects held by readers are shared across ``DataLoader``
    worker threads, so the implicit scratch must be per-thread.
    """
    scratch = getattr(_THREAD_SCRATCH, "scratch", None)
    if scratch is None:
        scratch = PixelScratch()
        _THREAD_SCRATCH.scratch = scratch
    return scratch


def _upsample_420_into(dst: np.ndarray, src: np.ndarray, height: int, width: int) -> None:
    """Nearest-neighbour 2x upsample of ``src`` into the ``(H, W)`` view ``dst``.

    Equivalent to ``np.repeat(np.repeat(src, 2, 0), 2, 1)[:H, :W]`` but as
    four strided assignments into the preallocated destination.
    """
    half_h = (height + 1) // 2
    half_w = (width + 1) // 2
    dst[0::2, 0::2] = src[:half_h, :half_w]
    dst[0::2, 1::2] = src[:half_h, : width // 2]
    dst[1::2, 0::2] = src[: height // 2, :half_w]
    dst[1::2, 1::2] = src[: height // 2, : width // 2]


def _finalize_uint8(buffer: np.ndarray) -> np.ndarray:
    """One in-place round + clip, then the single uint8 output allocation."""
    np.rint(buffer, out=buffer)
    np.clip(buffer, 0.0, 255.0, out=buffer)
    return buffer.astype(np.uint8)


def component_channels(coefficients, scratch: PixelScratch) -> list[np.ndarray]:
    """Fused dequantize+IDCT+merge: coefficient planes -> padded f32 channels.

    One sgemm against the cached scaled basis per component, an in-place
    level shift, and one strided merge into a (reused) padded channel
    buffer.  The returned buffers live in ``scratch`` and are only valid
    until its next use.
    """
    header = coefficients.header
    tables = header.quant_tables
    channels: list[np.ndarray] = []
    for index, plane in enumerate(coefficients.planes):
        comp_h, comp_w = header.component_shape(index)
        nv, nh = block_grid_shape(comp_h, comp_w)
        basis = scaled_inverse_basis(tables.table_for_component(index))
        plane_f32 = scratch.get(("plane", index), plane.shape)
        np.copyto(plane_f32, plane, casting="unsafe")
        spatial = scratch.get(("spatial", index), plane.shape)
        np.matmul(plane_f32, basis, out=spatial)
        spatial += 128.0  # level shift, folded into the merged channel
        padded = scratch.get(("channel", index), (nv * BLOCK_SIZE, nh * BLOCK_SIZE))
        merge_blocks_into(spatial.reshape(nv, nh, BLOCK_SIZE, BLOCK_SIZE), padded)
        channels.append(padded)
    return channels


def channels_to_pixels(
    header, channels: list[np.ndarray], scratch: PixelScratch
) -> np.ndarray:
    """Upsample + colour-convert + round/clip padded channels to uint8 pixels."""
    height, width = header.height, header.width
    if header.n_components == 1:
        region = channels[0][:height, :width]
        return _finalize_uint8(region)

    ycc = scratch.get(("ycc",), (height, width, 3))
    ycc[..., 0] = channels[0][:height, :width]
    if header.subsampling == SUBSAMPLING_420:
        _upsample_420_into(ycc[..., 1], channels[1], height, width)
        _upsample_420_into(ycc[..., 2], channels[2], height, width)
    else:
        ycc[..., 1] = channels[1][:height, :width]
        ycc[..., 2] = channels[2][:height, :width]

    rgb = scratch.get(("rgb",), (height * width, 3))
    np.matmul(ycc.reshape(height * width, 3), _RGB_MATRIX_T, out=rgb)
    rgb += _RGB_BIAS
    return _finalize_uint8(rgb).reshape(height, width, 3)


def decode_to_pixels(coefficients, scratch: PixelScratch | None = None) -> np.ndarray:
    """Reconstruct uint8 pixels from quantized zigzag coefficient planes.

    ``coefficients`` is a :class:`~repro.codecs.progressive.CoefficientPlanes`
    (possibly partial — absent scans are zeros).  With a ``scratch``, every
    intermediate lives in reused buffers and the only allocation is the
    returned uint8 array.  Output is ``(H, W)`` for grayscale, ``(H, W, 3)``
    RGB for colour.
    """
    if scratch is None:
        scratch = _thread_scratch()
    channels = component_channels(coefficients, scratch)
    return channels_to_pixels(coefficients.header, channels, scratch)
