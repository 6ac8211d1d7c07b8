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
  (:func:`repro.codecs.blocks.merge_blocks_into`).  The +128 level shift
  and the +0.5 rounding offset ride in the gemm: row 0 of the scaled basis
  is constant, so adding ``128.5 / basis[0, 0]`` to each luma block's DC
  coefficient shifts every luma sample.  Chroma stays centred at 0, as in
  :mod:`repro.codecs.encodepath`, so colour conversion needs no bias.
* **Planar colour, float32 end to end.**  Each RGB channel is luma plus one
  chroma term (``1.402 Cr``, ``-0.344 Cb - 0.714 Cr`` or ``1.772 Cb``)
  computed at chroma resolution; for 4:2:0 that term is nearest-upsampled
  into one reused full-resolution buffer with three strided copies, then
  added to luma into the ``(H, W, 3)`` output.  One in-place clip and one
  uint8 cast (truncation, which after the +0.5 offset rounds) finish it.
* **DC-only sets at block resolution.**  When the entropy decoder applied
  no scan with an AC band (scan group 1: the DC scan alone), every block
  is one constant, so :func:`block_pixels` skips the gemm, merge, upsample
  and full-size colour pass: each block's value is its DC times
  ``basis[0, 0]`` (exactly what the gemm computes), the same colour stage
  runs once per block on the block grid, and the uint8 grid is expanded to
  full size with one row repeat and one broadcast copy.  Pixels are
  bitwise equal to the gemm route's.  DC-only sets that share a frame
  header (a record's group-1 images) run that colour stage once, over
  their stacked grids.  The entropy decoder
  (:func:`~repro.codecs.progressive.decode_coefficients` and the batch
  decode) picks the route from the scan headers and marks it on the
  planes.

A :class:`PixelScratch` carries the intermediate buffers; each thread owns
one (:func:`_thread_scratch`), so consecutive decodes reuse them whether
they come as a minibatch
(:func:`repro.codecs.progressive.decode_progressive_batch`) or one image at
a time.  The batch path runs the same per-image gemms as the single-image
path, and stacks only elementwise work across images — results are
*bitwise identical* either way.  The same per-thread
scratch serves the encoder: the forward transform's float32 buffers
(:mod:`repro.codecs.encodepath`) and the entropy encode's typed 1-D
buffers (:meth:`PixelScratch.array`, roles listed in
:mod:`repro.codecs.rle`), which grow to the largest image seen and are
kept.

Relative to the float64 reference the fused path reorders floating-point
arithmetic, so decoded pixels may differ where a value lands within float32
epsilon of a rounding tie: the error budget is **at most 1 LSB per pixel**
(intermediate magnitudes stay below 2^12 while float32 carries 24 mantissa
bits), enforced across scan groups by ``tests/test_codecs_pixelpath.py``.
Exact ties are inside that budget: the fast path rounds half up
(``floor(x + 0.5)``), the reference's ``np.round`` half to even.  That
float64 reference is ``coefficients_to_image_reference`` in
``tests/codec_reference.py``, which only the tests call; decoding always
runs this module.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from repro.codecs.blocks import BLOCK_SIZE, block_grid_shape, merge_blocks_into
from repro.codecs.color import _CB_TO_B, _CB_TO_G, _CR_TO_G, _CR_TO_R
from repro.codecs.dct import dct_basis_matrix
from repro.codecs.markers import SUBSAMPLING_420, SUBSAMPLING_NONE
from repro.codecs.zigzag import N_COEFFICIENTS, ZIGZAG_ORDER

__all__ = [
    "PixelScratch",
    "block_pixels",
    "channels_to_pixels",
    "component_channels",
    "decode_sets_to_pixels",
    "decode_to_pixels",
    "scaled_inverse_basis",
]

#: ``(64, 64)`` float64 flattened 2-D IDCT operator with rows permuted to
#: zigzag order: ``spatial_flat[p] = sum_z _IDCT_ZZ[z, p] * coeff_zigzag[z]``.
#: (``vec(D.T @ C @ D) = kron(D, D).T @ vec(C)``, then row ``z`` selects
#: natural index ``ZIGZAG_ORDER[z]``.)
_IDCT_ZZ = np.kron(dct_basis_matrix(), dct_basis_matrix())[ZIGZAG_ORDER, :]

#: Float32 chroma weights of the exact BT.601 inverse in :mod:`repro.codecs.color`.
_R_CR, _G_CB, _G_CR, _B_CB = (np.float32(w) for w in (_CR_TO_R, _CB_TO_G, _CR_TO_G, _CB_TO_B))

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
    """Reusable work buffers for the pixel stages and the entropy encode.

    Float32 buffers (:meth:`get`) are keyed by ``(role, shape)`` so a batch
    of mixed image sizes still reuses whatever it can, with a size bound so
    a long-lived scratch over many distinct shapes cannot grow without
    limit.  Typed 1-D buffers (:meth:`array`) are keyed by role alone and
    grow to fit: every image takes a differently sized slice of the same
    memory.  A scratch must not be shared across threads; each
    ``DataLoader`` worker / batch call owns its own (see
    :func:`_thread_scratch`).
    """

    __slots__ = ("_buffers", "_arenas")

    #: Distinct (role, shape) buffers kept before the scratch resets.  A
    #: single image decode uses ~10 roles, so the bound never bites within
    #: one decode; buffers already handed out stay valid (they are plain
    #: arrays — eviction only drops the reuse cache).
    MAX_BUFFERS = 64

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._arenas: dict[str, np.ndarray] = {}

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

    def array(self, role: str, size: int, dtype) -> np.ndarray:
        """Return an uninitialized 1-D ``dtype`` buffer of ``size`` items, reused.

        The view lies on the role's byte arena, which is replaced by a
        larger one (with 1/16 headroom) when ``size`` outgrows it and is
        never shrunk or freed.  Callers whose buffers are never live at the
        same time pass the same role and share the memory, whatever their
        dtypes; a view handed out is valid until its role is asked for
        again.
        """
        dtype = np.dtype(dtype)
        nbytes = size * dtype.itemsize
        arena = self._arenas.get(role)
        if arena is None or arena.shape[0] < nbytes:
            arena = np.empty(nbytes + (nbytes >> 4) + 64, dtype=np.uint8)
            self._arenas[role] = arena
        return arena[:nbytes].view(dtype)

    @property
    def nbytes(self) -> int:
        """Bytes held by every buffer and arena of this scratch."""
        held = list(self._buffers.values()) + list(self._arenas.values())
        return sum(buffer.nbytes for buffer in held)


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


def _finalize_uint8(buffer: np.ndarray) -> np.ndarray:
    """Clip in place, then truncate (samples carry the +0.5) into the uint8 output."""
    np.clip(buffer, 0.0, 255.0, out=buffer)
    return buffer.astype(np.uint8)


def component_channels(coefficients, scratch: PixelScratch) -> list[np.ndarray]:
    """Fused dequantize+IDCT+merge: coefficient planes -> padded f32 channels.

    One sgemm against the cached scaled basis per component and one strided
    merge into a (reused) padded channel buffer.  Luma comes out shifted by
    +128.5 (level shift plus rounding offset, added to each block's DC
    coefficient before the gemm); chroma stays centred at 0.  The returned
    buffers live in ``scratch`` and are only valid until its next use.
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
        if index == 0:  # basis row 0 is constant: level shift + rounding via the DC
            plane_f32[:, 0] += np.float32(128.5 / basis[0, 0])
        spatial = scratch.get(("spatial", index), plane.shape)
        np.matmul(plane_f32, basis, out=spatial)
        padded = scratch.get(("channel", index), (nv * BLOCK_SIZE, nh * BLOCK_SIZE))
        merge_blocks_into(spatial.reshape(nv, nh, BLOCK_SIZE, BLOCK_SIZE), padded)
        channels.append(padded)
    return channels


def channels_to_pixels(header, channels: list[np.ndarray], scratch: PixelScratch) -> np.ndarray:
    """Upsample + colour-convert + round/clip padded channels to uint8 pixels."""
    height, width = header.height, header.width
    luma = channels[0][:height, :width]
    if header.n_components == 1:
        return _finalize_uint8(luma)

    subsampled = header.subsampling == SUBSAMPLING_420
    chroma_h, chroma_w = ((height + 1) // 2, (width + 1) // 2) if subsampled else (height, width)
    cb = channels[1][:chroma_h, :chroma_w]
    cr = channels[2][:chroma_h, :chroma_w]
    terms = scratch.get(("chroma",), (3, chroma_h, chroma_w))
    np.multiply(cr, _R_CR, out=terms[0])
    np.multiply(cr, _G_CR, out=terms[2])
    np.multiply(cb, _G_CB, out=terms[1])
    terms[1] += terms[2]
    np.multiply(cb, _B_CB, out=terms[2])

    rgb = scratch.get(("rgb",), (height, width, 3))
    if subsampled:
        up = scratch.get(("upsampled",), (2 * chroma_h, 2 * chroma_w))
        up4 = up.reshape(chroma_h, 2, chroma_w, 2)
    for c, term in enumerate(terms):
        if subsampled:  # nearest 2x: fill the even rows, then copy them down
            up4[:, 0, :, 0] = term
            up4[:, 0, :, 1] = term
            up4[:, 1] = up4[:, 0]
            term = up
        np.add(luma, term[:height, :width], out=rgb[..., c])
    return _finalize_uint8(rgb)


def block_pixels(coefficient_sets, scratch: PixelScratch) -> list[np.ndarray]:
    """Reconstruct DC-only coefficient sets of one frame header at block resolution.

    Every block of such a set is one constant, the value the gemm yields
    for it: ``(dc + 128.5 / b) * b`` for luma and ``dc * b`` for chroma,
    with ``b = basis[0, 0]`` (row 0 of the scaled basis is constant and the
    other 63 products are exact zeros).  The sets' ``(nv, nh)`` block grids
    are stacked, 4:2:0 chroma repeated 2x2 per set, and
    :func:`channels_to_pixels` runs once on the stack: every step is
    elementwise, so a set's pixels do not depend on what it is stacked
    with.  Each set's uint8 grid is then expanded to full size with one row
    repeat and one broadcast copy.  Pixels are bitwise equal to the gemm
    route's; one set is the ``n = 1`` stack.
    """
    header = coefficient_sets[0].header
    tables = header.quant_tables
    n_sets = len(coefficient_sets)
    grids = []
    for index in range(header.n_components):
        nv, nh = block_grid_shape(*header.component_shape(index))
        scale = scaled_inverse_basis(tables.table_for_component(index))[0, 0]
        dc = np.stack([c.planes[index][:, 0] for c in coefficient_sets], dtype=np.float32)
        if index == 0:
            dc += np.float32(128.5 / scale)
        dc *= scale
        grids.append(dc.reshape(n_sets, nv, nh))
    _, nv, nh = grids[0].shape
    if header.subsampling == SUBSAMPLING_420:  # luma block (i, j) reads chroma block (i//2, j//2)
        grids[1:] = [grid.repeat(2, axis=1).repeat(2, axis=2)[:, :nv, :nh] for grid in grids[1:]]
    stack_header = replace(header, height=n_sets * nv, width=nh, subsampling=SUBSAMPLING_NONE)
    stacked = [grid.reshape(n_sets * nv, nh) for grid in grids]
    small = channels_to_pixels(stack_header, stacked, scratch)

    height, width = header.height, header.width
    rows = small.repeat(BLOCK_SIZE, axis=1)[:, :width]
    full = height // BLOCK_SIZE
    images = []
    for k in range(n_sets):
        set_rows = rows[k * nv : (k + 1) * nv]
        pixels = np.empty((height, width) + small.shape[2:], dtype=np.uint8)
        block_rows = pixels[: full * BLOCK_SIZE].reshape((full, BLOCK_SIZE) + rows.shape[1:])
        block_rows[...] = set_rows[:full, None]
        if full * BLOCK_SIZE < height:  # the partial bottom block row
            pixels[full * BLOCK_SIZE :] = set_rows[full]
        images.append(pixels)
    return images


def decode_to_pixels(coefficients, scratch: PixelScratch | None = None) -> np.ndarray:
    """Reconstruct uint8 pixels from quantized zigzag coefficient planes.

    ``coefficients`` is a :class:`~repro.codecs.progressive.CoefficientPlanes`
    (possibly partial — absent scans are zeros); the one-set case of
    :func:`decode_sets_to_pixels`.  Output is ``(H, W)`` for grayscale,
    ``(H, W, 3)`` RGB for colour.
    """
    return decode_sets_to_pixels([coefficients], scratch)[0]


def decode_sets_to_pixels(coefficient_sets, scratch: PixelScratch | None = None) -> list[np.ndarray]:
    """Reconstruct uint8 pixels for several coefficient sets, in order.

    Sets the entropy decoder marked ``dc_only`` take :func:`block_pixels`,
    one call per frame-header object they share (a batch decode parses
    each distinct header once, so a record's group-1 images are one
    call); any other set runs the gemm route on its own, where with a
    ``scratch`` every intermediate lives in reused buffers and the only
    allocation is the returned uint8 array.
    """
    if scratch is None:
        scratch = _thread_scratch()
    images: list = [None] * len(coefficient_sets)
    groups: dict[int, list[int]] = {}
    for index, coefficients in enumerate(coefficient_sets):
        if coefficients.dc_only:
            groups.setdefault(id(coefficients.header), []).append(index)
        else:
            channels = component_channels(coefficients, scratch)
            images[index] = channels_to_pixels(coefficients.header, channels, scratch)
    for indices in groups.values():
        group = block_pixels([coefficient_sets[index] for index in indices], scratch)
        for index, pixels in zip(indices, group):
            images[index] = pixels
    return images
