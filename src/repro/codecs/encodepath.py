"""Batched float32 fast path for the pixel half of the *encoder*.

This is the forward twin of :mod:`repro.codecs.pixelpath`.  The scalar
encoder builds coefficient planes in five float64 stages — colour
conversion, chroma subsample, block split, ``scipy`` forward DCT,
quantize + zigzag — allocating fresh arrays at every step.  Here the
whole forward transform collapses into a handful of float32 primitives
over whole channels:

* **Fused colour conversion + level shift.**  RGB→YCbCr is one
  ``(H*W, 3) @ (3, 3)`` float32 matmul.  The scalar path adds +128 to
  centre the chroma channels and later subtracts 128 from *every*
  channel before the DCT; those two shifts cancel on chroma, so the fast
  path folds the net effect into a bias vector: Y comes out of the
  matmul already level-shifted (``Y - 128``) and Cb/Cr come out centred
  at 0 with no shift at all.
* **Strided 4:2:0 downsample.**  The 2x2 box filter is four strided
  adds and one scale into a reused buffer (plus exact edge-replication
  handling for odd dimensions), no ``reshape``/``mean`` temporaries.
* **Zero-copy block layout.**  :func:`~repro.codecs.blocks.split_into_blocks_view`
  exposes the padded channel as ``(nv, nh, 8, 8)`` blocks without
  copying pixels; one strided assignment lays them out as the
  ``(n_blocks, 64)`` gemm operand (the mirror of the decode side's
  ``merge_blocks_into``).
* **Fused quantize + forward DCT.**  The orthonormal 2-D DCT of a block
  is ``D @ X @ D.T``, which flattens to ``coeff_flat = kron(D, D) @
  x_flat``; selecting zigzag index ``z`` picks row ``ZIGZAG_ORDER[z]``,
  which is exactly the *transpose* of the decode side's ``_IDCT_ZZ``
  operator.  Dividing column ``z`` by that coefficient's quantization
  step folds quantization into the same operator, so one
  ``(n_blocks, 64) @ (64, 64)`` sgemm per component takes level-shifted
  spatial samples straight to *quantized* zigzag coefficients; a single
  in-place ``np.rint`` and one int32 cast finish the plane.  Bases are
  cached per quantization table, exactly like
  :func:`~repro.codecs.pixelpath.scaled_inverse_basis`.

Work buffers live in the calling thread's
:class:`~repro.codecs.pixelpath.PixelScratch` (``fwd_*`` roles, disjoint
from the decode roles), so consecutive encodes — a chunk through
:func:`repro.codecs.progressive.encode_progressive_batch` or a per-image
loop — reuse every intermediate.

Parity / error budget
---------------------

Unlike the entropy stage — where the fast and scalar coders emit
byte-identical streams — the fused forward transform *relaxes
byte-identity*.  Quantization rounds ``coefficient / step`` to the
nearest integer, and that rounding cannot be folded into the matmul: the
fast path rounds a float32 quotient whose arithmetic (fused operator,
different summation order) differs from the scalar float64 quotient by a
relative ~1e-6.  Where a quotient lands within that distance of a
half-integer rounding tie, the two paths round to *adjacent* integers.
The documented budget, enforced by ``tests/test_codecs_encodepath.py``
across scan groups, colour layouts and odd sizes, is:

* every quantized coefficient differs by **at most 1 quant step** from
  the scalar float64 reference;
* the off-by-one *rate* is at most ``MAX_MISMATCH_RATE`` (1e-3) of all
  coefficients on a corpus — measured rates are orders of magnitude
  below;
* images decoded from the two encodes agree to a PSNR of at least
  ``MIN_PARITY_PSNR_DB`` (45 dB) — visually indistinguishable, and far
  above the quality loss of even the finest quantization step.

The scalar float64 path survives behind ``use_fastpath(False)`` as the
differential reference those tests compare against.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codecs.blocks import BLOCK_SIZE, pad_to_block_multiple, split_into_blocks_view
from repro.codecs.color import _RGB_TO_YCBCR
from repro.codecs.markers import SUBSAMPLING_420
from repro.codecs.pixelpath import _IDCT_ZZ, PixelScratch, _thread_scratch
from repro.codecs.zigzag import N_COEFFICIENTS, ZIGZAG_ORDER

__all__ = [
    "MAX_MISMATCH_RATE",
    "MIN_PARITY_PSNR_DB",
    "encode_to_planes",
    "scaled_forward_basis",
]

#: Documented error budget: fraction of quantized coefficients allowed to
#: differ (by exactly ±1) from the scalar float64 reference on a corpus.
MAX_MISMATCH_RATE = 1e-3

#: Documented error budget: minimum PSNR between images decoded from a
#: fast-path encode and from the scalar-reference encode of the same input.
MIN_PARITY_PSNR_DB = 45.0

#: Transposed float32 RGB→YCbCr matrix (``rgb_rows @ _YCC_MATRIX_T``) and
#: the bias folding the DCT level shift into the conversion: the scalar
#: path computes ``ycc + (0, 128, 128)`` then subtracts 128 from every
#: channel before the DCT, so the net shift is ``(-128, 0, 0)``.
_YCC_MATRIX_T = np.ascontiguousarray(_RGB_TO_YCBCR.T, dtype=np.float32)
_YCC_LEVEL_BIAS = np.array([-128.0, 0.0, 0.0], dtype=np.float32)

#: Quantization-table bytes -> float32 scaled forward basis.  Same bounded
#: FIFO idiom as the decode-side basis / Huffman LUT caches.
_FWD_BASIS_CACHE: dict[bytes, np.ndarray] = {}
_FWD_BASIS_CACHE_MAX = 256
_FWD_BASIS_LOCK = threading.Lock()


def scaled_forward_basis(table: np.ndarray) -> np.ndarray:
    """The per-table fused forward-DCT + quantize operator, cached.

    ``quantized_zigzag_float = spatial_flat @ basis`` where ``basis[p, z]``
    carries the DCT weight of pixel ``p`` on zigzag coefficient ``z``,
    pre-divided by that coefficient's quantization step — quantization
    (bar the final rounding) disappears into the matmul.  Numerically
    ``basis == (_IDCT_ZZ / steps[:, None]).T``: the orthonormal forward
    operator is the transpose of the decode side's inverse operator.
    """
    table = np.asarray(table, dtype=np.float64)
    key = table.tobytes()
    basis = _FWD_BASIS_CACHE.get(key)
    if basis is None:
        steps = table.reshape(N_COEFFICIENTS)[ZIGZAG_ORDER]
        basis = np.ascontiguousarray(
            (_IDCT_ZZ / steps[:, None]).T.astype(np.float32)
        )
        with _FWD_BASIS_LOCK:
            if len(_FWD_BASIS_CACHE) >= _FWD_BASIS_CACHE_MAX:
                _FWD_BASIS_CACHE.pop(next(iter(_FWD_BASIS_CACHE)))
            _FWD_BASIS_CACHE[key] = basis
    return basis


def _subsample_420_into(channel: np.ndarray, out: np.ndarray) -> None:
    """2x2 box-filter downsample of ``channel`` into ``out`` (both float32).

    Strided equivalent of :func:`repro.codecs.color.subsample_420`:
    four strided adds over the even core, with odd trailing rows/columns
    handled by explicit edge replication (a duplicated edge sample means
    the 2x2 mean degenerates to a 2x1 mean, and the odd corner passes
    through unchanged).  ``channel`` may be any strided 2-D view.
    """
    h, w = channel.shape
    eh, ew = h - (h % 2), w - (w % 2)
    core = out[: eh // 2, : ew // 2]
    np.add(channel[0:eh:2, 0:ew:2], channel[0:eh:2, 1:ew:2], out=core)
    core += channel[1:eh:2, 0:ew:2]
    core += channel[1:eh:2, 1:ew:2]
    core *= 0.25
    if w % 2:
        edge = channel[:, w - 1]
        np.add(edge[0:eh:2], edge[1:eh:2], out=out[: eh // 2, -1])
        out[: eh // 2, -1] *= 0.5
    if h % 2:
        edge = channel[h - 1, :]
        np.add(edge[0:ew:2], edge[1:ew:2], out=out[-1, : ew // 2])
        out[-1, : ew // 2] *= 0.5
        if w % 2:
            out[-1, -1] = channel[h - 1, w - 1]


def _channel_to_plane(
    channel: np.ndarray, table: np.ndarray, index: int, scratch: PixelScratch
) -> np.ndarray:
    """One level-shifted float32 channel -> quantized int32 zigzag plane.

    Pads to a block multiple (edge replication — replicating an already
    level-shifted sample is identical to shifting a replicated one),
    lays the 8x8 blocks out as the gemm operand with one strided
    assignment, multiplies by the cached scaled forward basis, and
    rounds in place.  The returned int32 plane is freshly allocated (it
    outlives the scratch); everything else is reused.
    """
    padded = pad_to_block_multiple(channel)
    nv, nh = padded.shape[0] // BLOCK_SIZE, padded.shape[1] // BLOCK_SIZE
    blocks = scratch.get(("fwd_blocks", index), (nv * nh, N_COEFFICIENTS))
    blocks.reshape(nv, nh, BLOCK_SIZE, BLOCK_SIZE)[:] = split_into_blocks_view(padded)
    coeff = scratch.get(("fwd_coeff", index), (nv * nh, N_COEFFICIENTS))
    np.matmul(blocks, scaled_forward_basis(table), out=coeff)
    np.rint(coeff, out=coeff)
    return coeff.astype(np.int32)


def encode_to_planes(
    image, tables, subsampling: int, scratch: PixelScratch | None = None
) -> list[np.ndarray]:
    """Forward-transform an image into quantized int32 zigzag planes.

    ``image`` is an :class:`~repro.codecs.image.ImageBuffer`; ``tables`` a
    :class:`~repro.codecs.quantization.QuantizationTables`.  Returns one
    ``(n_blocks, 64)`` int32 plane per component (1 for grayscale, 3 for
    colour), matching the scalar
    :func:`repro.codecs.progressive.image_to_coefficients` within the
    module-level error budget.  With a ``scratch``, the only allocations
    are the returned planes (and ``np.pad`` copies for odd sizes).
    """
    if scratch is None:
        scratch = _thread_scratch()
    height, width = image.height, image.width
    if not image.is_color:
        chan = scratch.get(("fwd_gray",), (height, width))
        np.copyto(chan, image.pixels, casting="unsafe")
        chan -= 128.0
        return [_channel_to_plane(chan, tables.table_for_component(0), 0, scratch)]

    n_pixels = height * width
    rgb = scratch.get(("fwd_rgb",), (n_pixels, 3))
    np.copyto(rgb, image.pixels.reshape(n_pixels, 3), casting="unsafe")
    ycc = scratch.get(("fwd_ycc",), (n_pixels, 3))
    np.matmul(rgb, _YCC_MATRIX_T, out=ycc)
    ycc += _YCC_LEVEL_BIAS
    ycc = ycc.reshape(height, width, 3)

    luma = scratch.get(("fwd_luma",), (height, width))
    luma[:] = ycc[..., 0]
    planes = [_channel_to_plane(luma, tables.table_for_component(0), 0, scratch)]
    if subsampling == SUBSAMPLING_420:
        ch, cw = (height + 1) // 2, (width + 1) // 2
        for index in (1, 2):
            sub = scratch.get(("fwd_sub", index), (ch, cw))
            _subsample_420_into(ycc[..., index], sub)
            planes.append(
                _channel_to_plane(sub, tables.table_for_component(index), index, scratch)
            )
    else:
        for index in (1, 2):
            chroma = scratch.get(("fwd_chroma", index), (height, width))
            chroma[:] = ycc[..., index]
            planes.append(
                _channel_to_plane(chroma, tables.table_for_component(index), index, scratch)
            )
    return planes
