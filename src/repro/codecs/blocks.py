"""Splitting channels into 8x8 blocks and merging them back.

JPEG operates on 8x8 pixel blocks.  Channels whose dimensions are not
multiples of 8 are padded by edge replication (matching libjpeg behaviour);
the original dimensions are carried in the frame header so the decoder can
crop the padding away.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 8


def pad_to_block_multiple(channel: np.ndarray) -> np.ndarray:
    """Pad a 2-D channel with edge replication to a multiple of 8.

    Dtype-preserving: an already block-aligned channel is returned as-is
    (no cast, no copy).
    """
    channel = np.asarray(channel)
    h, w = channel.shape
    pad_h = (-h) % BLOCK_SIZE
    pad_w = (-w) % BLOCK_SIZE
    if pad_h == 0 and pad_w == 0:
        return channel
    return np.pad(channel, ((0, pad_h), (0, pad_w)), mode="edge")


def split_into_blocks_view(channel: np.ndarray) -> np.ndarray:
    """Stride-tricks split of a 2-D channel into ``(nv, nh, 8, 8)`` blocks.

    Returns a *view* whenever the (padded) channel is C-contiguous — no
    pixel bytes are copied.
    """
    padded = pad_to_block_multiple(channel)
    h, w = padded.shape
    nv, nh = h // BLOCK_SIZE, w // BLOCK_SIZE
    return padded.reshape(nv, BLOCK_SIZE, nh, BLOCK_SIZE).swapaxes(1, 2)


def merge_blocks_into(blocks: np.ndarray, out: np.ndarray) -> None:
    """Merge ``(nv, nh, 8, 8)`` blocks into a preallocated padded channel.

    ``out`` must be a C-contiguous ``(nv * 8, nh * 8)`` array; the merge is
    a single strided assignment into it (no intermediate allocation), which
    is what the batched pixel path uses to reuse one channel buffer across
    every image of a minibatch.
    """
    nv, nh = blocks.shape[:2]
    out.reshape(nv, BLOCK_SIZE, nh, BLOCK_SIZE)[:] = blocks.transpose(0, 2, 1, 3)


def block_grid_shape(height: int, width: int) -> tuple[int, int]:
    """Return ``(n_blocks_v, n_blocks_h)`` for a channel of the given size."""
    nv = (height + BLOCK_SIZE - 1) // BLOCK_SIZE
    nh = (width + BLOCK_SIZE - 1) // BLOCK_SIZE
    return nv, nh
