"""Minibatch assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Minibatch:
    """A batch of training inputs and labels.

    ``images`` is ``(N, H, W, C)`` float32 scaled to ``[0, 1]``; ``labels``
    is ``(N,)`` int64.
    """

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def n_classes_present(self) -> int:
        """Number of distinct labels in the batch."""
        return int(np.unique(self.labels).size)


def _unit_float(array: np.ndarray) -> np.ndarray:
    """One image as float32 in ``[0, 1]`` (the per-image form of the rule)."""
    scaled = array.astype(np.float32)
    if array.dtype.kind in "ui" or scaled.max() > 1.5:
        scaled /= 255.0
    return scaled


def collate(images: list[np.ndarray], labels: list[int]) -> Minibatch:
    """Stack per-sample arrays into a :class:`Minibatch`.

    Grayscale inputs gain a trailing channel axis so every batch is 4-D.
    Integer pixels are 8-bit levels *by type* and always scale by 1/255 — a
    dark uint8 image whose levels are all 0 or 1 is not "already scaled" —
    and a batch of them converts once: one stack into float32, one in-place
    division (bit-identical to dividing image by image).  A float image
    keeps the value rule: a maximum above 1.5 means 0–255 levels.
    """
    if len(images) != len(labels):
        raise ValueError("images and labels must have the same length")
    if not images:
        raise ValueError("cannot collate an empty batch")
    prepared = []
    for image in images:
        array = np.asarray(image)
        prepared.append(array[..., None] if array.ndim == 2 else array)
    if all(array.dtype.kind in "ui" for array in prepared):
        batch = np.stack(prepared, dtype=np.float32)
        batch /= 255.0
    else:
        batch = np.stack([_unit_float(array) for array in prepared])
    return Minibatch(images=batch, labels=np.asarray(labels, dtype=np.int64))
