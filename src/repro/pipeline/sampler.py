"""Record and sample ordering.

Record layouts shuffle at two levels: record order across the epoch and
sample order within each in-memory record (Section 2 / §A.1).  Both samplers
operate on arbitrary item lists so they serve record names and sample
indices alike.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")


class SequentialSampler:
    """Yields items in their given order."""

    def __init__(self, items: Sequence[T]) -> None:
        self._items = list(items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class ShuffleSampler:
    """Yields items in a fresh random order on every iteration."""

    def __init__(self, items: Sequence[T], seed: int = 0) -> None:
        self._items = list(items)
        self._rng = np.random.default_rng(seed)

    def __iter__(self) -> Iterator[T]:
        order = self._rng.permutation(len(self._items))
        for index in order:
            yield self._items[index]

    def __len__(self) -> int:
        return len(self._items)
