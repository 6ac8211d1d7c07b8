"""Data-loading pipeline.

The loader mirrors the paper's DALI/tf.data pipelines (Section 3.2, §A.1):
worker threads read whole records a bounded window ahead, decode and augment
the images; the training loop takes the records in epoch order as
minibatches and records a *data stall* whenever it has to wait.  Record
order, sample order and augmentation draws come from the loader's seed and
epoch number alone, so the batches do not depend on the worker count.
"""

from repro.pipeline.augment import (
    CenterCrop,
    Compose,
    HorizontalFlip,
    RandomCrop,
    Resize,
    standard_training_augmentations,
)
from repro.pipeline.batch import Minibatch, collate
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.pipeline.stall import StallTracker

__all__ = [
    "CenterCrop",
    "Compose",
    "DataLoader",
    "HorizontalFlip",
    "LoaderConfig",
    "Minibatch",
    "RandomCrop",
    "Resize",
    "StallTracker",
    "collate",
    "standard_training_augmentations",
]
