"""Data-loading pipeline.

The loader mirrors the paper's DALI/tf.data pipelines (Section 3.2, §A.1):
worker threads prefetch whole records, decode and augment the images, and
push minibatches into a bounded queue; the training loop pops from the queue
and records a *data stall* whenever it has to wait.
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
from repro.pipeline.sampler import SequentialSampler, ShuffleSampler
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
    "SequentialSampler",
    "ShuffleSampler",
    "StallTracker",
    "collate",
    "standard_training_augmentations",
]
