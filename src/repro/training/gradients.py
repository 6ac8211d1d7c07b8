"""Per-scan-group gradient analysis (§A.6.2, Figure 19).

The dynamic autotuner's preferred signal is the cosine similarity between
the gradient computed on scan-group-``k`` images and the gradient computed
on the full-quality images: as the similarity approaches 1, updates from the
compressed data approach the true updates.
"""

from __future__ import annotations

import numpy as np

from repro.core.source import RecordSource
from repro.pipeline.batch import collate
from repro.training.loop import Trainer


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two flattened gradient vectors."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def dataset_gradient(
    trainer: Trainer,
    dataset: RecordSource,
    scan_group: int,
    max_samples: int | None = None,
) -> np.ndarray:
    """Gradient of the loss over (a subset of) the dataset at a scan group."""
    previous_group = dataset.scan_group
    dataset.set_scan_group(scan_group)
    images: list[np.ndarray] = []
    labels: list[int] = []
    try:
        for sample in dataset:
            images.append(sample.image.as_float())
            labels.append(sample.label)
            if max_samples is not None and len(images) >= max_samples:
                break
    finally:
        dataset.set_scan_group(previous_group)
    batch = collate(images, labels)
    return trainer.gradient_vector(batch)


def scan_group_gradient_similarities(
    trainer: Trainer,
    dataset: RecordSource,
    scan_groups: list[int],
    reference_group: int | None = None,
    max_samples: int | None = None,
) -> dict[int, float]:
    """Cosine similarity of each scan group's gradient to the reference gradient.

    The reference defaults to the dataset's highest scan group (full quality),
    matching Figure 19.
    """
    reference = reference_group if reference_group is not None else dataset.n_groups
    reference_gradient = dataset_gradient(trainer, dataset, reference, max_samples=max_samples)
    similarities: dict[int, float] = {}
    for group in scan_groups:
        gradient = dataset_gradient(trainer, dataset, group, max_samples=max_samples)
        similarities[group] = cosine_similarity(gradient, reference_gradient)
    return similarities
