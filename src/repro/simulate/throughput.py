"""Queueing-theory throughput model (Lemmas A.1–A.5, Theorem A.5).

The data loader is a closed system continuously fetching records; the
compute unit is an open system fed by the loader.  The results used
throughout the paper:

* **Lemma A.1** — the expected time to read a record is proportional to the
  mean record size over the device bandwidth (plus a constant setup cost).
* **Lemma A.2** — by Little's law, loader image throughput is
  ``W / E[s(x)]`` for bandwidth ``W`` and mean image size ``E[s(x)]``
  (``PipelineModel.loader_rate`` at one image per record, no setup cost).
* **Lemma A.3** — the loader speedup of scan group *g* is the ratio of mean
  image sizes ``E[s(x)] / E[s(x, g)]``.
* **Lemma A.4** — end-to-end throughput is ``min(X_compute, X_loader)``.
* **Theorem A.5** — for I/O-bound pipelines the achievable speedup equals
  the data-reduction ratio.

``PipelineModel`` is also the data-intensity roofline of Figure 14: its
``end_to_end_rate`` over bytes/image is the compute roof cut by the
bandwidth slope, ``crossover_image_bytes`` is the ridge point, and
``is_io_bound`` says which side of it a scan group sits on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def expected_read_seconds(
    mean_image_bytes: float,
    bandwidth_bytes_per_second: float,
    images_per_record: int = 1,
    setup_seconds: float = 0.0,
) -> float:
    """Lemma A.1: expected time to read one record of ``images_per_record`` images."""
    if bandwidth_bytes_per_second <= 0:
        raise ValueError("bandwidth must be positive")
    return images_per_record * mean_image_bytes / bandwidth_bytes_per_second + setup_seconds


def speedup(mean_baseline_bytes: float, mean_group_bytes: float) -> float:
    """Lemma A.3 / Theorem A.5: loader speedup of a scan group over the baseline."""
    if mean_group_bytes <= 0:
        raise ValueError("mean_group_bytes must be positive")
    return mean_baseline_bytes / mean_group_bytes


def pipeline_throughput(compute_images_per_second: float, loader_images_per_second: float) -> float:
    """Lemma A.4: the end-to-end rate is bounded by the slower stage."""
    return min(compute_images_per_second, loader_images_per_second)


@dataclass(frozen=True)
class PipelineModel:
    """A configured training pipeline: storage bandwidth + compute rate."""

    storage_bandwidth_bytes_per_second: float
    compute_images_per_second: float
    images_per_record: int = 64
    record_setup_seconds: float = 0.0

    def loader_rate(self, mean_image_bytes: float) -> float:
        """Loader throughput at a mean image size (images/second)."""
        if mean_image_bytes <= 0:
            raise ValueError("mean_image_bytes must be positive")
        record_seconds = expected_read_seconds(
            mean_image_bytes,
            self.storage_bandwidth_bytes_per_second,
            images_per_record=self.images_per_record,
            setup_seconds=self.record_setup_seconds,
        )
        return self.images_per_record / record_seconds

    def end_to_end_rate(self, mean_image_bytes: float) -> float:
        """Pipeline throughput (images/second) at a mean image size."""
        return pipeline_throughput(self.compute_images_per_second, self.loader_rate(mean_image_bytes))

    def is_io_bound(self, mean_image_bytes: float) -> bool:
        """True if the loader, not the compute unit, limits throughput."""
        return self.loader_rate(mean_image_bytes) < self.compute_images_per_second

    def epoch_seconds(self, mean_image_bytes: float, n_images: int) -> float:
        """Wall time of one epoch over ``n_images`` images."""
        return n_images / self.end_to_end_rate(mean_image_bytes)

    def speedup_over(self, baseline_image_bytes: float, group_image_bytes: float) -> float:
        """End-to-end speedup of a scan group over the baseline (capped by compute)."""
        baseline_rate = self.end_to_end_rate(baseline_image_bytes)
        group_rate = self.end_to_end_rate(group_image_bytes)
        return group_rate / baseline_rate

    def crossover_image_bytes(self) -> float:
        """Mean image size below which the pipeline becomes compute bound.

        Solves ``loader_rate(b) == compute``: the per-record setup cost
        takes its share of each image's time budget before the bytes do
        (≤ 0 when setup alone holds the loader below compute).
        """
        return self.storage_bandwidth_bytes_per_second * (
            1.0 / self.compute_images_per_second
            - self.record_setup_seconds / self.images_per_record
        )


def predicted_throughput_by_scan(
    scan_mean_bytes: dict[int, float],
    full_quality_rate_images_per_second: float,
) -> dict[int, float]:
    """Figure 18 (middle): extrapolate per-scan throughput from size ratios.

    The predicted rate at scan *g* equals the measured full-quality rate
    scaled by ``size(full) / size(g)``.
    """
    if not scan_mean_bytes:
        return {}
    full_scan = max(scan_mean_bytes)
    full_bytes = scan_mean_bytes[full_scan]
    return {
        scan: full_quality_rate_images_per_second * (full_bytes / size)
        for scan, size in scan_mean_bytes.items()
    }


def empirical_image_size_distribution(sizes: list[int]) -> dict[str, float]:
    """Summary statistics of an encoded-size distribution (Figure 12)."""
    array = np.asarray(sizes, dtype=np.float64)
    if array.size == 0:
        raise ValueError("sizes must be non-empty")
    return {
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "p05": float(np.percentile(array, 5)),
        "p95": float(np.percentile(array, 95)),
        "min": float(array.min()),
        "max": float(array.max()),
    }
