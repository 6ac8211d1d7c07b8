"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  The underlying
datasets are scaled-down synthetic analogues (see DESIGN.md §2); they are
built once per pytest session and shared across benchmark modules.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.dataset import PCRDataset
from repro.datasets.registry import (
    CARS_SPEC,
    CELEBAHQ_SPEC,
    HAM10000_SPEC,
    IMAGENET_SPEC,
    DatasetSpec,
    generate_dataset,
)

#: Benchmark-scale overrides: enough samples for meaningful statistics while
#: keeping the full harness runnable in minutes on a laptop.
BENCH_SPECS: dict[str, DatasetSpec] = {
    "imagenet": replace(IMAGENET_SPEC, n_samples=64, image_size=48, n_classes=8, images_per_record=16),
    "celebahq": replace(CELEBAHQ_SPEC, n_samples=48, image_size=56, images_per_record=16),
    "ham10000": replace(HAM10000_SPEC, n_samples=48, image_size=64, images_per_record=16),
    "cars": replace(CARS_SPEC, n_samples=48, image_size=48, n_classes=12, n_coarse_groups=4, images_per_record=16),
}

#: Published mean image size for ImageNet (bytes); used to rescale measured
#: per-scan-group ratios to the paper's absolute bandwidth numbers.
PAPER_IMAGENET_MEAN_IMAGE_BYTES = 110_000

#: The paper's 7200 RPM HDD (its Ceph OSD drives), as Lemma A.1's two terms:
#: ~160 MiB/s sequential bandwidth and ~8.5 ms seek + rotational setup per read.
HDD_BANDWIDTH_BYTES_PER_SECOND = 160 * 1024 * 1024
HDD_SETUP_SECONDS = 8.5e-3


def print_header(title: str) -> None:
    """Uniform banner so benchmark output is easy to scan."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(scope="session")
def bench_datasets(tmp_path_factory) -> dict[str, tuple[PCRDataset, DatasetSpec]]:
    """PCR datasets for all four evaluation datasets, built once per session."""
    datasets: dict[str, tuple[PCRDataset, DatasetSpec]] = {}
    for name, spec in BENCH_SPECS.items():
        directory = tmp_path_factory.mktemp(f"bench-{name}")
        dataset = PCRDataset.build(
            generate_dataset(spec, seed=42),
            directory,
            images_per_record=spec.images_per_record,
            quality=spec.jpeg_quality,
        )
        datasets[name] = (dataset, spec)
    return datasets


@pytest.fixture(scope="session")
def imagenet_like(bench_datasets):
    return bench_datasets["imagenet"]


@pytest.fixture(scope="session")
def cars_like(bench_datasets):
    return bench_datasets["cars"]


@pytest.fixture(scope="session")
def ham_like(bench_datasets):
    return bench_datasets["ham10000"]


@pytest.fixture(scope="session")
def celeba_like(bench_datasets):
    return bench_datasets["celebahq"]


def mean_bytes_by_group(dataset: PCRDataset) -> dict[int, float]:
    """Mean encoded bytes per image at each scan group."""
    n_samples = max(1, len(dataset))
    return {
        group: total / n_samples for group, total in dataset.epoch_bytes_by_group().items()
    }


def rescale_to_paper_sizes(sizes: dict[int, float], full_bytes: float = PAPER_IMAGENET_MEAN_IMAGE_BYTES) -> dict[int, float]:
    """Rescale measured per-group sizes so the full-quality group matches the paper."""
    baseline = sizes[max(sizes)]
    return {group: size * full_bytes / baseline for group, size in sizes.items()}
