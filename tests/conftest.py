"""Shared fixtures: deterministic synthetic images and small PCR datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.image import ImageBuffer
from repro.codecs.progressive import encode_progressive_batch
from repro.core.dataset import PCRDataset
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec


def make_structured_image(size: int = 48, seed: int = 0, color: bool = True) -> ImageBuffer:
    """A deterministic image with both low- and high-frequency content."""
    rng = np.random.default_rng(seed)
    coordinates = np.linspace(0, 1, size)
    xx, yy = np.meshgrid(coordinates, coordinates)
    base = 128 + 80 * np.sin(4 * np.pi * xx) * np.cos(2 * np.pi * yy)
    texture = 30 * np.sin(24 * np.pi * (xx + 0.3 * yy))
    noise = rng.normal(0, 4, size=(size, size))
    luma = base + texture + noise
    if not color:
        return ImageBuffer.from_array(luma)
    rgb = np.stack([luma, 0.7 * luma + 40.0, 220.0 - 0.5 * luma], axis=-1)
    return ImageBuffer.from_array(rgb)


@pytest.fixture(scope="session")
def color_image() -> ImageBuffer:
    return make_structured_image(48, seed=1, color=True)


@pytest.fixture(scope="session")
def gray_image() -> ImageBuffer:
    return make_structured_image(48, seed=2, color=False)


@pytest.fixture(scope="session")
def odd_sized_image() -> ImageBuffer:
    return make_structured_image(37, seed=3, color=True)


@pytest.fixture(scope="session")
def tiny_samples() -> list[tuple[str, ImageBuffer, int]]:
    """Twenty small labelled images used to build PCR datasets in tests."""
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=32, n_coarse_groups=2), seed=7
    )
    return generator.generate_batch(20, seed=7)


def _encoded(samples: list[tuple[str, ImageBuffer, int]], layout: str) -> list[tuple[str, bytes, int]]:
    streams = encode_progressive_batch([image for _, image, _ in samples], quality=90, layout=layout)
    return [(key, stream, label) for (key, _, label), stream in zip(samples, streams)]


@pytest.fixture(scope="session")
def tiny_streams(tiny_samples) -> list[tuple[str, bytes, int]]:
    """:func:`tiny_samples` as progressive streams at quality 90 (what PCR writers take)."""
    return _encoded(tiny_samples, "progressive")


@pytest.fixture(scope="session")
def tiny_baseline_streams(tiny_samples) -> list[tuple[str, bytes, int]]:
    """:func:`tiny_samples` as sequential streams at quality 90 (what baseline writers take)."""
    return _encoded(tiny_samples, "sequential")


@pytest.fixture(scope="session")
def pcr_dataset(tmp_path_factory, tiny_samples) -> PCRDataset:
    """A session-scoped PCR dataset built from :func:`tiny_samples`."""
    directory = tmp_path_factory.mktemp("pcr-session")
    return PCRDataset.build(tiny_samples, directory, images_per_record=8, quality=90)
