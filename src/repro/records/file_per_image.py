"""File-per-Image layout (PyTorch ``ImageFolder`` style).

Every sample is stored as its own file under a per-class subdirectory::

    root/<class_label>/<key>.img

Accessing a shuffled epoch therefore issues one small random read per
sample — the access pattern the paper identifies as detrimental on
bandwidth-oriented storage (Section 2, Figure 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.codecs.baseline import BaselineCodec
from repro.codecs.image import ImageBuffer

IMAGE_SUFFIX = ".img"


@dataclass(frozen=True)
class FilePerImageSample:
    """One sample of a file-per-image dataset."""

    key: str
    label: int
    path: Path

    def read_bytes(self) -> bytes:
        """Read the encoded image file."""
        return self.path.read_bytes()


class FilePerImageWriter:
    """Writes already-encoded images into a file-per-image dataset directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_samples = 0
        self.total_bytes = 0

    def add_sample(self, key: str, stream: bytes, label: int) -> Path:
        """Write one sample and return its file path."""
        class_dir = self.root / str(label)
        class_dir.mkdir(parents=True, exist_ok=True)
        path = class_dir / f"{key}{IMAGE_SUFFIX}"
        path.write_bytes(stream)
        self.n_samples += 1
        self.total_bytes += len(stream)
        return path

    def write_dataset(self, samples: Iterable[tuple[str, bytes, int]]) -> int:
        """Write every ``(key, stream, label)`` sample; returns the number written."""
        for key, stream, label in samples:
            self.add_sample(key, stream, label)
        return self.n_samples


class FilePerImageDataset:
    """Reads a file-per-image dataset directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"{self.root} is not a directory")
        self._samples = sorted(self._discover(), key=lambda s: s.key)
        self.codec = BaselineCodec()

    def _discover(self) -> Iterator[FilePerImageSample]:
        for class_dir in sorted(self.root.iterdir()):
            if not class_dir.is_dir():
                continue
            label = int(class_dir.name)
            for path in sorted(class_dir.glob(f"*{IMAGE_SUFFIX}")):
                yield FilePerImageSample(key=path.stem, label=label, path=path)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[FilePerImageSample]:
        return iter(self._samples)

    def __getitem__(self, index: int) -> FilePerImageSample:
        return self._samples[index]

    def read_image(self, index: int) -> tuple[ImageBuffer, int]:
        """Read and decode one sample; returns (image, label)."""
        sample = self._samples[index]
        return self.codec.decode(sample.read_bytes()), sample.label

    def total_bytes(self) -> int:
        """Total encoded bytes across all samples."""
        return sum(sample.path.stat().st_size for sample in self._samples)
