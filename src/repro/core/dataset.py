"""Dataset-level convenience API over the PCR reader/writer.

``PCRDataset`` is the object most examples and the data-loading pipeline
interact with: a :class:`~repro.core.source.RecordSource` whose fetcher is a
local :class:`~repro.core.reader.PCRReader`, plus the ``build`` constructor
that converts samples into a new dataset directory.  Reads at any scan
group, label remapping and byte accounting are the shared source's.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.codecs.image import ImageBuffer
from repro.core.convert import convert_to_pcr
from repro.core.reader import PCRReader
from repro.core.scan_groups import ScanGroupPolicy
from repro.core.source import LabelMapper, RecordSource


class PCRDataset(RecordSource):
    """A PCR dataset directory, read at any scan group."""

    def __init__(
        self,
        directory: str | Path,
        scan_group: int | None = None,
        decode: bool = True,
        label_mapper: LabelMapper | None = None,
    ) -> None:
        super().__init__(PCRReader(directory, decode=decode), scan_group, decode, label_mapper)

    @property
    def reader(self) -> PCRReader:
        """The local reader this dataset fetches through."""
        return self.fetcher  # type: ignore[return-value]

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        samples: Iterable[tuple[str, ImageBuffer | bytes, int]],
        directory: str | Path,
        images_per_record: int = 64,
        quality: int = 90,
        policy: ScanGroupPolicy | None = None,
        backend: str = "sqlite",
    ) -> "PCRDataset":
        """Convert ``(key, payload, label)`` samples into a new PCR dataset.

        This is :func:`~repro.core.convert.convert_to_pcr` followed by opening
        the directory: pixels are encoded once at ``quality``, encoded bytes
        are losslessly transcoded and keep their own quantisation.
        """
        convert_to_pcr(
            samples,
            directory,
            images_per_record=images_per_record,
            quality=quality,
            policy=policy,
            backend=backend,
        )
        return cls(directory)
