"""Dataset-level convenience API over the PCR reader/writer.

``PCRDataset`` is the object most examples and the data-loading pipeline
interact with: a :class:`~repro.core.source.RecordSource` whose fetcher is a
local :class:`~repro.core.reader.PCRReader`, plus the ``build`` constructors
that encode a new dataset directory.  The switchable scan group, reads,
label remapping and byte accounting are the shared source's.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.codecs.image import ImageBuffer
from repro.codecs.progressive import ProgressiveCodec
from repro.core.reader import PCRReader
from repro.core.scan_groups import ScanGroupPolicy
from repro.core.source import LabelMapper, RecordSource
from repro.core.writer import PCRWriter, WriteResult


class PCRDataset(RecordSource):
    """A PCR dataset directory viewed at a (switchable) scan group."""

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
        """Encode ``(key, image, label)`` samples into a new PCR dataset."""
        return cls.build_and_report(
            samples,
            directory,
            images_per_record=images_per_record,
            codec=ProgressiveCodec(quality=quality),
            policy=policy,
            backend=backend,
        )[0]

    @classmethod
    def build_and_report(
        cls,
        samples: Iterable[tuple[str, ImageBuffer | bytes, int]],
        directory: str | Path,
        **writer_kwargs: object,
    ) -> tuple["PCRDataset", WriteResult]:
        """Like :meth:`build` but also returns the writer's summary."""
        writer = PCRWriter(directory, **writer_kwargs)  # type: ignore[arg-type]
        result = writer.write_dataset(samples)
        return cls(directory), result
