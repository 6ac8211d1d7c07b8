"""The PCR format — the paper's primary contribution.

A PCR dataset is a directory containing a metadata database plus one or more
``.pcr`` record files.  Each record stores label metadata for its samples
followed by *scan groups*: the progressive scans of every image in the
record, grouped by quality level and laid out contiguously.  Reading the
record prefix up to scan group *k* yields every image in the record at
quality level *k* using purely sequential I/O.

Public entry points:

* :class:`~repro.core.writer.PCRWriter` — write progressive streams into PCR records.
* :class:`~repro.core.reader.PCRReader` — read records at a chosen scan group.
* :class:`~repro.core.source.RecordSource` — the one sample-level source
  (switchable scan group, reads, label views, byte accounting) over any
  :class:`~repro.core.source.RecordFetcher` (where the record bytes live).
* :class:`~repro.core.source.BandwidthThrottle` — a capped link: a fetcher
  around another fetcher.
* :class:`~repro.core.dataset.PCRDataset` — the ``RecordSource`` over a local
  reader, plus ``build`` (:func:`~repro.core.convert.convert_to_pcr`, then open).
* :mod:`repro.core.convert` — the one place pixels and baseline bytes become
  progressive streams, the static-copy baseline, and the §A.4 cost accounting.
"""

from repro.core.dataset import PCRDataset
from repro.core.errors import PCRError, PCRFormatError, ScanGroupError
from repro.core.metadata import SampleMetadata
from repro.core.reader import PCRReader
from repro.core.scan_groups import ScanGroupPolicy
from repro.core.source import BandwidthThrottle, RecordFetcher, RecordSource
from repro.core.writer import PCRWriter

__all__ = [
    "BandwidthThrottle",
    "PCRDataset",
    "PCRError",
    "PCRFormatError",
    "PCRReader",
    "PCRWriter",
    "RecordFetcher",
    "RecordSource",
    "SampleMetadata",
    "ScanGroupError",
    "ScanGroupPolicy",
]
