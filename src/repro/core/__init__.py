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

from typing import Any

# Resolved lazily, as in ``repro``: a process that only serves bytes (a
# record server, ``PCRReader(decode=False)``) imports ``repro.core.errors``
# or ``repro.core.reader`` without the converter and its codec.
_LAZY_EXPORTS = {
    "BandwidthThrottle": "repro.core.source",
    "PCRDataset": "repro.core.dataset",
    "PCRError": "repro.core.errors",
    "PCRFormatError": "repro.core.errors",
    "PCRReader": "repro.core.reader",
    "PCRWriter": "repro.core.writer",
    "RecordFetcher": "repro.core.source",
    "RecordSource": "repro.core.source",
    "SampleMetadata": "repro.core.metadata",
    "ScanGroupError": "repro.core.errors",
    "ScanGroupPolicy": "repro.core.scan_groups",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
