"""Progressive Compressed Records (PCR) — reproduction library.

This package reproduces the system described in "Progressive Compressed
Records: Taking a Byte out of Deep Learning Data" (Kuchnik, Amvrosiadis,
Smith; VLDB 2021).  It contains:

``repro.codecs``
    A from-scratch JPEG-style codec with baseline (sequential) and
    progressive (spectral-selection) scan modes, plus a lossless
    baseline-to-progressive transcoder.

``repro.core``
    The paper's contribution: the PCR storage format — encoder, decoder,
    scan-group layout, metadata database, and the one sample-level
    ``RecordSource`` (over a byte-level ``RecordFetcher``) that local,
    remote and sharded datasets all are.

``repro.records`` / ``repro.kvstore``
    Substrates: baseline record formats (TFRecord/RecordIO/file-per-image)
    and key-value metadata stores (SQLite and an LSM tree).

``repro.pipeline`` / ``repro.training`` / ``repro.simulate``
    A prefetching data loader, a small numpy neural-network training
    stack, and the queueing-theory throughput / time-to-accuracy models
    from the paper's appendix.

``repro.datasets`` / ``repro.metrics`` / ``repro.tuning``
    Synthetic stand-ins for the paper's datasets, MSSIM/PSNR quality
    metrics, and static/dynamic scan-group autotuning.

``repro.serving``
    The network layer: a binary wire protocol, a caching TCP record
    server, a pooled client, and a remote ``DataLoader`` source.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

# Top-level convenience exports, resolved lazily so that importing a leaf
# subpackage (e.g. repro.codecs) never drags in the rest of the library.
_LAZY_EXPORTS = {
    "PCRDataset": ("repro.core.dataset", "PCRDataset"),
    "PCRReader": ("repro.core.reader", "PCRReader"),
    "PCRWriter": ("repro.core.writer", "PCRWriter"),
    "ScanGroupPolicy": ("repro.core.scan_groups", "ScanGroupPolicy"),
    "ProgressiveCodec": ("repro.codecs.progressive", "ProgressiveCodec"),
    "BaselineCodec": ("repro.codecs.baseline", "BaselineCodec"),
    "ImageBuffer": ("repro.codecs.image", "ImageBuffer"),
    "PCRRecordServer": ("repro.serving.server", "PCRRecordServer"),
    "PCRClient": ("repro.serving.client", "PCRClient"),
    "RemoteRecordSource": ("repro.serving.remote_source", "RemoteRecordSource"),
    "RecordSource": ("repro.core.source", "RecordSource"),
    "RecordFetcher": ("repro.core.source", "RecordFetcher"),
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def __dir__() -> list[str]:
    return sorted(__all__)
