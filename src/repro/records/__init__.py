"""Baseline record formats the paper compares against.

* :mod:`repro.records.file_per_image` — a File-per-Image layout in the style
  of PyTorch's ``ImageFolder`` (one encoded file per sample, class
  subdirectories).
* :mod:`repro.records.tfrecord` — a TFRecord-style framed record file
  (length + CRC framing, one protobuf-ish payload per sample).
* :mod:`repro.records.recordio` — an MXNet ImageRecord/RecordIO-style format
  (magic + length framing with an embedded label header).

All three writers take already-encoded streams and store each at the one
quality it was encoded with; that is precisely the limitation PCRs remove.
Encoding is the caller's job (:func:`repro.core.convert.build_static_copies`
makes one copy per quality).
"""

from repro.records.file_per_image import FilePerImageDataset, FilePerImageWriter
from repro.records.recordio import RecordIOReader, RecordIOWriter
from repro.records.tfrecord import TFRecordReader, TFRecordWriter

__all__ = [
    "FilePerImageDataset",
    "FilePerImageWriter",
    "RecordIOReader",
    "RecordIOWriter",
    "TFRecordReader",
    "TFRecordWriter",
]
