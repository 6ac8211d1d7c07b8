"""JPEG-style image codec substrate.

The paper relies on libjpeg/jpegtran to produce progressive JPEG files whose
scans can be regrouped into PCR scan groups.  This package provides an
equivalent, self-contained codec:

* :mod:`repro.codecs.color` — the BT.601 RGB/YCbCr constants.
* :mod:`repro.codecs.dct` — the orthonormal 8x8 DCT basis.
* :mod:`repro.codecs.quantization` — IJG-style quality-scaled quantization
  tables.
* :mod:`repro.codecs.zigzag` — zigzag coefficient ordering.
* :mod:`repro.codecs.bitio` / :mod:`repro.codecs.huffman` /
  :mod:`repro.codecs.rle` — entropy coding (run-length symbols + canonical
  Huffman codes).
* :mod:`repro.codecs.fastpath` — the vectorized entropy coder
  (superscalar wide-window pair-LUT Huffman decode — one table family,
  built for the scan's kind, that also finishes oversized symbols —
  word-buffered bit I/O, batched scan assembly).  It is the only entropy
  coder at run time; the scalar coder survives as the ``*_reference``
  functions of ``tests/codec_reference.py``, the differential oracle
  only the tests use.  See ``docs/performance.md``.
* :mod:`repro.codecs.pixelpath` — the batched float32 pixel-domain path
  (fused dequantize+IDCT scaled bases, strided block merge, single-matmul
  colour conversion, per-thread scratch-buffer reuse).
  ``decode_progressive_batch`` is the minibatch-level decode API.
* :mod:`repro.codecs.encodepath` — the forward twin of ``pixelpath``: fused
  RGB→YCbCr+level-shift matmul, strided 4:2:0 downsample, zero-copy block
  layout, and fused quantize+forward-DCT scaled bases.  Carries a documented
  ±1-quant-step parity budget against the scalar reference (see
  ``docs/performance.md``).  ``encode_progressive_batch`` is the
  minibatch-level encode API, for both layouts.
* :mod:`repro.codecs.parallel` — the process-parallel codec engine, one
  for both directions: a fleet of at least two persistent worker
  processes, a chunked work-stealing task queue, and one shared-memory
  pixel slab per pool, with identical-output in-process fallback.
  :class:`DecodePool` returns decoded frames as ordinary arrays, copied out
  of the slab (each ``DataLoader`` with ``decode_workers >= 2`` owns one
  and passes it to every record read, local or remote);
  :class:`EncodePool` runs the ingest direction (pixels in via the slab,
  encoded streams out), wired through ``repro.core.convert``
  (``encode_workers``).
* :mod:`repro.codecs.baseline` — sequential, single-scan encoding.
* :mod:`repro.codecs.progressive` — spectral-selection progressive encoding
  (default 10 scans), partially decodable.
* :mod:`repro.codecs.transcode` — lossless baseline-to-progressive transcode
  (the ``jpegtran`` role in the paper).
"""

from typing import Any

# Resolved lazily, as in ``repro``: importing a submodule loads only what it
# needs, so a process that builds no pool never imports ``multiprocessing``.
_LAZY_EXPORTS = {
    "BaselineCodec": "repro.codecs.baseline",
    "DecodePool": "repro.codecs.parallel",
    "EncodePool": "repro.codecs.parallel",
    "ImageBuffer": "repro.codecs.image",
    "PoolStats": "repro.codecs.parallel",
    "ProgressiveCodec": "repro.codecs.progressive",
    "QuantizationTables": "repro.codecs.quantization",
    "ScanScript": "repro.codecs.progressive",
    "decode_progressive_batch": "repro.codecs.progressive",
    "encode_progressive_batch": "repro.codecs.progressive",
    "transcode_to_progressive": "repro.codecs.transcode",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.codecs' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
