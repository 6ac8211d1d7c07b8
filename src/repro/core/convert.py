"""Converters between formats and the conversion-cost accounting of §A.4.

The paper compares two ways to prepare a dataset for multi-quality training:

* the *static* approach — re-encode the dataset at several fixed JPEG
  qualities, producing one record copy per quality (Figure 15, and the
  Progressive-GAN example of §A.4 with its 1.5–40x space amplification); and
* the *PCR* approach — one conversion to progressive form plus a single
  record conversion.  The conversion is whichever of the paper's two jobs
  the source calls for: pixels take one forward pass and one progressive
  entropy encode; already-encoded streams take the lossless ``jpegtran``
  transcode (:mod:`repro.codecs.transcode`) and are never re-quantised.

``convert_to_pcr`` and ``build_static_copies`` implement the two pipelines
over any iterable of samples; :class:`ConversionReport` captures the timing
and size information Figure 15 and the space-amplification discussion plot.

Both converters *stream*: samples are pulled from the input iterable in
bounded chunks of ``chunk_size`` images, each chunk's pixels are
batch-encoded (on the fused float32 forward path, optionally across an
:class:`~repro.codecs.parallel.EncodePool` worker fleet) and written out
before the next chunk is pulled.  Peak memory is therefore bounded by the
chunk size plus the record writer's pending buffer — never by the dataset
size — so a generator over a multi-TB corpus converts in constant space.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.codecs.image import ImageBuffer
from repro.codecs.progressive import encode_progressive_batch
from repro.codecs.transcode import transcode_to_progressive
from repro.core.scan_groups import ScanGroupPolicy
from repro.core.writer import PCRWriter, WriteResult
from repro.obs import get_registry, get_tracer
from repro.records.tfrecord import TFRecordWriter

if TYPE_CHECKING:
    from repro.codecs.parallel import EncodePool

#: ``(key, payload, label)``.  The payload is pixels, or an already-encoded
#: baseline or progressive stream.
Sample = tuple[str, ImageBuffer | bytes, int]

#: The static re-encoding qualities used in Figure 15.
STATIC_QUALITIES = (50, 75, 90, 95)

#: Images pulled from the sample iterable (and batch-encoded) at a time.
#: Large enough that the batched forward path and pool chunking amortize
#: well, small enough that a chunk of typical training images is tens of MB.
DEFAULT_CHUNK_SIZE = 256


def _open_pool(stack: ExitStack, encode_workers: int) -> EncodePool | None:
    """An :class:`EncodePool` closed by ``stack`` when ``encode_workers >= 2``,
    else in-process encode; only a pool imports ``multiprocessing``."""
    if encode_workers < 2:
        return None
    from repro.codecs.parallel import EncodePool

    return stack.enter_context(EncodePool(encode_workers))


def _iter_chunks(samples: Iterable[Sample], chunk_size: int) -> Iterator[list[Sample]]:
    """Yield lists of up to ``chunk_size`` samples, pulling lazily."""
    chunk: list[Sample] = []
    for sample in samples:
        chunk.append(sample)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _encode_chunk(
    images: list[ImageBuffer],
    quality: int,
    layout: str,
    pool: EncodePool | None,
) -> list[bytes]:
    """Batch-encode one chunk, through the pool when one is wired."""
    if pool is not None:
        return pool.encode_batch(images, quality=quality, layout=layout)
    return encode_progressive_batch(images, quality=quality, layout=layout)


def _to_progressive(
    payloads: list[ImageBuffer | bytes], quality: int, pool: EncodePool | None
) -> list[bytes]:
    """One progressive stream per payload, in input order, each job done once.

    Pixels take one forward pass and one progressive entropy encode, as one
    batch; encoded bytes take the lossless transcode and keep the
    quantisation they came with.
    """
    images = [payload for payload in payloads if isinstance(payload, ImageBuffer)]
    encoded = iter(_encode_chunk(images, quality, "progressive", pool) if images else ())
    return [
        next(encoded) if isinstance(payload, ImageBuffer) else transcode_to_progressive(payload)
        for payload in payloads
    ]


@dataclass
class ConversionReport:
    """Timing and size accounting for one conversion pipeline."""

    approach: str
    jpeg_conversion_seconds: float = 0.0
    record_creation_seconds: float = 0.0
    output_bytes: int = 0
    n_copies: int = 1
    per_copy_bytes: dict[str, int] = field(default_factory=dict)
    n_images: int = 0
    n_chunks: int = 0
    chunk_size: int = 0
    encode_workers: int = 0

    @property
    def total_seconds(self) -> float:
        """Total conversion time (JPEG conversion + record creation)."""
        return self.jpeg_conversion_seconds + self.record_creation_seconds

    @property
    def images_per_second(self) -> float:
        """End-to-end conversion throughput (0.0 before any work)."""
        if self.total_seconds <= 0.0 or self.n_images == 0:
            return 0.0
        return self.n_images / self.total_seconds

    def space_amplification(self, reference_bytes: int) -> float:
        """Output size relative to a single-copy reference dataset."""
        if reference_bytes <= 0:
            raise ValueError("reference_bytes must be positive")
        return self.output_bytes / reference_bytes


def convert_to_pcr(
    samples: Iterable[Sample],
    output_dir: str | Path,
    images_per_record: int = 64,
    quality: int = 90,
    policy: ScanGroupPolicy | None = None,
    backend: str = "sqlite",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    encode_workers: int = 0,
) -> tuple[WriteResult, ConversionReport]:
    """Convert samples once into a PCR dataset, timing each stage.

    Stage 1 (``jpeg_conversion_seconds``) brings every sample to progressive
    form by the one job its payload needs: an :class:`ImageBuffer` is
    encoded once with the default progressive script, exactly as
    :meth:`ProgressiveCodec.encode` does (the same bytes as transcoding its
    baseline encode, without the sequential encode and decode in between);
    a ``bytes`` payload — an existing baseline or progressive stream — is
    losslessly transcoded (the ``jpegtran`` role) and keeps its own
    quantisation, whatever ``quality`` says.  A chunk may mix both kinds;
    output order is input order.  Stage 2 (``record_creation_seconds``)
    groups scans and writes the ``.pcr`` records.  Samples are pulled in
    ``chunk_size`` batches and flushed to the writer before the next batch
    is pulled, so peak memory follows the chunk size, not the dataset size.

    ``encode_workers >= 2`` runs the pixel encodes of stage 1 on an
    :class:`EncodePool` worker fleet, created here and closed on return;
    ``0`` and ``1`` encode in-process.  Transcodes always run in-process:
    whether a pool job for them would pay is unmeasured, so none exists.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    report = ConversionReport(
        approach="pcr",
        chunk_size=chunk_size,
        encode_workers=encode_workers,
    )
    registry = get_registry()
    tracer = get_tracer()

    # The stack closes the pool, and — should a chunk raise — the writer's
    # index store; a finalized writer's exit is a no-op.
    with ExitStack() as stack:
        pool = _open_pool(stack, encode_workers)
        writer = stack.enter_context(
            PCRWriter(output_dir, images_per_record=images_per_record, policy=policy, backend=backend)
        )
        for chunk in _iter_chunks(samples, chunk_size):
            with tracer.span(
                "ingest.convert_chunk", {"images": len(chunk), "approach": "pcr"}
            ):
                start = time.perf_counter()
                streams = _to_progressive(
                    [payload for _, payload, _ in chunk], quality, pool
                )
                encode_seconds = time.perf_counter() - start
                start = time.perf_counter()
                for (key, _, label), stream in zip(chunk, streams):
                    writer.add_sample(key, stream, label)
                write_seconds = time.perf_counter() - start
            report.jpeg_conversion_seconds += encode_seconds
            report.record_creation_seconds += write_seconds
            report.n_images += len(chunk)
            report.n_chunks += 1
            registry.counter("ingest.chunks_total").inc()
            registry.histogram("ingest.convert_encode_seconds").observe(encode_seconds)
            registry.histogram("ingest.convert_write_seconds").observe(write_seconds)
        start = time.perf_counter()
        result = writer.finalize()
        report.record_creation_seconds += time.perf_counter() - start
    report.output_bytes = result.total_bytes
    report.per_copy_bytes["pcr"] = result.total_bytes
    return result, report


def build_static_copies(
    samples: Iterable[tuple[str, ImageBuffer, int]],
    output_dir: str | Path,
    qualities: tuple[int, ...] = STATIC_QUALITIES,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    encode_workers: int = 0,
) -> ConversionReport:
    """Re-encode the dataset at several static qualities (the baseline pipeline).

    Each quality level produces its own TFRecord-style record file; the cost
    of every level is paid, and the copies' sizes add up — the behaviour the
    paper contrasts with a single PCR conversion.  All per-quality writers
    stay open across the streamed chunks, so each sample is pulled (and held)
    exactly once however many qualities are built.  Samples carry pixels:
    a static copy is a genuine re-encode, so an encoded source is decoded
    by the caller first.  ``encode_workers`` is as in :func:`convert_to_pcr`.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    report = ConversionReport(
        approach="static",
        n_copies=len(qualities),
        chunk_size=chunk_size,
        encode_workers=encode_workers,
    )
    registry = get_registry()
    tracer = get_tracer()

    record_paths = {q: output_dir / f"static-q{q}.tfrecord" for q in qualities}
    # The stack closes the pool and every writer opened so far, also when a
    # later writer fails to open or a chunk raises.
    with ExitStack() as stack:
        pool = _open_pool(stack, encode_workers)
        writers = {q: stack.enter_context(TFRecordWriter(record_paths[q])) for q in qualities}
        for chunk in _iter_chunks(samples, chunk_size):
            with tracer.span(
                "ingest.convert_chunk", {"images": len(chunk), "approach": "static"}
            ):
                images = [image for _, image, _ in chunk]
                for quality in qualities:
                    start = time.perf_counter()
                    encoded = _encode_chunk(images, quality, "sequential", pool)
                    encode_seconds = time.perf_counter() - start
                    start = time.perf_counter()
                    for (key, _, label), stream in zip(chunk, encoded):
                        writers[quality].add_sample(key, stream, label)
                    write_seconds = time.perf_counter() - start
                    report.jpeg_conversion_seconds += encode_seconds
                    report.record_creation_seconds += write_seconds
                    registry.histogram("ingest.convert_encode_seconds").observe(
                        encode_seconds
                    )
                    registry.histogram("ingest.convert_write_seconds").observe(
                        write_seconds
                    )
            report.n_images += len(chunk)
            report.n_chunks += 1
            registry.counter("ingest.chunks_total").inc()
    for quality in qualities:
        copy_bytes = record_paths[quality].stat().st_size
        report.per_copy_bytes[f"q{quality}"] = copy_bytes
        report.output_bytes += copy_bytes
    return report


def reference_record_bytes(
    samples: Iterable[tuple[str, ImageBuffer, int]], output_dir: str | Path, quality: int = 90
) -> int:
    """Size of a single-quality record copy (the space-amplification reference)."""
    return build_static_copies(samples, output_dir, qualities=(quality,)).output_bytes
