"""Per-layer numbers: a single-threaded, staged replay under a tracer.

The replay walks the workload's own requests — its records at its scan
groups — through every layer of the stack, one public call per span, on one
thread, so a span's time is that layer's time and nothing else's.  The read
half runs per request; the write half encodes and writes a slice of the
corpus.  Layers that are not on a workload's blocking chain are measured
all the same, at that workload's operating point (``CHAINS`` says which are
on it).  The tracer is an instance the benchmark owns; the program's own
default tracer stays off.
"""

from __future__ import annotations

import math
import shutil
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from common import YARDSTICK_REFERENCE_S, ServerChild, use_program_source

use_program_source()

from repro.codecs.progressive import (  # noqa: E402
    ScanScript,
    assemble_partial_stream,
    coefficients_to_image,
    decode_coefficients,
    encode_coefficients,
    image_to_coefficients,
)
from repro.core.convert import reference_record_bytes  # noqa: E402
from repro.core.index import parse_record_prefix  # noqa: E402
from repro.core.reader import PCRReader  # noqa: E402
from repro.core.writer import PCRWriter  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.pipeline.batch import collate  # noqa: E402
from repro.serving.client import PCRClient  # noqa: E402
from repro.serving.server import PCRRecordServer  # noqa: E402
from repro.simulate.throughput import PipelineModel  # noqa: E402

#: The layer metrics on each workload's blocking chain, as (metric, scale):
#: ``scale`` turns the metric into milliseconds per item of that workload
#: (``None`` stands for one over the images in a record).
CHAINS: dict[str, tuple[tuple[str, float | None], ...]] = {
    "train_local_g10": (
        ("core.reader.fetch_ms_per_sample", 1.0),
        ("core.index.parse_ms_per_sample", 1.0),
        ("codecs.entropy.decode_ms_per_sample", 1.0),
        ("codecs.pixelpath.decode_ms_per_sample", 1.0),
        ("pipeline.batch.collate_ms_per_sample", 1.0),
    ),
    "train_remote_g1": (
        ("serving.client.fetch_ms_per_record", None),
        ("core.index.parse_ms_per_sample", 1.0),
        ("codecs.entropy.decode_ms_per_sample", 1.0),
        ("codecs.pixelpath.decode_ms_per_sample", 1.0),
        ("pipeline.batch.collate_ms_per_sample", 1.0),
    ),
    "serve_mixed": (("serving.client.fetch_ms_per_record", 1.0),),
    "ingest": (
        ("codecs.encodepath.forward_ms_per_image", 1.0),
        ("codecs.entropy.encode_ms_per_image", 1.0),
        ("codecs.entropy.transcode_ms_per_image", 1.0),
        ("core.writer.write_ms_per_image", 1.0),
    ),
}

def self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    total: dict[str, float] = defaultdict(float)
    for event in tracer.events():
        total[event.name] += event.duration
        if event.parent is not None:
            total[event.parent] -= event.duration
    return total


class _Replay:
    """The staged pass and what it needs open around it."""

    def __init__(
        self, ctx, dataset_dir: str, requests: list[tuple[str, int]], port: int, cache_bytes: int
    ) -> None:
        self.ctx = ctx
        self.dataset_dir = dataset_dir
        self.requests = requests
        self.write_samples = ctx.corpus[: ctx.sizes.probe_write_images]
        self.client = PCRClient(port=port, pool_size=1)
        # Two servers driven in-process, never started: one whose cache
        # holds everything, one whose cache admits nothing.
        self.hit_server = PCRRecordServer(dataset_dir, cache_bytes=cache_bytes)
        self.miss_server = PCRRecordServer(dataset_dir, cache_bytes=0)
        self.write_dir = ctx.workdir / "probe-write"
        self.counts: dict[str, float] = {}

    def close(self) -> None:
        self.client.close()
        self.hit_server.stop()
        self.miss_server.stop()
        shutil.rmtree(self.write_dir, ignore_errors=True)

    def run(self, tracer: Tracer) -> float:
        """One pass over every stage; returns its wall time."""
        span = tracer.span
        counts: dict[str, float] = defaultdict(float)
        start = time.perf_counter()
        with span("replay"), PCRReader(self.dataset_dir, decode=False) as reader:
            seen: set[str] = set()
            for name, group in self.requests:
                if name not in seen:
                    seen.add(name)
                    with span("kvstore.index_lookup"):
                        reader.record_index(name)
                with span("core.reader.fetch"):
                    data = reader.read_record_bytes(name, group)
                counts["fetched_bytes"] += len(data)
                with span("core.index.parse"):
                    parsed = parse_record_prefix(data)
                    streams = [
                        assemble_partial_stream(prefix, scans)
                        for prefix, scans in zip(parsed.header_prefixes, parsed.scans_per_sample)
                    ]
                pixels = []
                for stream in streams:
                    with span("codecs.entropy.decode"):
                        coefficients, _ = decode_coefficients(stream)
                    with span("codecs.pixelpath.decode"):
                        pixels.append(coefficients_to_image(coefficients).pixels)
                    counts["stream_bytes"] += len(stream)
                with span("pipeline.batch.collate"):
                    collate(pixels, [sample.label for sample in parsed.samples])
                counts["samples"] += len(streams)
                with span("serving.client.fetch"):
                    counts["wire_bytes"] += len(self.client.get_record_bytes(name, group))
                with span("serving.server.hit"):
                    self.hit_server.serve_record_bytes(name, group)
                with span("serving.server.miss"):
                    self.miss_server.serve_record_bytes(name, group)
            counts["records"] = len(self.requests)
            counts["distinct_records"] = len(seen)

            # The write half follows convert_to_pcr's "pcr" layout call by
            # call: forward transform, sequential encode, lossless transcode
            # (decode + progressive encode), then the record writer.
            sizes = self.ctx.sizes
            encoded = []
            for key, image, label in self.write_samples:
                with span("codecs.encodepath.forward"):
                    coefficients = image_to_coefficients(image, sizes.quality)
                n_components = coefficients.header.n_components
                with span("codecs.entropy.encode"):
                    sequential = encode_coefficients(
                        coefficients, ScanScript.sequential(n_components)
                    )
                with span("codecs.entropy.transcode"):
                    transcoded, _ = decode_coefficients(sequential)
                with span("codecs.entropy.encode"):
                    stream = encode_coefficients(
                        transcoded, ScanScript.default_for(n_components)
                    )
                encoded.append((key, stream, label))
            shutil.rmtree(self.write_dir, ignore_errors=True)
            with span("core.writer.write"):
                writer = PCRWriter(self.write_dir, images_per_record=sizes.images_per_record)
                for key, stream, label in encoded:
                    writer.add_sample(key, stream, label)
                written = writer.finalize()
            counts["written_bytes"] = written.total_bytes
            counts["written_images"] = len(encoded)
            counts["stored_bytes"] = sum(p.stat().st_size for p in self.write_dir.iterdir())
        self.counts = counts
        return time.perf_counter() - start


def probe(ctx, workload_name: str, workload, untraced_items_per_s: float, trace_path: Path) -> dict:
    """Run the staged replay for one workload; returns every per-layer metric.

    ``untraced_items_per_s`` is what the workload just measured with tracing
    off; the gap between its per-item wall and the staged chain is the
    residual (queueing, thread hand-off, everything the stages do not cover).
    Like the end-to-end timings, the layer times are reported at the
    reference host speed (``common.Yardstick``), from samples taken around
    the traced pass.
    """
    dataset_dir = workload.replay_dataset()
    requests = workload.replay_requests()
    cache = workload.cache_stats()
    cache_bytes = 2 * sum(path.stat().st_size for path in Path(dataset_dir).glob("*.pcr"))
    tracer = Tracer(capacity=1 << 18, enabled=False)
    first_sample = len(ctx.yardstick.samples)
    with ServerChild(dataset_dir, cache_bytes) as server:
        replay = _Replay(ctx, dataset_dir, requests, server.port, cache_bytes)
        try:
            replay.run(tracer)  # fills every cache the stages touch
            walls: dict[bool, list[float]] = {False: [], True: []}
            for traced in (False, True, False, True):
                ctx.yardstick.sample()
                tracer.clear()  # the spans kept are those of the last pass
                tracer.set_enabled(traced)
                walls[traced].append(replay.run(tracer))
            tracer.set_enabled(False)
            ctx.yardstick.sample()
            wall_off, wall_on = min(walls[False]), min(walls[True])
            if cache is None:
                cache = replay.client.stat()["cache"]
            reference_bytes = reference_record_bytes(
                replay.write_samples, ctx.workdir / "probe-reference", ctx.sizes.quality
            )
        finally:
            replay.close()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.export_chrome(trace_path)

    yardstick = median(ctx.yardstick.samples[first_sample:])
    scale = YARDSTICK_REFERENCE_S / yardstick
    seconds = {name: value * scale for name, value in self_seconds(tracer).items()}
    n = replay.counts
    per_sample = 1e3 / n["samples"]
    per_record = 1.0 / n["records"]
    per_image = 1e3 / n["written_images"]
    client_ms = seconds["serving.client.fetch"] * 1e3 * per_record
    hit_us = seconds["serving.server.hit"] * 1e6 * per_record
    metrics = {
        "kvstore.index_lookup_us": seconds["kvstore.index_lookup"] * 1e6 / n["distinct_records"],
        "core.reader.fetch_ms_per_sample": seconds["core.reader.fetch"] * per_sample,
        "core.index.parse_ms_per_sample": seconds["core.index.parse"] * per_sample,
        "codecs.entropy.decode_ms_per_sample": seconds["codecs.entropy.decode"] * per_sample,
        "codecs.entropy.decode_mb_per_s": n["stream_bytes"] / 1e6 / seconds["codecs.entropy.decode"],
        "codecs.pixelpath.decode_ms_per_sample": seconds["codecs.pixelpath.decode"] * per_sample,
        "pipeline.batch.collate_ms_per_sample": seconds["pipeline.batch.collate"] * per_sample,
        "serving.client.fetch_ms_per_record": client_ms,
        "serving.server.hit_us_per_record": hit_us,
        "serving.server.miss_us_per_record": seconds["serving.server.miss"] * 1e6 * per_record,
        "serving.wire_ms_per_record": client_ms - hit_us / 1e3,
        "serving.cache.hit_share": cache["hit_rate"],
        "serving.cache.prefix_hit_share": cache["prefix_hit_rate"],
        "serving.cache.evictions": cache["evictions"],
        "codecs.encodepath.forward_ms_per_image": seconds["codecs.encodepath.forward"] * per_image,
        "codecs.entropy.encode_ms_per_image": seconds["codecs.entropy.encode"] * per_image,
        "codecs.entropy.transcode_ms_per_image": seconds["codecs.entropy.transcode"] * per_image,
        "core.writer.write_ms_per_image": seconds["core.writer.write"] * per_image,
        "core.writer.bytes_written": n["written_bytes"],
        "core.writer.space_amplification": n["stored_bytes"] / reference_bytes,
        "trace.overhead_share": (wall_on - wall_off) / wall_off,
        "host.yardstick_ms": yardstick * 1e3,
    }

    per_record_image = 1.0 / ctx.sizes.images_per_record
    chain_ms = sum(
        metrics[name] * (per_record_image if per_item is None else per_item)
        for name, per_item in CHAINS[workload_name]
    )
    untraced_ms = 1e3 / untraced_items_per_s
    metrics["run.chain_ms_per_item"] = chain_ms
    metrics["run.residual_ms_per_item"] = untraced_ms - chain_ms

    # Lemma A.4: the rate is the slower of fetching and computing.
    decode_ms = sum(
        metrics[name]
        for name in (
            "core.index.parse_ms_per_sample",
            "codecs.entropy.decode_ms_per_sample",
            "codecs.pixelpath.decode_ms_per_sample",
            "pipeline.batch.collate_ms_per_sample",
        )
    )
    if workload_name == "ingest":
        bandwidth = n["written_bytes"] / seconds["core.writer.write"]
        item_bytes = n["written_bytes"] / n["written_images"]
        compute = 1e3 / (chain_ms - metrics["core.writer.write_ms_per_image"])
    elif workload_name == "serve_mixed":
        bandwidth = n["wire_bytes"] / seconds["serving.client.fetch"]
        item_bytes = n["wire_bytes"] / n["records"]
        compute = math.inf
    elif workload_name == "train_remote_g1":
        bandwidth = n["wire_bytes"] / seconds["serving.client.fetch"]
        item_bytes = n["wire_bytes"] / n["samples"]
        compute = 1e3 / decode_ms
    else:
        bandwidth = n["fetched_bytes"] / seconds["core.reader.fetch"]
        item_bytes = n["fetched_bytes"] / n["samples"]
        compute = 1e3 / decode_ms
    model = PipelineModel(bandwidth, compute, images_per_record=1)
    predicted = model.end_to_end_rate(item_bytes)
    metrics["simulate.predicted_items_per_s"] = predicted
    metrics["simulate.predicted_over_measured"] = predicted / untraced_items_per_s
    return metrics
