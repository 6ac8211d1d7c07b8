"""One workload in one fresh process: set up, (measure | trace), tear down.

The runner starts this file once per set-up it wants timed.  The process
prints ``READY`` when the program under test is set up and warm — the runner
times that from outside — and, unless ``--mode setup``, a ``RESULT <json>``
line when it is done.  Everything is observed from outside the program:
timings around calls into its public functions, and the bytes, pixels and
labels those calls return.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    OUT_ROOT,
    SERVE_GROUPS,
    Inputs,
    ServerChild,
    Yardstick,
    percentile,
    use_program_source,
)

use_program_source()

from repro.codecs.image import ImageBuffer  # noqa: E402
from repro.core.convert import convert_to_pcr  # noqa: E402
from repro.core.dataset import PCRDataset  # noqa: E402
from repro.core.reader import PCRReader  # noqa: E402
from repro.pipeline.loader import DataLoader, LoaderConfig  # noqa: E402
from repro.serving.client import PCRClient  # noqa: E402
from repro.serving.remote_source import RemoteRecordSource  # noqa: E402

#: The serving workload runs this many closed-loop clients, one thread each.
SERVE_CLIENTS = 2
#: Length of each client's seeded request plan; the loop wraps around it.
SERVE_PLAN_LENGTH = 40_000
#: A run's timed window is cut into about this many units — groups of
#: epochs, serving segments, conversions — each with a host-speed sample on
#: either side; ``items_per_s`` is the median of the units' rates.
UNITS_PER_RUN = 10


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check is a failed op."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)


class Context:
    """The generated inputs of this invocation, loaded on first use."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.sizes = inputs.sizes
        self.seed = inputs.seed
        self.workdir = Path(inputs.workdir)
        self.tally = Tally()
        self.yardstick = Yardstick()
        self._corpus = None
        self._manifest = None

    @property
    def corpus(self) -> list[tuple[str, ImageBuffer, int]]:
        if self._corpus is None:
            with np.load(self.inputs.corpus) as data:
                self._corpus = [
                    (str(key), ImageBuffer(pixels), int(label))
                    for key, pixels, label in zip(data["keys"], data["pixels"], data["labels"])
                ]
        return self._corpus

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            self._manifest = json.loads(Path(self.inputs.manifest).read_text())
        return self._manifest

    def dataset_bytes(self, scan_group: int) -> int:
        return sum(groups[str(scan_group)][0] for groups in self.manifest["records"].values())


def pixel_crc(pixels: np.ndarray) -> int:
    """crc32 of one sample as the loader delivers it (float32 in [0, 1])."""
    return zlib.crc32(np.ascontiguousarray(pixels, dtype=np.float32))


@dataclass
class Unit:
    """One epoch, segment or conversion: its rate and the waits inside it."""

    items_per_s: float
    waits_s: list[float]


def summarize(units: list[Unit], scales: list[float]) -> dict:
    """The timing metrics of a run, each unit's durations times its scale."""
    waits = [wait * scale for unit, scale in zip(units, scales) for wait in unit.waits_s]
    return {
        "items_per_s": median([unit.items_per_s / scale for unit, scale in zip(units, scales)]),
        "wait_p50_ms": percentile(waits, 50) * 1e3,
        "wait_p90_ms": percentile(waits, 90) * 1e3,
    }


class Workload:
    """What ``main`` and the layer probe need of a workload."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.server: ServerChild | None = None

    def setup(self) -> None:
        """Everything before the first timed operation, warm-up included."""
        raise NotImplementedError

    def check_warmup(self) -> None:
        """Output checks on what set-up produced; not charged to set-up."""

    def measure(self, seconds: float) -> dict:
        """The timed loop: ``units``, ``bytes_per_item``, ``items``."""
        raise NotImplementedError

    def cache_stats(self) -> dict | None:
        """The server's cache counters, where the workload has a server."""
        return None

    def replay_requests(self) -> list[tuple[str, int]]:
        """The (record, scan group) sequence the layer probe replays."""
        raise NotImplementedError

    def replay_dataset(self) -> str:
        return self.ctx.inputs.dataset

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def server_rss_kb(self) -> int:
        return self.server.peak_rss_kb if self.server is not None else 0


# -- train_local_g10 / train_remote_g1 ---------------------------------------


@dataclass
class Epoch:
    wall: float
    waits: list[float]
    n_samples: int
    labels: Counter
    crcs: Counter
    error: str = ""


class Train(Workload):
    """A zero-compute consumer pulling epochs out of ``DataLoader``."""

    def __init__(self, ctx: Context, scan_group: int, remote: bool, n_workers: int) -> None:
        super().__init__(ctx)
        self.scan_group = scan_group
        self.remote = remote
        self.n_workers = n_workers
        self.source = None
        self.loader: DataLoader | None = None

    def setup(self) -> None:
        ctx = self.ctx
        if self.remote:
            self.server = ServerChild(ctx.inputs.dataset, 2 * ctx.dataset_bytes(10))
            self.source = RemoteRecordSource(port=self.server.port, scan_group=self.scan_group)
            self.stats = self.source.stats
        else:
            self.source = PCRDataset(ctx.inputs.dataset, scan_group=self.scan_group)
            self.stats = self.source.reader.stats
        self.loader = DataLoader(
            self.source,
            LoaderConfig(
                batch_size=ctx.sizes.batch_size,
                n_workers=self.n_workers,
                shuffle=True,
                seed=ctx.seed,
                decode_workers=0,
            ),
        )
        # The first epoch builds the Huffman and basis caches; it is set-up.
        self.warmup = self._epoch(with_crcs=True)

    def _epoch(self, with_crcs: bool) -> Epoch:
        epoch = Epoch(0.0, [], 0, Counter(), Counter())
        start = time.perf_counter()
        try:
            batches = self.loader.epoch()
            while True:
                asked = time.perf_counter()
                batch = next(batches, None)
                if batch is None:
                    break
                epoch.waits.append(time.perf_counter() - asked)
                epoch.n_samples += len(batch)
                epoch.labels.update(batch.labels.tolist())
                if with_crcs:
                    epoch.crcs.update(pixel_crc(image) for image in batch.images)
        except Exception as error:  # a failed read or decode fails the epoch's samples
            epoch.error = f"{type(error).__name__}: {error}"
        epoch.wall = time.perf_counter() - start
        return epoch

    def _check_epoch(self, epoch: Epoch) -> None:
        """Every epoch delivers every sample once, with the corpus's labels."""
        expected = Counter({int(k): v for k, v in self.ctx.manifest["label_histogram"].items()})
        wrong = max(
            sum((expected - epoch.labels).values()), sum((epoch.labels - expected).values())
        )
        self.ctx.tally.add(
            self.ctx.manifest["n_samples"],
            wrong,
            f"epoch delivered {epoch.n_samples} samples, labels off by {wrong} {epoch.error}",
        )

    def check_warmup(self) -> None:
        """The warm-up epoch's pixels equal a direct local read, sample for sample."""
        self._check_epoch(self.warmup)
        n_samples = self.ctx.manifest["n_samples"]
        reference: Counter = Counter()
        try:
            with PCRReader(self.ctx.inputs.dataset) as reader:
                for name in reader.record_names:
                    for sample in reader.read_record(name, self.scan_group):
                        scaled = sample.image.pixels.astype(np.float32) / 255.0
                        reference[pixel_crc(scaled)] += 1
        except Exception as error:
            self.ctx.tally.add(n_samples, n_samples, f"direct read failed: {error}")
            return
        delivered = self.warmup.crcs
        differing = max(
            sum((reference - delivered).values()), sum((delivered - reference).values())
        )
        self.ctx.tally.add(n_samples, differing, f"{differing} samples differ from a direct read")

    def measure(self, seconds: float) -> dict:
        bytes_before = self.stats.bytes_read
        units: list[Unit] = []
        delivered = 0
        failed = False
        start = time.perf_counter()
        while not failed and time.perf_counter() - start < seconds:
            self.ctx.yardstick.sample()
            unit_start = time.perf_counter()
            epochs: list[Epoch] = []
            while not failed and time.perf_counter() - unit_start < seconds / UNITS_PER_RUN:
                epochs.append(self._epoch(with_crcs=False))
                self._check_epoch(epochs[-1])
                failed = bool(epochs[-1].error)
            n_samples = sum(epoch.n_samples for epoch in epochs)
            wall = time.perf_counter() - unit_start
            units.append(Unit(n_samples / wall, [w for e in epochs for w in e.waits] or [wall]))
            delivered += n_samples
        self.ctx.yardstick.sample()
        return {
            "units": units,
            "bytes_per_item": (self.stats.bytes_read - bytes_before) / max(1, delivered),
            "items": delivered,
        }

    def cache_stats(self) -> dict | None:
        return self.source.client.stat()["cache"] if self.remote else None

    def replay_requests(self) -> list[tuple[str, int]]:
        return [(name, self.scan_group) for name in self.source.record_names]

    def close(self) -> None:
        if self.loader is not None:
            self.loader.close()
        if self.source is not None:
            self.source.close()
        super().close()


# -- serve_mixed ---------------------------------------------------------------


class ServeMixed(Workload):
    """Two closed-loop clients fetching a skewed mix of records and scan groups."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.clients: list[PCRClient] = []

    def setup(self) -> None:
        ctx = self.ctx
        # A quarter of the full-fidelity dataset: the mix hits, prefix-hits,
        # misses and evicts.
        self.server = ServerChild(ctx.inputs.dataset, ctx.dataset_bytes(10) // 4)
        self.clients = [
            PCRClient(port=self.server.port, pool_size=1) for _ in range(SERVE_CLIENTS)
        ]
        self.expected = self._expected_prefixes()
        names = sorted(ctx.manifest["records"])
        rng = np.random.default_rng([ctx.seed, 0x5E])
        self.plans = []
        for _ in self.clients:
            skewed = (len(names) * rng.random(SERVE_PLAN_LENGTH) ** 2).astype(int)
            groups = rng.choice(SERVE_GROUPS, size=SERVE_PLAN_LENGTH)
            self.plans.append([(names[i], int(g)) for i, g in zip(skewed, groups)])
        warmup = ctx.sizes.serve_warmup_requests
        self.cursors = [warmup for _ in self.clients]
        for client, plan in zip(self.clients, self.plans):
            self._tally(self._fetch_loop(client, plan, 0, warmup, float("inf")))

    def _expected_prefixes(self) -> dict[tuple[str, int], memoryview | None]:
        """The file prefix each response must equal, checked against the manifest.

        A pair whose bytes on disk no longer match what ingest wrote expects
        ``None``, so every response for it counts as failed.
        """
        expected: dict[tuple[str, int], memoryview | None] = {}
        for name, groups in self.ctx.manifest["records"].items():
            stored = memoryview((Path(self.ctx.inputs.dataset) / name).read_bytes())
            for group in SERVE_GROUPS:
                length, crc = groups[str(group)]
                prefix = stored[:length]
                intact = len(prefix) == length and zlib.crc32(prefix) == crc
                expected[(name, group)] = prefix if intact else None
        return expected

    def _fetch_loop(
        self, client: PCRClient, plan: list, first: int, limit: int, deadline: float
    ) -> dict:
        """Issue ``plan[first:limit]`` (wrapping) until done or ``deadline``."""
        latencies: list[float] = []
        completions: list[float] = []
        received = failed = 0
        expected = self.expected
        index = first
        while index < limit:
            name, group = plan[index % len(plan)]
            start = time.perf_counter()
            if start >= deadline:
                break
            try:
                data = client.get_record_bytes(name, group)
            except Exception:
                data = b""
            end = time.perf_counter()
            if data != expected[(name, group)]:
                failed += 1
            latencies.append(end - start)
            completions.append(end)
            received += len(data)
            index += 1
        return dict(latencies=latencies, completions=completions, received=received, failed=failed)

    def _tally(self, out: dict) -> None:
        failed = out["failed"]
        self.ctx.tally.add(
            len(out["latencies"]), failed, f"{failed} responses differ from the stored prefix"
        )

    def _segment(self, duration: float) -> list[dict]:
        """Both clients fetch side by side for ``duration`` seconds."""
        results: list[dict] = [{} for _ in self.clients]
        start = time.perf_counter() + 0.02
        deadline = start + duration

        def run(index: int) -> None:
            time.sleep(max(0.0, start - time.perf_counter()))
            results[index] = self._fetch_loop(
                self.clients[index], self.plans[index], self.cursors[index], 10**12, deadline
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, out in enumerate(results):
            self._tally(out)
            self.cursors[index] += len(out["latencies"])
            out["start"] = start
        return results

    def measure(self, seconds: float) -> dict:
        units: list[Unit] = []
        received = 0
        for _ in range(UNITS_PER_RUN):
            self.ctx.yardstick.sample()
            outs = self._segment(seconds / UNITS_PER_RUN)
            completions = [value for out in outs for value in out["completions"]]
            latencies = [value for out in outs for value in out["latencies"]]
            units.append(Unit(len(completions) / (max(completions) - outs[0]["start"]), latencies))
            received += sum(out["received"] for out in outs)
        self.ctx.yardstick.sample()
        fetched = sum(len(unit.waits_s) for unit in units)
        return {"units": units, "bytes_per_item": received / max(1, fetched), "items": fetched}

    def cache_stats(self) -> dict | None:
        return self.clients[0].stat()["cache"]

    def replay_requests(self) -> list[tuple[str, int]]:
        return self.plans[0][: self.ctx.sizes.serve_replay_requests]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        super().close()


# -- ingest --------------------------------------------------------------------


@dataclass
class Conversion:
    wall: float
    chunk_waits: list[float]
    directory: Path
    record_digest: str = ""
    stored_bytes: int = 0
    error: str = ""


class Ingest(Workload):
    """Streaming conversions of the corpus pixels into fresh PCR directories."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.kept: Path | None = None
        self._n_conversions = 0

    def setup(self) -> None:
        warmup = self._convert(self.ctx.corpus[: 2 * self.ctx.sizes.images_per_record])
        shutil.rmtree(warmup.directory, ignore_errors=True)
        if warmup.error:
            raise RuntimeError(f"warm-up conversion failed: {warmup.error}")

    def _convert(self, samples: list) -> Conversion:
        """One conversion; the source sees how long each chunk it hands over took."""
        sizes = self.ctx.sizes
        # Half a record per pull: ~100 waits in a run, so p90 has ten beyond it.
        chunk = sizes.images_per_record // 2
        self._n_conversions += 1
        directory = self.ctx.workdir / f"ingest-{self._n_conversions}"
        pulls: list[float] = []

        def source():
            for sample in samples:
                pulls.append(time.perf_counter())
                yield sample
            pulls.append(time.perf_counter())  # asked for more after the last chunk

        conversion = Conversion(0.0, [], directory)
        start = time.perf_counter()
        try:
            convert_to_pcr(
                source(),
                directory,
                images_per_record=sizes.images_per_record,
                quality=sizes.quality,
                backend="sqlite",
                chunk_size=chunk,
                encode_workers=0,
            )
        except Exception as error:
            conversion.error = f"{type(error).__name__}: {error}"
        conversion.wall = time.perf_counter() - start
        # Finalising the dataset comes after the last pull and is in no wait.
        chunk_starts = pulls[:-1][::chunk] + pulls[-1:]
        conversion.chunk_waits = [b - a for a, b in zip(chunk_starts, chunk_starts[1:])]
        if not conversion.error:
            digest = hashlib.sha1()
            for path in sorted(directory.iterdir()):
                conversion.stored_bytes += path.stat().st_size
                if path.suffix == ".pcr":
                    digest.update(path.name.encode() + path.read_bytes())
            conversion.record_digest = digest.hexdigest()
        return conversion

    def measure(self, seconds: float) -> dict:
        corpus = self.ctx.corpus[: self.ctx.sizes.ingest_images]
        conversions: list[Conversion] = []
        start = time.perf_counter()
        while True:
            self.ctx.yardstick.sample()
            conversion = self._convert(corpus)
            same = not conversions or conversion.record_digest == conversions[0].record_digest
            failed = len(corpus) if conversion.error or not same else 0
            self.ctx.tally.add(
                len(corpus), failed, f"conversion differs from the first {conversion.error}"
            )
            conversions.append(conversion)
            if self.kept is not None:
                shutil.rmtree(self.kept, ignore_errors=True)
            self.kept = conversion.directory
            if conversion.error or time.perf_counter() - start >= seconds:
                break
        self.ctx.yardstick.sample()
        self._check_fidelity(corpus)
        return {
            "units": [Unit(len(corpus) / c.wall, c.chunk_waits or [c.wall]) for c in conversions],
            "bytes_per_item": conversions[-1].stored_bytes / len(corpus),
            "items": len(corpus) * len(conversions),
        }

    def _check_fidelity(self, corpus: list) -> None:
        """Two seeded records of the last output decode close to their source."""
        from repro.metrics.psnr import psnr  # pulls in scipy; keep it out of set-up

        source = {key: image for key, image, _ in corpus}
        rng = np.random.default_rng([self.ctx.seed, 0x16])
        try:
            with PCRReader(self.kept) as reader:
                names = reader.record_names
                for name in rng.choice(names, size=min(2, len(names)), replace=False):
                    for sample in reader.read_record(str(name), reader.n_groups):
                        quality = psnr(source[sample.key], sample.image)
                        low = quality < self.ctx.sizes.min_ingest_psnr_db
                        self.ctx.tally.add(1, int(low), f"{sample.key} decodes at {quality:.1f} dB")
        except Exception as error:
            self.ctx.tally.add(1, 1, f"reading back the ingested dataset failed: {error}")

    def replay_requests(self) -> list[tuple[str, int]]:
        with PCRReader(self.kept, decode=False) as reader:
            return [(name, reader.n_groups) for name in reader.record_names]

    def replay_dataset(self) -> str:
        return str(self.kept)

    def close(self) -> None:
        if self.kept is not None:
            shutil.rmtree(self.kept, ignore_errors=True)


def make_workload(name: str, ctx: Context) -> Workload:
    if name == "train_local_g10":
        return Train(ctx, scan_group=10, remote=False, n_workers=2)
    if name == "train_remote_g1":
        # One loader worker serialises fetch -> decode, so per-record serving
        # costs sit on the blocking chain.
        return Train(ctx, scan_group=1, remote=True, n_workers=1)
    if name == "serve_mixed":
        return ServeMixed(ctx)
    if name == "ingest":
        return Ingest(ctx)
    raise SystemExit(f"unknown workload {name!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", required=True, help="Inputs.dump() of the runner")
    args = parser.parse_args()

    ctx = Context(Inputs.load(args.inputs))
    workload = make_workload(args.workload, ctx)
    result: dict = {}
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode != "setup":
            workload.check_warmup()
            result = workload.measure(args.seconds)
            units = result.pop("units")
            # Reported at the reference host speed; the raw readings stay
            # beside them.
            scales = ctx.yardstick.unit_scales()
            raw = summarize(units, [1.0] * len(units))
            result.update({"raw_" + name: value for name, value in raw.items()})
            result.update(summarize(units, scales), host_scale=median(scales))
            result.update(units=len(units), waits=sum(len(unit.waits_s) for unit in units))
        if args.mode == "trace":
            import layers

            trace_path = OUT_ROOT / f"trace-{args.workload}-seed{ctx.seed}.json"
            result = layers.probe(ctx, args.workload, workload, result["items_per_s"], trace_path)
            result["trace_file"] = str(trace_path)
    finally:
        workload.close()
    if args.mode != "setup":
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = (own_rss_kb + workload.server_rss_kb()) / 1024
        result.update(attempted=ctx.tally.attempted, failed=ctx.tally.failed, notes=ctx.tally.notes)
        print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
