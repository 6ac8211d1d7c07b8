"""Constants and small helpers shared by the runner and its child processes.

Nothing here imports ``repro``: the runner must be able to say "the program
is not in this checkout" before anything else fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import fmean

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Scratch space of one invocation; inside the checkout, removed on exit.
WORK_ROOT = REPO_ROOT / ".bench_work"
#: Chrome traces of ``--trace 1`` runs are kept here.
OUT_ROOT = REPO_ROOT / ".bench_out"


def load_spec() -> dict:
    """BENCHMARK.json: the workload and metric names, units and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


#: Scan groups the mixed serving workload draws from.
SERVE_GROUPS = (1, 2, 5, 10)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what BENCHMARK.json's numbers are measured on."""

    n_images: int
    image_size: int
    images_per_record: int
    batch_size: int
    #: Fresh-process set-ups per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Requests each serving client issues before timing, to fill the cache.
    serve_warmup_requests: int
    #: Requests the traced serving replay walks through.
    serve_replay_requests: int
    #: Images one timed conversion of the ingest workload converts.
    ingest_images: int
    #: Images the write half of the layer probe encodes and writes.
    probe_write_images: int
    #: What an ingested image must reach against its source at the last scan
    #: group.  The synthetic corpus carries sigma-8 pixel noise that quality
    #: 90 does not keep: measured 27.1-29.5 dB at 224 px, 19.1-24.7 dB at
    #: 64 px; a broken encoder lands near 10 dB.
    min_ingest_psnr_db: float
    n_classes: int = 4
    quality: int = 90


FULL = Sizes(
    n_images=96,
    image_size=224,
    images_per_record=8,
    batch_size=16,
    setup_repeats=3,
    serve_warmup_requests=500,
    serve_replay_requests=48,
    ingest_images=48,
    probe_write_images=16,
    min_ingest_psnr_db=25.0,
)
QUICK = Sizes(
    n_images=16,
    image_size=64,
    images_per_record=8,
    batch_size=8,
    setup_repeats=1,
    serve_warmup_requests=20,
    serve_replay_requests=8,
    ingest_images=16,
    probe_write_images=8,
    min_ingest_psnr_db=17.0,
)


@dataclass(frozen=True)
class Inputs:
    """Where one invocation's generated inputs live (all inside ``workdir``)."""

    workdir: str
    corpus: str
    dataset: str | None
    manifest: str | None
    seed: int
    quick: bool

    @property
    def sizes(self) -> Sizes:
        return QUICK if self.quick else FULL

    def dump(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def load(cls, text: str) -> "Inputs":
        return cls(**json.loads(text))


def use_program_source() -> None:
    """Put the program under test on ``sys.path``; exit 2 if it is not there."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program under test at {SRC_DIR}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: What one yardstick pass takes on the box at the speed the README's numbers
#: were taken at.  Timings are reported as if every pass took exactly this.
YARDSTICK_REFERENCE_S = 0.040


class Yardstick:
    """The host's speed, sampled before and after every unit of timed work.

    The box this runs on is shared: the same single-threaded Python loop
    takes 77-118 ms from one second to the next and drifts by a third over
    minutes, with CPU time tracking wall time (measured; see README).  No
    amount of repetition inside one run removes a drift that outlasts the
    run, so every run times a fixed kernel — an interpreter loop plus
    object churn, which tracked the program's decode and encode time with a
    slope of 1 in a seven-minute side-by-side — around each epoch, segment
    or conversion, and reports that unit's timings scaled to a host on
    which the kernel takes ``YARDSTICK_REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def _kernel() -> None:
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        for _ in range(4):
            pairs = [(i, str(i)) for i in range(20_000)]
            sorted({key: value for key, value in pairs}.values())

    def sample(self) -> None:
        if not self.samples:
            self._kernel()  # the first pass pays for allocator growth
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def unit_scales(self) -> list[float]:
        """Per unit of work (one between each pair of consecutive samples):
        what to multiply its measured durations by to get the reported ones.

        A unit is scaled by the mean of the two samples on either side of it
        (fewer at the ends of the run): single samples scatter by a tenth,
        and four neighbours tracked the program best in the side-by-side.
        """
        samples = self.samples
        return [
            YARDSTICK_REFERENCE_S / fmean(samples[max(0, unit - 1) : unit + 3])
            for unit in range(len(samples) - 1)
        ]


class ServerChild:
    """``server_child.py`` as a subprocess, reaped on every exit path."""

    def __init__(self, dataset_dir: str, cache_bytes: int) -> None:
        self.peak_rss_kb = 0
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server_child.py"), dataset_dir, str(cache_bytes)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"record server did not start (said {line!r})")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        if self._proc.returncode is not None:
            return
        try:
            out, _ = self._proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        for line in out.splitlines():
            if line.startswith("RSS "):
                self.peak_rss_kb = int(line.split()[1])

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
