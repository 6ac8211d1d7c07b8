"""Smoke test of the end-to-end benchmark on its ``--quick`` inputs.

Asserts the contract BENCHMARK.json states — every workload emits every
metric under its name and unit, nothing fails — that the output checks can
fail, and that a run leaves nothing behind.  No timing is asserted.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SECTIONS = {0: "end_to_end", 1: "per_layer"}

sys.path.insert(0, str(BENCH_DIR))


def run_bench(workload: str, trace: int, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    return subprocess.run(
        [*command, "--trace", str(trace), "--quick"],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )


def leftovers() -> set[str]:
    """Benchmark children, work directories and shared-memory slabs now alive."""
    found = {f"shm:{name}" for name in os.listdir("/dev/shm")}
    work_root = REPO_ROOT / ".bench_work"
    if work_root.is_dir():
        found |= {f"work:{path.name}" for path in work_root.iterdir()}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"child.py" in cmdline:  # child.py and server_child.py
            found.add(f"pid:{pid}")
    return found


@pytest.fixture(scope="module")
def quick_runs() -> dict[tuple[str, int], subprocess.CompletedProcess]:
    """Every workload with and without tracing, two at a time (one per core)."""
    before = leftovers()
    cases = [(workload, trace) for workload in WORKLOADS for trace in SECTIONS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(cases, pool.map(lambda case: run_bench(*case), cases)))
    assert leftovers() == before
    return runs


@pytest.mark.parametrize("trace", SECTIONS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(quick_runs, workload, trace):
    out = quick_runs[(workload, trace)]
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in SPEC[SECTIONS[trace]]}
    assert all(math.isfinite(metric["value"]) for metric in record["metrics"].values())


def test_corrupt_record_fails_the_output_checks(tmp_path):
    import run

    run.use_program_source()
    inputs, _ = run.prepare(tmp_path, seed=3, quick=True, with_dataset=True)
    record_file = sorted(Path(inputs.dataset).glob("*.pcr"))[0]
    stored = bytearray(record_file.read_bytes())
    stored[len(stored) // 2] ^= 0xFF
    record_file.write_bytes(bytes(stored))
    for workload in ("train_local_g10", "serve_mixed"):
        record = run.run_workload(inputs, workload, seconds=0.2, trace=False)
        assert record["failed"] > 0
        assert record["correct"] is False


def test_without_the_program_the_benchmark_refuses(tmp_path):
    """In a tree holding only the benchmark, run.py exits non-zero, no result."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
