"""The end-to-end benchmark: one workload per invocation, judged from outside.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

generates the inputs from the seed, runs workload ``W`` in fresh child
processes, checks what the program returned, prints every metric by name
with its unit, and ends its standard output with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter
from pathlib import Path
from statistics import median

from common import (
    BENCH_DIR,
    REPO_ROOT,
    WORK_ROOT,
    YARDSTICK_REFERENCE_S,
    Inputs,
    Yardstick,
    load_spec,
    use_program_source,
)

#: The driver allows a run 180 s; a child still running this long after its
#: workload started is killed, and the run fails without a result.
RUN_BUDGET_S = 160.0
CORPUS_CLASS_SEED = 11


def prepare(workdir: Path, seed: int, quick: bool, with_dataset: bool) -> tuple[Inputs, dict]:
    """Generate this invocation's inputs: the corpus and, for the workloads
    that read, the PCR dataset with a manifest of what its bytes must be."""
    import numpy as np
    from repro.core.convert import convert_to_pcr
    from repro.core.reader import PCRReader
    from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec

    inputs = Inputs(
        workdir=str(workdir),
        corpus=str(workdir / "corpus.npz"),
        dataset=str(workdir / "dataset") if with_dataset else None,
        manifest=str(workdir / "manifest.json") if with_dataset else None,
        seed=seed,
        quick=quick,
    )
    sizes = inputs.sizes
    started = time.perf_counter()
    # The classes are the same for every seed, so that bytes per image are;
    # the seed draws the samples of those classes.
    generator = SyntheticImageGenerator(
        sizes.n_classes, SyntheticImageSpec(image_size=sizes.image_size), seed=CORPUS_CLASS_SEED
    )
    samples = generator.generate_batch(sizes.n_images, seed=seed)
    np.savez(
        inputs.corpus,
        keys=np.array([key for key, _, _ in samples]),
        pixels=np.stack([image.pixels for _, image, _ in samples]),
        labels=np.array([label for _, _, label in samples]),
    )
    header = {"corpus_gen_s": time.perf_counter() - started}
    if not with_dataset:
        return inputs, header

    started = time.perf_counter()
    convert_to_pcr(
        samples,
        inputs.dataset,
        images_per_record=sizes.images_per_record,
        quality=sizes.quality,
        backend="sqlite",
    )
    header["dataset_ingest_s"] = time.perf_counter() - started
    records: dict[str, dict[str, list[int]]] = {}
    with PCRReader(inputs.dataset, decode=False) as reader:
        for name in reader.record_names:
            stored = (Path(inputs.dataset) / name).read_bytes()
            records[name] = {}
            for group in range(1, reader.n_groups + 1):
                length = reader.bytes_for_group(name, group)
                records[name][str(group)] = [length, zlib.crc32(stored[:length])]
    manifest = {
        "n_samples": len(samples),
        "label_histogram": Counter(label for _, _, label in samples),
        "records": records,
    }
    Path(inputs.manifest).write_text(json.dumps(manifest))
    return inputs, header


def run_child(
    inputs: Inputs, workload: str, mode: str, seconds: float, deadline: float
) -> tuple[float, dict]:
    """Run ``child.py`` to the end; returns (seconds until READY, its result)."""
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--mode", mode,
        "--seconds", str(seconds),
        "--inputs", inputs.dump(),
    ]  # fmt: skip
    env = dict(os.environ, TMPDIR=inputs.workdir)
    ready_after = None
    result: dict = {}
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    watchdog.start()
    try:
        for line in child.stdout:
            if line.startswith("READY"):
                ready_after = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT ") :])
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or ready_after is None or (mode != "setup" and not result):
        raise RuntimeError(f"{workload} child ({mode}) failed with status {child.returncode}")
    return ready_after, result


def run_workload(inputs: Inputs, workload: str, seconds: float, trace: bool) -> dict:
    """All children of one invocation; returns the record ``main`` reports."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        _, result = run_child(inputs, workload, "trace", seconds, deadline)
    else:
        # Each set-up is scaled by the host speed around it (common.Yardstick);
        # the measuring child's by the sample just before it.
        yardstick = Yardstick()
        yardstick.sample()
        setups = []
        for _ in range(inputs.sizes.setup_repeats - 1):
            setups.append(run_child(inputs, workload, "setup", seconds, deadline)[0])
            yardstick.sample()
        ready_after, result = run_child(inputs, workload, "measure", seconds, deadline)
        setups.append(ready_after)
        scales = yardstick.unit_scales() + [YARDSTICK_REFERENCE_S / yardstick.samples[-1]]
        result["raw_setup_s"] = median(setups)
        result["setup_s"] = median([setup * scale for setup, scale in zip(setups, scales)])
        result["setup_samples"] = len(setups)
    section = load_spec()["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result[name], "unit": unit} for name, unit in units.items()},
        "detail": {key: value for key, value in result.items() if key not in units},
    }


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [workload["name"] for workload in load_spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--output", help="append this run's record to a JSON-lines file")
    args = parser.parse_args()

    use_program_source()
    import numpy

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs, header = prepare(workdir, args.seed, args.quick, args.workload != "ingest")
        record = run_workload(inputs, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    detail = record.pop("detail")
    header.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        quick=args.quick,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        git_sha=git_sha(),
    )
    print(json.dumps(header))
    for name, metric in record["metrics"].items():
        flag = ""
        if name == "simulate.predicted_over_measured" and not 0.5 <= metric["value"] <= 2.0:
            flag = "   <- model and measurement disagree by more than 2x"
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}{flag}")
    for key, value in detail.items():
        print(f"  {key}: {value}")
    if args.output:
        with open(args.output, "a") as handle:
            handle.write(json.dumps({**header, **record, "detail": detail}) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
