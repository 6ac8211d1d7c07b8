"""The layering, checked in a fresh interpreter: what a process loads.

A record server, a loader or an ingest job must not pay for the tuner, the
trainer, their metrics or ``scipy`` (docs/autotune.md "What a process
loads"); the decision record both sides share lives in
``repro.core.scan_groups``, below both — shared downward, not sideways.
The control loop runs beside the loader it steers, so the serving side and
``repro.control`` load nothing of each other.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SERVING_SIDE = [
    "repro.serving.server",
    "repro.serving.client",
    "repro.serving.remote_source",
    "repro.serving.cluster",
    "repro.control",
    "repro.pipeline.loader",
    "repro.core.convert",
    "repro.core.dataset",
]
TRAINING_SIDE = ["tuning", "training", "metrics", "simulate", "storage", "datasets"]


def _loaded_after_importing(modules: list[str]) -> tuple[set[str], set[str]]:
    """``(repro sub-packages, top-level third-party names)`` in ``sys.modules``
    of a fresh interpreter that imported ``modules``."""
    script = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    loaded = json.loads(result.stdout)
    packages = {name.split(".")[1] for name in loaded if name.startswith("repro.")}
    return packages, {name.split(".")[0] for name in loaded}


def test_serving_side_loads_no_training_side_and_no_scipy():
    packages, top_level = _loaded_after_importing(SERVING_SIDE)
    assert packages.isdisjoint(TRAINING_SIDE), sorted(packages & set(TRAINING_SIDE))
    assert "scipy" not in top_level
    assert {"serving", "control", "pipeline", "core"} <= packages


def test_tuner_does_not_import_the_serving_side():
    packages, _ = _loaded_after_importing(["repro.tuning"])
    assert packages.isdisjoint({"serving", "control"}), sorted(packages)
    assert {"tuning", "training"} <= packages


def test_the_server_side_loads_no_control():
    packages, _ = _loaded_after_importing(["repro.serving.server", "repro.serving.cluster"])
    assert "control" not in packages, sorted(packages)
    assert "serving" in packages


def test_control_loads_no_serving_side():
    packages, _ = _loaded_after_importing(["repro.control"])
    assert "serving" not in packages, sorted(packages)
    assert {"control", "core"} <= packages
