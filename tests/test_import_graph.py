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

import pytest

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
TRAINING_SIDE = ["tuning", "training", "metrics", "simulate", "datasets"]


def _run_fresh(script: str, *args: str):
    """The JSON ``script`` prints last, run in a fresh interpreter (this one's
    environment) with ``src`` first on its path."""
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{script}", *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _modules_after_importing(modules: list[str]) -> list[str]:
    """``sys.modules`` of a fresh interpreter that imported ``modules``."""
    return _run_fresh(
        "import importlib, json\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )


def _decode_stack(loaded: list[str]) -> list[str]:
    """What of NumPy, the codec and the process pool ``loaded`` holds."""
    return [
        name
        for name in loaded
        if name.split(".")[0] in {"numpy", "multiprocessing"}
        or name == "repro.codecs"
        or name.startswith("repro.codecs.")
    ]


def _loaded_after_importing(modules: list[str]) -> tuple[set[str], set[str]]:
    """``(repro sub-packages, top-level third-party names)`` in ``sys.modules``
    of a fresh interpreter that imported ``modules``."""
    loaded = _modules_after_importing(modules)
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


def test_a_wire_reader_loads_no_server_and_no_asyncio():
    """A process that only reads over the wire (a remote trainer, every e2e
    child) does not pay for the server or ``asyncio`` (and its ``ssl``):
    ``repro.serving`` itself imports no submodule."""
    loaded = _modules_after_importing(
        ["repro.serving.client", "repro.serving.remote_source", "repro.pipeline.loader"]
    )
    assert "asyncio" not in loaded
    assert "repro.serving.server" not in loaded
    assert "repro.serving.cluster" not in loaded


def test_a_serving_process_loads_no_codec_numpy_or_process_pool(pcr_dataset):
    """The storage side serves byte prefixes; decoding is the trainer's job.
    A server that has answered every frame type still holds no NumPy, no
    ``repro.codecs`` and no ``multiprocessing`` (docs/autotune.md "What a
    process loads")."""
    served = _run_fresh(
        "import json\n"
        "import repro.serving.cluster\n"
        "from repro.serving.client import PCRClient\n"
        "from repro.serving.server import PCRRecordServer\n"
        "with PCRRecordServer(sys.argv[1], port=0) as server:\n"
        "    with PCRClient(port=server.port) as client:\n"
        "        meta = client.dataset_meta()\n"
        "        name = meta['record_names'][0]\n"
        "        sizes = [len(client.get_record_bytes(name, g)) for g in (1, meta['n_groups'])]\n"
        "        client.get_index(name)\n"
        "        client.metrics()\n"
        "        by_type = client.stat()['requests_by_type']\n"
        "print(json.dumps([sizes, by_type, sorted(sys.modules)]))\n",
        str(pcr_dataset.reader.directory),
    )
    sizes, by_type, loaded = served
    name = pcr_dataset.record_names[0]
    reader = pcr_dataset.reader
    assert sizes == [reader.bytes_for_group(name, g) for g in (1, reader.n_groups)]
    assert by_type == {"0x01": 2, "0x02": 1, "0x03": 1, "0x04": 1, "0x06": 1}
    assert _decode_stack(loaded) == []


def test_a_loader_or_converter_loads_the_process_pool_only_to_build_one(pcr_dataset):
    """Importing the loader, the converter and the dataset loads no
    ``multiprocessing``; a ``decode_workers=2`` epoch still decodes on its
    own ``DecodePool``."""
    before, pool_type, batches, after = _run_fresh(
        "import json\n"
        "import repro.core.convert, repro.core.dataset\n"
        "from repro.pipeline.loader import DataLoader, LoaderConfig\n"
        "before = sorted(sys.modules)\n"
        "dataset = repro.core.dataset.PCRDataset(sys.argv[1])\n"
        "with DataLoader(dataset, LoaderConfig(batch_size=8, decode_workers=2)) as loader:\n"
        "    list(loader.epoch())\n"
        "    pool = loader._decode_pool\n"
        "    result = [type(pool).__name__, pool.stats.batches]\n"
        "dataset.close()\n"
        "print(json.dumps([before, *result, sorted(sys.modules)]))\n",
        str(pcr_dataset.reader.directory),
    )
    assert "multiprocessing" not in before
    assert "repro.codecs.parallel" not in before
    assert pool_type == "DecodePool"
    assert batches == len(pcr_dataset.record_names)
    assert "repro.codecs.parallel" in after


def _scipy_in(loaded: list[str]) -> list[str]:
    return [name for name in loaded if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize(
    "script",
    [
        "import numpy as np\n"
        "from repro.metrics.psnr import psnr\n"
        "psnr(np.zeros((8, 8, 3)), np.full((8, 8, 3), 3.0))\n",
        "import repro.metrics\n",
        "import repro.tuning\n",
    ],
    ids=["psnr-caller", "metrics", "tuning"],
)
def test_a_metric_import_loads_no_scipy(script):
    """The ingest fidelity check computes a PSNR and the static tuner
    clusters MS-SSIM values: neither needs ``scipy`` to be imported
    (docs/autotune.md "What a process loads")."""
    loaded = _run_fresh(f"import json\n{script}print(json.dumps(sorted(sys.modules)))\n")
    assert _scipy_in(loaded) == []


def test_each_metric_loads_only_the_scipy_it_computes_with():
    """``ms_ssim`` filters (``scipy.ndimage``) and fits nothing; the Figure 7
    fit is what loads ``scipy.stats``."""
    after_ms_ssim, after_fit = _run_fresh(
        "import json\n"
        "import numpy as np\n"
        "from repro.metrics import fit_mssim_accuracy, ms_ssim\n"
        "image = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 251\n"
        "assert ms_ssim(image, image) == 1.0\n"
        "after_ms_ssim = sorted(sys.modules)\n"
        "fit_mssim_accuracy([0.5, 0.9], [0.6, 0.8])\n"
        "print(json.dumps([after_ms_ssim, sorted(sys.modules)]))\n"
    )
    assert "scipy.ndimage" in after_ms_ssim
    assert [name for name in after_ms_ssim if name.startswith("scipy.stats")] == []
    assert "scipy.stats" in after_fit


def test_every_metrics_export_resolves_to_its_definition():
    """Each ``__all__`` name is the object its module defines, also after
    every submodule has loaded (``psnr`` and ``ssim`` are submodule names
    too), and an unknown name is an ``AttributeError``."""
    defined_in = {
        "LinearFit": "regression",
        "fit_mssim_accuracy": "regression",
        "ms_ssim": "msssim",
        "mse": "psnr",
        "psnr": "psnr",
        "ssim": "ssim",
    }
    exports, resolved, unknown = _run_fresh(
        "import importlib, json\n"
        "import repro.metrics\n"
        "defined_in = json.loads(sys.argv[1])\n"
        "for module in sorted(set(defined_in.values())):\n"
        "    importlib.import_module(f'repro.metrics.{module}')\n"
        "resolved = {\n"
        "    name: getattr(repro.metrics, name)\n"
        "    is getattr(sys.modules[f'repro.metrics.{module}'], name)\n"
        "    for name, module in defined_in.items()\n"
        "}\n"
        "try:\n"
        "    repro.metrics.no_such_metric\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as error:\n"
        "    unknown = str(error)\n"
        "print(json.dumps([repro.metrics.__all__, resolved, unknown]))\n",
        json.dumps(defined_in),
    )
    assert exports == sorted(defined_in)
    assert resolved == dict.fromkeys(defined_in, True)
    assert unknown == "module 'repro.metrics' has no attribute 'no_such_metric'"
