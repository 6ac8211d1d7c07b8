"""Figures 8, 20, 21, 22 — dynamic scan-group autotuning.

Runs the loss-plateau and gradient-cosine controllers (with and without
mixture policies) on the HAM-like dataset and reports the chosen scan groups,
the bytes read per epoch under each strategy, and final accuracy.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD
from repro.tuning.dynamic import GradientCosineController, LossPlateauController
from repro.tuning.mixture import MixturePolicy

N_EPOCHS = 8
TUNE_EVERY = 3


def _run_dynamic(dataset, spec, controller_kind: str):
    loader = DataLoader(dataset, LoaderConfig(batch_size=12, n_workers=1, seed=3))
    trainer = Trainer(
        LinearProbe(n_classes=spec.n_classes, input_size=spec.image_size, seed=2),
        SGD(learning_rate=0.2, momentum=0.9, weight_decay=0.0),
    )
    plateau = LossPlateauController(candidate_groups=[1, 2, 5], probe_batches=1, loss_slack=0.10)
    cosine = GradientCosineController(candidate_groups=[1, 2, 5, 10], similarity_threshold=0.9, max_samples=24)
    bytes_read = []
    chosen = []
    for epoch in range(N_EPOCHS):
        result = trainer.train_epoch(loader)
        bytes_read.append(dataset.epoch_bytes(result.scan_group))
        chosen.append(result.scan_group)
        if epoch > 0 and epoch % TUNE_EVERY == 0:
            controller = plateau if controller_kind == "plateau" else cosine
            controller.tune(trainer, loader, epoch)
    return {
        "chosen_per_epoch": chosen,
        "bytes_per_epoch": bytes_read,
        "final_accuracy": trainer.evaluate(loader),
        "final_group": loader.scan_group,
    }


def _run_static_baseline(dataset, spec):
    loader = DataLoader(dataset, LoaderConfig(batch_size=12, n_workers=1, seed=3))
    trainer = Trainer(
        LinearProbe(n_classes=spec.n_classes, input_size=spec.image_size, seed=2),
        SGD(learning_rate=0.2, momentum=0.9, weight_decay=0.0),
    )
    trainer.fit(loader, n_epochs=N_EPOCHS)
    return {
        "bytes_per_epoch": [dataset.epoch_bytes()] * N_EPOCHS,
        "final_accuracy": trainer.evaluate(loader),
    }


def test_fig8_dynamic_autotuning(benchmark, ham_like):
    dataset, spec = ham_like

    def run():
        return {
            "baseline": _run_static_baseline(dataset, spec),
            "loss-plateau": _run_dynamic(dataset, spec, "plateau"),
            "gradient-cosine": _run_dynamic(dataset, spec, "cosine"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figures 8/20/21/22: dynamic autotuning on HAM10000-like data")
    baseline_bytes = float(np.sum(results["baseline"]["bytes_per_epoch"]))
    print(f"{'strategy':<18}{'final acc':>11}{'bytes/run':>12}{'vs baseline':>13}{'final group':>13}")
    for name, outcome in results.items():
        total_bytes = float(np.sum(outcome["bytes_per_epoch"]))
        group = outcome.get("final_group", dataset.n_groups)
        print(
            f"{name:<18}{outcome['final_accuracy']:>11.3f}{total_bytes:>12.0f}"
            f"{total_bytes / baseline_bytes:>13.2f}{group:>13}"
        )
    for name in ("loss-plateau", "gradient-cosine"):
        print(f"\n{name} scan group per epoch: {results[name]['chosen_per_epoch']}")

    # Dynamic strategies never read more than the static baseline, at least
    # one of them reads strictly less, and accuracy stays in the same range.
    totals = {
        name: float(np.sum(results[name]["bytes_per_epoch"]))
        for name in ("loss-plateau", "gradient-cosine")
    }
    for name, total in totals.items():
        assert total <= baseline_bytes + 1e-6
        assert results[name]["final_accuracy"] >= results["baseline"]["final_accuracy"] - 0.35
    assert min(totals.values()) < baseline_bytes


def test_fig20_mixture_bandwidth_control(benchmark, ham_like):
    dataset, _ = ham_like

    def run():
        sizes = {
            group: total / len(dataset)
            for group, total in dataset.epoch_bytes_by_group().items()
        }
        rows = []
        for label, policy in (
            ("no mix (group 1)", MixturePolicy.point_mass(1, 10)),
            ("mix 50% on 1", MixturePolicy.weighted(1, 10, 10.0)),
            ("mix 85% on 1", MixturePolicy.weighted(1, 10, 100.0)),
            ("uniform", MixturePolicy.uniform(10)),
            ("no mix (baseline)", MixturePolicy.point_mass(10, 10)),
        ):
            rows.append((label, policy.expected_bytes(sizes)))
        return rows, sizes

    rows, sizes = benchmark(run)
    print_header("Figure 20/§A.6.3: expected bytes per image under mixture policies")
    for label, expected in rows:
        print(f"{label:<20}{expected:>12.0f} bytes/image")
    assert rows[0][1] < rows[1][1] < rows[3][1] < rows[4][1]
    assert abs(rows[-1][1] - sizes[10]) < 1e-6
