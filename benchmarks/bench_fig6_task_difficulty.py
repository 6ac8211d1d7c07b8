"""Figures 6, 29, 30 — task difficulty vs tolerable compression (Stanford Cars).

Trains real (small) models on the Cars-like synthetic dataset under three
labelings of the SAME stored PCRs — the original fine-grained classes,
"Make-Only" (coarse groups), and the binary "Is-Corvette" task — at scan
groups 1 and baseline, and reports the accuracy gap per task.
"""

from __future__ import annotations

from benchmarks.conftest import print_header
from repro.datasets.labels import is_corvette_mapper, make_only_mapper, n_classes_after
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD

SCAN_GROUPS = (1, 10)
N_EPOCHS = 8


def _accuracy(dataset_view, n_classes, input_size, scan_group, seed=0):
    loader = DataLoader(dataset_view, LoaderConfig(batch_size=12, n_workers=1, seed=seed))
    loader.set_scan_group(scan_group)
    trainer = Trainer(
        LinearProbe(n_classes=n_classes, input_size=input_size, seed=seed),
        SGD(learning_rate=0.2, momentum=0.9, weight_decay=0.0),
    )
    trainer.fit(loader, n_epochs=N_EPOCHS)
    return trainer.evaluate(loader)


def test_fig6_task_difficulty(benchmark, cars_like):
    dataset, spec = cars_like

    def run():
        tasks = {
            "multiclass": (dataset, spec.n_classes),
            "make-only": (
                dataset.with_label_mapper(make_only_mapper(spec.n_coarse_groups)),
                n_classes_after(make_only_mapper(spec.n_coarse_groups), spec.n_classes),
            ),
            "is-corvette": (
                dataset.with_label_mapper(is_corvette_mapper(spec.n_coarse_groups)),
                2,
            ),
        }
        results = {}
        for task_name, (view, n_classes) in tasks.items():
            results[task_name] = {
                group: _accuracy(view, n_classes, spec.image_size, group)
                for group in SCAN_GROUPS
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figures 6/29/30: accuracy gap between scan group 1 and baseline, per task")
    print(f"{'task':<14}{'classes':>9}{'acc@g1':>9}{'acc@g10':>9}{'gap':>8}")
    gaps = {}
    class_counts = {"multiclass": 12, "make-only": 4, "is-corvette": 2}
    for task_name, accuracies in results.items():
        gap = accuracies[10] - accuracies[1]
        gaps[task_name] = gap
        print(
            f"{task_name:<14}{class_counts[task_name]:>9}{accuracies[1]:>9.3f}"
            f"{accuracies[10]:>9.3f}{gap:>8.3f}"
        )

    # Coarser tasks close the gap (with slack for small-sample noise), and the
    # binary task is learnable even from scan group 1.
    assert gaps["is-corvette"] <= gaps["multiclass"] + 0.10
    assert results["is-corvette"][1] >= 0.5
    assert results["multiclass"][10] > 1.0 / 12  # beats chance at full quality
