"""Figures 25–28 — training loss and accuracy-per-epoch by scan group.

Trains the same model on the Cars-like dataset at scan groups 1, 5, and
baseline and prints the loss and accuracy trajectories per epoch.  The paper's
observation: lower scan groups do not *improve* per-epoch accuracy (compression
is not acting as a regularizer); time-to-accuracy gains come from faster
epochs, not better statistical efficiency.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD

SCAN_GROUPS = (1, 5, 10)
N_EPOCHS = 8


def test_fig25_loss_and_accuracy_per_epoch(benchmark, cars_like):
    dataset, spec = cars_like

    def run():
        histories = {}
        for group in SCAN_GROUPS:
            loader = DataLoader(dataset, LoaderConfig(batch_size=12, n_workers=1, seed=9))
            loader.set_scan_group(group)
            trainer = Trainer(
                LinearProbe(n_classes=spec.n_classes, input_size=spec.image_size, seed=4),
                SGD(learning_rate=0.02, momentum=0.9, weight_decay=0.0),
            )
            trainer.fit(loader, n_epochs=N_EPOCHS, test_loader=loader)
            histories[group] = trainer.history
        return histories

    histories = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figures 25-28: train loss / test accuracy per epoch, by scan group")
    print(f"{'epoch':>6}" + "".join(f"{f'loss g{g}':>10}" for g in SCAN_GROUPS)
          + "".join(f"{f'acc g{g}':>9}" for g in SCAN_GROUPS))
    for epoch in range(N_EPOCHS):
        row = f"{epoch:>6}"
        for group in SCAN_GROUPS:
            row += f"{histories[group].epochs[epoch].train_loss:>10.3f}"
        for group in SCAN_GROUPS:
            row += f"{histories[group].epochs[epoch].test_accuracy:>9.3f}"
        print(row)

    # Loss improves over its starting value for every group; the baseline's
    # final accuracy is at least as good as scan group 1's (no regularization
    # benefit from compression), within small-sample noise.
    for group in SCAN_GROUPS:
        losses = [e.train_loss for e in histories[group].epochs]
        assert min(losses) < losses[0]
        assert np.all(np.isfinite(losses))
    assert (
        histories[10].final_test_accuracy
        >= histories[1].final_test_accuracy - 0.25
    )
