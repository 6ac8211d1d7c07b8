"""Figure 7 — MSSIM vs final accuracy regression (Cars, ShuffleNet role).

Trains a small model per scan group on the Cars-like dataset, measures each
group's MSSIM, and fits the linear MSSIM-to-accuracy relationship the paper
uses as a static tuning diagnostic.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header
from repro.codecs.progressive import ProgressiveCodec
from repro.metrics.msssim import ms_ssim
from repro.metrics.regression import fit_mssim_accuracy
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD

SCAN_GROUPS = (1, 2, 5, 10)
N_EPOCHS = 8


def test_fig7_mssim_accuracy_regression(benchmark, cars_like):
    dataset, spec = cars_like

    def run():
        codec = ProgressiveCodec(quality=spec.jpeg_quality)
        streams = [sample.stream for sample in list(dataset)[:6]]
        mssim = {}
        for group in SCAN_GROUPS:
            mssim[group] = float(
                np.mean(
                    [
                        ms_ssim(codec.decode(s), codec.decode(s, max_scans=group))
                        for s in streams
                    ]
                )
            )
        accuracy = {}
        for group in SCAN_GROUPS:
            loader = DataLoader(dataset, LoaderConfig(batch_size=12, n_workers=1, seed=group))
            loader.set_scan_group(group)
            trainer = Trainer(
                LinearProbe(n_classes=spec.n_classes, input_size=spec.image_size, seed=1),
                SGD(learning_rate=0.2, momentum=0.9, weight_decay=0.0),
            )
            trainer.fit(loader, n_epochs=N_EPOCHS)
            accuracy[group] = trainer.evaluate(loader)
        fit = fit_mssim_accuracy([mssim[g] for g in SCAN_GROUPS], [accuracy[g] for g in SCAN_GROUPS])
        return mssim, accuracy, fit

    mssim, accuracy, fit = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 7: MSSIM vs final accuracy (linear regression)")
    print(f"{'group':>6}{'MSSIM':>9}{'accuracy':>10}{'predicted':>11}")
    for group in SCAN_GROUPS:
        print(
            f"{group:>6}{mssim[group]:>9.3f}{accuracy[group]:>10.3f}"
            f"{float(fit.predict(mssim[group])):>11.3f}"
        )
    print(f"\nfit: accuracy = {fit.slope:.2f} * MSSIM + {fit.intercept:.2f}"
          f"  (R^2 = {fit.r_squared:.3f}, p = {fit.p_value:.3g})")
    print("paper (Cars, crop): accuracy = 405.0 * MSSIM - 331.0, p = 6.9e-09")

    # Shape: accuracy correlates positively with MSSIM.
    assert fit.slope > 0
    assert accuracy[10] >= accuracy[1] - 0.05
    assert mssim[10] > mssim[1]
