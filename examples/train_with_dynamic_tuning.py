"""Train a small model on a PCR dataset with dynamic scan-group autotuning.

Reproduces the Section 4.5 workflow at laptop scale: training starts at full
quality, and every few epochs the gradient-cosine controller probes the scan
groups and drops to the cheapest one whose gradient still points the right way.

Run with:  python examples/train_with_dynamic_tuning.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from repro.core import PCRDataset
from repro.datasets import HAM10000_SPEC, generate_dataset
from repro.pipeline import DataLoader, LoaderConfig
from repro.training import SGD, Trainer, TinyShuffleNet
from repro.tuning import GradientCosineController

N_EPOCHS = 6
TUNE_EVERY = 2


def main() -> None:
    spec = replace(HAM10000_SPEC, n_samples=64, image_size=40, images_per_record=16)
    workdir = tempfile.mkdtemp(prefix="pcr-dynamic-")
    print("Building a HAM10000-like PCR dataset ...")
    dataset = PCRDataset.build(
        generate_dataset(spec, seed=1),
        workdir,
        images_per_record=spec.images_per_record,
        quality=spec.jpeg_quality,
    )

    loader = DataLoader(dataset, LoaderConfig(batch_size=16, n_workers=2, seed=0))
    model = TinyShuffleNet(n_classes=spec.n_classes, width=8)
    trainer = Trainer(model, SGD(learning_rate=0.05, momentum=0.9))
    controller = GradientCosineController(
        candidate_groups=[1, 2, 5, 10], similarity_threshold=0.9, max_samples=32
    )

    print(f"\nTraining {N_EPOCHS} epochs with autotuning every {TUNE_EVERY} epochs:")
    for epoch in range(N_EPOCHS):
        result = trainer.train_epoch(loader, scan_group=dataset.scan_group)
        print(
            f"  epoch {epoch}: scan group {dataset.scan_group:>2}  "
            f"loss {result.train_loss:.3f}  acc {result.train_accuracy:.2f}  "
            f"epoch bytes {dataset.epoch_bytes():>8}"
        )
        if (epoch + 1) % TUNE_EVERY == 0:
            decision = controller.tune(trainer, dataset, epoch)
            similarities = ", ".join(
                f"g{g}={v:.2f}" for g, v in sorted(decision.inputs.items())
            )
            print(
                f"    autotune: gradient cosine [{similarities}] -> scan group "
                f"{decision.chosen_group} ({decision.direction}: {decision.reason})"
            )

    final_accuracy = trainer.evaluate(loader)
    print(f"\nFinal training-set accuracy: {final_accuracy:.2f}")
    print(f"Final scan group: {dataset.scan_group} "
          f"(baseline would read {dataset.reader.dataset_bytes_for_group(dataset.n_groups)} bytes/epoch, "
          f"chosen group reads {dataset.epoch_bytes()})")


if __name__ == "__main__":
    main()
