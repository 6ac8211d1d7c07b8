"""Cross-module integration tests: the full PCR workflow end to end."""

from __future__ import annotations

import pytest

from repro.core.dataset import PCRDataset
from repro.datasets.labels import is_corvette_mapper, make_only_mapper
from repro.datasets.registry import CARS_SPEC, generate_dataset
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.simulate.throughput import expected_read_seconds
from repro.simulate.trainer_sim import ClusterSpec, TrainingSimulator
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD
from repro.tuning.static import StaticTuner


@pytest.fixture(scope="module")
def cars_dataset(tmp_path_factory):
    """A small Cars-like PCR dataset (fine-grained labels with coarse groups)."""
    from dataclasses import replace

    spec = replace(CARS_SPEC, n_samples=48, image_size=32, n_classes=6, n_coarse_groups=3)
    directory = tmp_path_factory.mktemp("cars-like")
    samples = list(generate_dataset(spec, seed=11))
    return PCRDataset.build(samples, directory, images_per_record=12, quality=spec.jpeg_quality), spec


class TestTaskDifficulty:
    def test_coarse_tasks_tolerate_low_scan_groups_better(self, cars_dataset):
        """The Figure 6/29/30 effect: remapping labels to a coarser task closes
        the accuracy gap between scan group 1 and the baseline."""
        dataset, spec = cars_dataset

        def final_accuracy(view, n_classes, scan_group, epochs=6, seed=0):
            loader = DataLoader(view, LoaderConfig(batch_size=12, n_workers=1, seed=seed))
            loader.set_scan_group(scan_group)
            trainer = Trainer(
                LinearProbe(n_classes=n_classes, input_size=spec.image_size, seed=seed),
                SGD(learning_rate=0.2, momentum=0.9, weight_decay=0.0),
            )
            trainer.fit(loader, n_epochs=epochs)
            return trainer.evaluate(loader)

        fine_low = final_accuracy(dataset, spec.n_classes, scan_group=1)
        fine_high = final_accuracy(dataset, spec.n_classes, scan_group=10)

        binary_view = dataset.with_label_mapper(is_corvette_mapper(spec.n_coarse_groups))
        binary_low = final_accuracy(binary_view, 2, scan_group=1)
        binary_high = final_accuracy(binary_view, 2, scan_group=10)

        fine_gap = fine_high - fine_low
        binary_gap = binary_high - binary_low
        # The binary task's gap is no larger than the fine-grained task's gap
        # (with generous slack for the tiny training budget).
        assert binary_gap <= fine_gap + 0.15
        assert binary_high >= 0.5

    def test_make_only_mapper_reduces_class_count(self, cars_dataset):
        dataset, spec = cars_dataset
        view = dataset.with_label_mapper(make_only_mapper(spec.n_coarse_groups))
        labels = {sample.label for sample in view}
        assert len(labels) <= spec.n_coarse_groups


class TestStorageIntegration:
    def test_pcr_partial_reads_on_simulated_cluster(self, pcr_dataset):
        """Read each record's scan-group prefix from its PCR file and price the
        read with Lemma A.1 on a SATA SSD (400 MiB/s, 80 us setup per read);
        compare scan group 1 with the full records.

        The tiny test records are inflated so that transfer time, not the
        per-operation setup cost, dominates — the regime the paper's cluster
        operates in (megabyte-scale records on a bandwidth-bound store).
        """
        inflation = 64

        def epoch_latency(scan_group):
            total = 0.0
            for name in pcr_dataset.record_names:
                with open(pcr_dataset.reader.directory / name, "rb") as handle:
                    prefix = handle.read(pcr_dataset.reader.bytes_for_group(name, scan_group))
                total += expected_read_seconds(len(prefix) * inflation, 400 * 1024 * 1024, 1, 80e-6)
            return total

        low = epoch_latency(1)
        full = epoch_latency(10)
        assert full > 1.5 * low

    def test_static_tuner_then_training(self, pcr_dataset):
        """Static tuning picks a group; training on it still converges."""
        report = StaticTuner(pcr_dataset, sample_limit=4).analyze()
        group = report.recommended_group
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=10, n_workers=1, seed=5))
        loader.set_scan_group(group)
        trainer = Trainer(
            LinearProbe(n_classes=4, input_size=32), SGD(learning_rate=0.2, momentum=0.9)
        )
        trainer.fit(loader, n_epochs=12)
        assert trainer.evaluate(loader) > 0.3  # clearly above the 0.25 chance level


class TestSimulatorCalibration:
    def test_measured_sizes_drive_published_shape(self, pcr_dataset):
        """Feed measured per-group byte sizes into the cluster simulator and
        check the headline claim: roughly 2x speedup at half the bytes."""
        n_samples = len(pcr_dataset)
        sizes = {
            group: total / n_samples for group, total in pcr_dataset.epoch_bytes_by_group().items()
        }
        # Rescale to ImageNet-like absolute sizes (110 kB at full quality) so the
        # published bandwidth/compute numbers apply.
        scale = 110_000 / sizes[10]
        scaled = {group: size * scale for group, size in sizes.items()}
        simulator = TrainingSimulator(ClusterSpec.paper_shufflenet(), n_train_images=1_281_167)
        speedups = simulator.speedup_table(scaled)
        assert speedups[10] == pytest.approx(1.0)
        # Some group roughly halves the bytes; its speedup should be ~1.5-2.1x.
        halfish = min(scaled, key=lambda g: abs(scaled[g] - 55_000))
        assert 1.3 < speedups[halfish] <= 2.2
