"""Tests for the queueing-theory throughput model, roofline, and training simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulate.throughput import (
    PipelineModel,
    empirical_image_size_distribution,
    expected_read_seconds,
    pipeline_throughput,
    predicted_throughput_by_scan,
    speedup,
)
from repro.simulate.trainer_sim import (
    ClusterSpec,
    TrainingSimulator,
    mssim_degraded_accuracy,
    saturating_accuracy_curve,
)

MiB = 1024 * 1024


def _roofline(compute: float, bandwidth: float) -> PipelineModel:
    """The Figure 14 roofline: one image per record, no setup cost."""
    return PipelineModel(bandwidth, compute, images_per_record=1)


class TestThroughputLemmas:
    def test_lemma_a1_read_time_scales_with_size(self):
        fast = expected_read_seconds(50_000, 100 * MiB, images_per_record=100)
        slow = expected_read_seconds(100_000, 100 * MiB, images_per_record=100)
        assert slow == pytest.approx(2 * fast)

    def test_lemma_a1_setup_cost_added_once_per_record(self):
        with_setup = expected_read_seconds(1000, MiB, images_per_record=10, setup_seconds=0.01)
        without = expected_read_seconds(1000, MiB, images_per_record=10)
        assert with_setup == pytest.approx(without + 0.01)

    def test_lemma_a2_throughput_is_bandwidth_over_size(self):
        model = _roofline(7500, 400 * MiB)
        assert model.loader_rate(110_000) == pytest.approx(400 * MiB / 110_000)

    def test_lemma_a3_speedup_is_size_ratio(self):
        assert speedup(110_000, 55_000) == pytest.approx(2.0)
        assert speedup(110_000, 11_000) == pytest.approx(10.0)

    def test_lemma_a4_min_bound(self):
        assert pipeline_throughput(4000, 8000) == 4000
        assert pipeline_throughput(8000, 4000) == 4000

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            _roofline(7500, 100).loader_rate(0)
        with pytest.raises(ValueError):
            expected_read_seconds(10, 0)
        with pytest.raises(ValueError):
            speedup(10, 0)
        bad_inputs = [
            lambda: expected_read_seconds(1000, 1e6, setup_seconds=-1.0),
            lambda: expected_read_seconds(-1000, 1e6),
            lambda: expected_read_seconds(1000, 1e6, images_per_record=0),
            lambda: PipelineModel(1e6, 0.0).crossover_image_bytes(),
            lambda: PipelineModel(1e6, -1.0).loader_rate(1000),
            lambda: PipelineModel(0.0, 1.0).loader_rate(1000),
            lambda: PipelineModel(1e6, 1.0, images_per_record=0).loader_rate(1000),
            lambda: PipelineModel(1e6, 1.0, record_setup_seconds=-1.0).loader_rate(1000),
        ]
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                bad()
        # Unbounded compute is a valid model: only the link limits it.
        assert PipelineModel(1e6, math.inf, images_per_record=1).end_to_end_rate(1000) == pytest.approx(1000)


class TestPipelineModel:
    def _model(self):
        return PipelineModel(
            storage_bandwidth_bytes_per_second=400 * MiB,
            compute_images_per_second=7500,
            images_per_record=1024,
        )

    def test_io_bound_at_large_images(self):
        model = self._model()
        assert model.is_io_bound(110_000)
        assert not model.is_io_bound(10_000)

    def test_theorem_a5_speedup_equals_data_reduction_when_io_bound(self):
        model = self._model()
        # both sizes I/O bound: speedup equals the byte ratio
        assert model.speedup_over(220_000, 110_000) == pytest.approx(2.0, rel=1e-6)

    def test_speedup_capped_by_compute(self):
        model = self._model()
        crossover = model.crossover_image_bytes()
        capped = model.speedup_over(2 * crossover, crossover / 8)
        assert capped == pytest.approx(2.0, rel=1e-6)  # can't exceed compute-bound rate

    def test_epoch_seconds(self):
        model = self._model()
        seconds = model.epoch_seconds(110_000, 1_281_167)
        assert seconds == pytest.approx(1_281_167 / model.end_to_end_rate(110_000))

    def test_crossover_accounts_for_record_setup(self):
        # The paper's ShuffleNet cluster pays 10 ms per 1024-image record:
        # the loader reaches the compute rate exactly at the crossover, and
        # just below it the pipeline is compute bound.
        model = ClusterSpec.paper_shufflenet().pipeline()
        crossover = model.crossover_image_bytes()
        assert model.loader_rate(crossover) == pytest.approx(model.compute_images_per_second)
        assert not model.is_io_bound(0.99 * crossover)
        assert model.is_io_bound(1.01 * crossover)

    def test_crossover_matches_paper_ballpark(self):
        # 400 MiB/s and ~7500 img/s -> crossover around 56 kB/image, i.e. the
        # full-quality 110 kB ImageNet image is storage bound (as in the paper).
        model = self._model()
        assert 40_000 < model.crossover_image_bytes() < 70_000


class TestPredictionsAndDistributions:
    def test_predicted_throughput_matches_ratio(self):
        sizes = {1: 10_000.0, 5: 50_000.0, 10: 100_000.0}
        predictions = predicted_throughput_by_scan(sizes, full_quality_rate_images_per_second=4000)
        assert predictions[10] == pytest.approx(4000)
        assert predictions[5] == pytest.approx(8000)
        assert predictions[1] == pytest.approx(40_000)

    def test_empty_prediction(self):
        assert predicted_throughput_by_scan({}, 100) == {}

    def test_size_distribution_summary(self):
        rng = np.random.default_rng(0)
        sizes = list(rng.lognormal(np.log(110_000), 0.5, size=500).astype(int))
        summary = empirical_image_size_distribution(sizes)
        assert summary["min"] <= summary["p05"] <= summary["median"] <= summary["p95"] <= summary["max"]
        assert summary["mean"] > 0

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            empirical_image_size_distribution([])


class TestRoofline:
    def test_attainable_rate_is_min_of_roofs(self):
        model = _roofline(compute=7500, bandwidth=400 * MiB)
        assert model.end_to_end_rate(1_000) == pytest.approx(7500)
        big = 10 * MiB
        assert model.end_to_end_rate(big) == pytest.approx(400 * MiB / big)

    def test_ridge_point(self):
        model = _roofline(7500, 400 * MiB)
        ridge = model.crossover_image_bytes()
        assert model.end_to_end_rate(ridge) == pytest.approx(7500, rel=1e-9)

    def test_sweep_is_monotone_nonincreasing(self):
        model = _roofline(7500, 400 * MiB)
        rates = [model.end_to_end_rate(b) for b in np.logspace(3, 6, 32)]
        assert all(rates[i] >= rates[i + 1] - 1e-9 for i in range(len(rates) - 1))

    def test_annotate_scan_groups(self):
        model = _roofline(7500, 400 * MiB)
        assert not model.is_io_bound(11_000)  # group 1: compute-bound
        assert model.is_io_bound(110_000)  # group 10: io-bound


class TestTrainingSimulator:
    def _simulator(self, shufflenet=True):
        cluster = ClusterSpec.paper_shufflenet() if shufflenet else ClusterSpec.paper_resnet()
        return TrainingSimulator(cluster, n_train_images=1_281_167, eval_every_epochs=5)

    def test_cluster_aggregate_rates(self):
        assert ClusterSpec.paper_resnet().compute_images_per_second == pytest.approx(4450)
        assert ClusterSpec.paper_shufflenet().compute_images_per_second == pytest.approx(7500)

    def test_lower_scan_groups_train_faster(self):
        simulator = self._simulator()
        sizes = {1: 11_000, 2: 22_000, 5: 55_000, 10: 110_000}
        accuracies = {1: 0.55, 2: 0.62, 5: 0.66, 10: 0.67}
        runs = simulator.compare_scan_groups(sizes, accuracies, n_epochs=90)
        assert runs[1].epoch_seconds < runs[5].epoch_seconds < runs[10].epoch_seconds
        assert runs[5].final_accuracy > runs[1].final_accuracy

    def test_speedup_table_shape_matches_paper(self):
        # ShuffleNet on ImageNet: scan 5 (roughly half the bytes) gives ~2x;
        # the gains saturate once compute bound.
        simulator = self._simulator()
        speedups = simulator.speedup_table({1: 11_000, 2: 22_000, 5: 55_000, 10: 110_000})
        assert speedups[10] == pytest.approx(1.0)
        assert 1.7 < speedups[5] <= 2.1
        assert speedups[1] <= speedups[2] * 1.01 or speedups[1] >= speedups[2]

    def test_resnet_speedups_smaller_than_shufflenet(self):
        sizes = {5: 55_000, 10: 110_000}
        shufflenet_speedup = self._simulator(True).speedup_table(sizes)[5]
        resnet_speedup = self._simulator(False).speedup_table(sizes)[5]
        assert shufflenet_speedup >= resnet_speedup

    def test_time_to_accuracy_improves_with_compression(self):
        simulator = self._simulator()
        runs = simulator.compare_scan_groups(
            {5: 55_000, 10: 110_000}, {5: 0.66, 10: 0.67}, n_epochs=90
        )
        target = 0.6
        assert runs[5].time_to_accuracy(target) < runs[10].time_to_accuracy(target)

    def test_unreachable_accuracy_returns_none(self):
        simulator = self._simulator()
        runs = simulator.compare_scan_groups({10: 110_000}, {10: 0.5}, n_epochs=10)
        assert runs[10].time_to_accuracy(0.9) is None

    def test_saturating_curve_properties(self):
        curve = saturating_accuracy_curve(0.7, time_constant_epochs=10)
        assert curve(0) < curve(10) < curve(100)
        assert curve(300) == pytest.approx(0.7, abs=1e-3)

    def test_mssim_degraded_accuracy(self):
        assert mssim_degraded_accuracy(0.7, 1.0) == pytest.approx(0.7)
        assert mssim_degraded_accuracy(0.7, 0.9, sensitivity=2.0) < mssim_degraded_accuracy(
            0.7, 0.9, sensitivity=0.5
        )
        assert mssim_degraded_accuracy(0.7, 0.0, sensitivity=5.0) == 0.0
