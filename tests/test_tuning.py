"""Tests for static tuning, dynamic controllers, mixtures, and schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import PCRDataset
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.server import PCRRecordServer
from repro.training.loop import Trainer
from repro.training.models import LinearProbe
from repro.training.optim import SGD
from repro.tuning.dynamic import GradientCosineController, LossPlateauController
from repro.tuning.mixture import MixturePolicy
from repro.tuning.schedule import ConstantSchedule, CyclicSchedule, StepSchedule
from repro.tuning.static import StaticTuner


@pytest.fixture(scope="module")
def local_and_remote(pcr_dataset):
    """The session dataset as a local source and as a served one: the tuners
    see a ``RecordSource`` and must not care which.  (A loop in the test
    body, not a pytest parameter, so the tier-1 test ids stay stable.)"""
    with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
        with RemoteRecordSource(port=server.port) as remote:
            yield (pcr_dataset, remote)


class TestStaticTuner:
    def test_report_structure(self, local_and_remote):
        for dataset in local_and_remote:
            tuner = StaticTuner(dataset, sample_limit=4)
            report = tuner.analyze()
            assert set(report.mssim_by_group) == set(range(1, 11))
            assert report.mssim_by_group[10] == pytest.approx(1.0, abs=1e-6)
            assert report.recommended_group is not None
            assert report.speedup_by_group[10] == pytest.approx(1.0)
            assert report.speedup_by_group[1] > 1.5

    def test_mssim_monotone_enough(self, pcr_dataset):
        report = StaticTuner(pcr_dataset, sample_limit=4).analyze()
        assert report.mssim_by_group[1] < report.mssim_by_group[5] <= report.mssim_by_group[10] + 1e-9

    def test_recommendation_respects_threshold(self, pcr_dataset):
        strict = StaticTuner(pcr_dataset, mssim_threshold=0.999, sample_limit=4)
        lenient = StaticTuner(pcr_dataset, mssim_threshold=0.2, sample_limit=4)
        assert strict.analyze().recommended_group >= lenient.analyze().recommended_group

    def test_impossible_threshold_falls_back_to_baseline(self, pcr_dataset):
        tuner = StaticTuner(pcr_dataset, mssim_threshold=1.5, sample_limit=2)
        assert tuner.analyze().recommended_group == pcr_dataset.n_groups

    def test_summary_rows(self, pcr_dataset):
        report = StaticTuner(pcr_dataset, sample_limit=2).analyze()
        rows = report.summary_rows()
        assert len(rows) == 10
        assert rows[0][0] == 1 and rows[-1][0] == 10


class TestLossPlateauController:
    def test_plateau_detection(self):
        controller = LossPlateauController(candidate_groups=[1, 5], plateau_patience=2)
        assert not controller.observe_loss(1.0)
        assert not controller.observe_loss(0.8)
        assert not controller.observe_loss(0.6)
        # losses stop improving
        controller.observe_loss(0.6)
        assert controller.observe_loss(0.6)

    def test_tune_rolls_model_back_and_picks_a_group(self, local_and_remote):
        for dataset in local_and_remote:
            loader = DataLoader(dataset, LoaderConfig(batch_size=8, n_workers=1, seed=3))
            model = LinearProbe(n_classes=4, input_size=32)
            trainer = Trainer(model, SGD(learning_rate=0.05))
            state_before = trainer.checkpoint()
            controller = LossPlateauController(
                candidate_groups=[1, 5], probe_batches=1, loss_slack=10.0
            )
            decision = controller.tune(trainer, loader, epoch=3)
            assert decision.chosen_group in {1, 5, 10}
            assert loader.scan_group == decision.chosen_group
            assert dataset.scan_group == 10  # the source was never switched
            # the probing updates were rolled back
            for layer_state, layer_now in zip(state_before, trainer.checkpoint()):
                for name in layer_state:
                    assert np.allclose(layer_state[name], layer_now[name])

    def test_generous_slack_prefers_smallest_group(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1, seed=4))
        trainer = Trainer(LinearProbe(n_classes=4, input_size=32), SGD(learning_rate=0.01))
        controller = LossPlateauController(candidate_groups=[1, 5], probe_batches=1, loss_slack=100.0)
        decision = controller.tune(trainer, loader, epoch=0)
        assert decision.chosen_group == 1


class TestGradientCosineController:
    def test_threshold_controls_choice(self, local_and_remote):
        for dataset in local_and_remote:
            loader = DataLoader(dataset)
            trainer = Trainer(LinearProbe(n_classes=4, input_size=32))
            lenient = GradientCosineController(
                candidate_groups=[1, 5, 10], similarity_threshold=0.0, max_samples=8
            )
            decision = lenient.tune(trainer, loader, epoch=0)
            assert decision.chosen_group == 1 == loader.scan_group
            strict = GradientCosineController(
                candidate_groups=[1, 5, 10], similarity_threshold=0.999999, max_samples=8
            )
            decision = strict.tune(trainer, loader, epoch=1)
            assert decision.chosen_group >= 5
            assert decision.inputs[10] == pytest.approx(1.0, abs=1e-9)

    def test_decisions_are_recorded(self, pcr_dataset):
        loader = DataLoader(pcr_dataset)
        trainer = Trainer(LinearProbe(n_classes=4, input_size=32))
        controller = GradientCosineController(candidate_groups=[1, 10], similarity_threshold=0.9, max_samples=8)
        controller.tune(trainer, loader, epoch=0)
        controller.tune(trainer, loader, epoch=5)
        assert len(controller.decisions) == 2
        first, second = controller.decisions
        assert (first.interval, second.interval) == (0, 5)
        assert first.previous_group == 10 and first.reason
        assert second.previous_group == first.chosen_group
        assert second.direction == "hold"

    def test_the_switch_reaches_a_label_view_the_loader_reads(self, pcr_dataset):
        """The tuner switches the loader it was handed, so a make-only view
        under that loader reads at the chosen group from the next epoch on."""
        with PCRDataset(pcr_dataset.reader.directory) as dataset:
            view = dataset.with_label_mapper(lambda label: label % 2)
            loader = DataLoader(view, LoaderConfig(batch_size=8, n_workers=1))
            trainer = Trainer(LinearProbe(n_classes=4, input_size=32))
            GradientCosineController([1, 10], similarity_threshold=0.0, max_samples=8).tune(
                trainer, loader, epoch=0
            )
            before = view.stats.bytes_read
            list(loader.epoch())
            assert view.stats.bytes_read - before == dataset.epoch_bytes(1)

    def test_offline_and_online_decisions_are_one_record(self, pcr_dataset):
        from repro.control import ClientControlState, ClientTelemetry, StallTargetPolicy
        from repro.core.scan_groups import ScanGroupDecision

        trainer = Trainer(LinearProbe(n_classes=4, input_size=32))
        offline = GradientCosineController(
            candidate_groups=[1, 10], similarity_threshold=0.0, max_samples=8
        ).tune(trainer, DataLoader(pcr_dataset), epoch=2)
        online = StallTargetPolicy().decide(
            ClientTelemetry(scan_group=10, n_groups=10),
            ClientControlState(),
            0,
        )
        assert type(offline) is type(online) is ScanGroupDecision
        assert (offline.previous_group, offline.chosen_group, offline.direction) == (10, 1, "down")
        assert (online.previous_group, online.chosen_group, online.direction) == (10, 10, "hold")
        assert offline.reason and online.reason
        assert set(offline.to_payload()) == set(online.to_payload())


class TestMixturePolicy:
    def test_point_mass(self):
        policy = MixturePolicy.point_mass(3, 10)
        assert policy.selection_probability(3) == 1.0
        assert policy.selection_probability(1) == 0.0

    def test_weighted_probabilities_match_paper(self):
        # weight 10 over 10 groups -> selected probability 10/19 (~50%)
        policy_50 = MixturePolicy.weighted(1, 10, selected_weight=10.0)
        assert policy_50.selection_probability(1) == pytest.approx(10 / 19)
        # weight ~100 -> ~85-92%
        policy_85 = MixturePolicy.weighted(1, 10, selected_weight=100.0)
        assert policy_85.selection_probability(1) > 0.85

    def test_uniform(self):
        policy = MixturePolicy.uniform(5)
        assert policy.selection_probability(2) == pytest.approx(0.2)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            MixturePolicy((0.5, 0.6))
        with pytest.raises(ValueError):
            MixturePolicy((1.5, -0.5))
        with pytest.raises(ValueError):
            MixturePolicy.weighted(0, 10)

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(0)
        policy = MixturePolicy.weighted(2, 10, selected_weight=10.0)
        draws = [policy.sample_group(rng) for _ in range(3000)]
        frequency = draws.count(2) / len(draws)
        assert abs(frequency - 10 / 19) < 0.05
        assert set(draws) <= set(range(1, 11))

    def test_expected_bytes_is_continuous_control(self):
        sizes = {group: group * 10_000.0 for group in range(1, 11)}
        low = MixturePolicy.weighted(1, 10, 100.0).expected_bytes(sizes)
        high = MixturePolicy.weighted(10, 10, 100.0).expected_bytes(sizes)
        uniform = MixturePolicy.uniform(10).expected_bytes(sizes)
        assert low < uniform < high


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(group=5)
        assert schedule.group_for_epoch(0) == schedule.group_for_epoch(99) == 5

    def test_step_schedule(self):
        schedule = StepSchedule(milestones=((0, 10), (5, 2), (20, 5)))
        assert schedule.group_for_epoch(0) == 10
        assert schedule.group_for_epoch(4) == 10
        assert schedule.group_for_epoch(5) == 2
        assert schedule.group_for_epoch(25) == 5

    def test_step_schedule_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(milestones=())
        with pytest.raises(ValueError):
            StepSchedule(milestones=((5, 1), (0, 2)))

    def test_cyclic_schedule(self):
        schedule = CyclicSchedule(groups=(1, 5, 10), epochs_per_group=2)
        assert [schedule.group_for_epoch(e) for e in range(8)] == [1, 1, 5, 5, 10, 10, 1, 1]

    def test_cyclic_validation(self):
        with pytest.raises(ValueError):
            CyclicSchedule(groups=())
        with pytest.raises(ValueError):
            CyclicSchedule(groups=(1,), epochs_per_group=0)
