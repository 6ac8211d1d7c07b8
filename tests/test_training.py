"""Tests for the numpy training substrate: layers, losses, optimizers, models, loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline.batch import collate
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.training.gradients import cosine_similarity, scan_group_gradient_similarities
from repro.training.layers import (
    BatchNorm2d,
    ChannelShuffle,
    Conv2d,
    Flatten,
    GlobalAveragePool,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
    ShuffleBlock,
)
from repro.training.losses import softmax, softmax_cross_entropy
from repro.training.loop import Trainer
from repro.training.metrics import top_1_accuracy, top_k_accuracy
from repro.training.models import LinearProbe, SmallCNN, TinyResNet, TinyShuffleNet
from repro.training.optim import SGD, WarmupStepSchedule


def numerical_gradient(function, array, epsilon=1e-5):
    """Central-difference gradient of a scalar function of ``array``."""
    gradient = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function()
        flat[index] = original - epsilon
        minus = function()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


class TestLayerGradients:
    """Analytic backward passes are checked against finite differences."""

    def _check_input_gradient(self, layer, inputs, tolerance=1e-5):
        def loss():
            return float(np.sum(layer.forward(inputs) ** 2))

        output = layer.forward(inputs)
        analytic = layer.backward(2.0 * output)
        numeric = numerical_gradient(loss, inputs)
        assert np.allclose(analytic, numeric, atol=tolerance, rtol=1e-3)

    def _check_param_gradient(self, layer, inputs, name, tolerance=1e-5):
        def loss():
            return float(np.sum(layer.forward(inputs) ** 2))

        output = layer.forward(inputs)
        layer.backward(2.0 * output)
        analytic = layer.grads[name]
        numeric = numerical_gradient(loss, layer.params[name])
        assert np.allclose(analytic, numeric, atol=tolerance, rtol=1e-3)

    def test_linear_gradients(self):
        rng = np.random.default_rng(0)
        layer = Linear(6, 4, seed=1)
        inputs = rng.normal(size=(3, 6))
        self._check_input_gradient(layer, inputs)
        self._check_param_gradient(layer, inputs, "weight")
        self._check_param_gradient(layer, inputs, "bias")

    def test_conv_gradients(self):
        rng = np.random.default_rng(1)
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, seed=2)
        inputs = rng.normal(size=(2, 2, 5, 5))
        self._check_input_gradient(layer, inputs)
        self._check_param_gradient(layer, inputs, "weight")
        self._check_param_gradient(layer, inputs, "bias")

    def test_strided_conv_gradients(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, seed=3)
        inputs = rng.normal(size=(1, 2, 6, 6))
        self._check_input_gradient(layer, inputs)
        self._check_param_gradient(layer, inputs, "weight")

    def test_relu_gradient(self):
        rng = np.random.default_rng(3)
        self._check_input_gradient(ReLU(), rng.normal(size=(2, 3, 4, 4)) + 0.1)

    def test_global_average_pool_gradient(self):
        rng = np.random.default_rng(4)
        self._check_input_gradient(GlobalAveragePool(), rng.normal(size=(2, 3, 4, 4)))

    def test_maxpool_gradient(self):
        rng = np.random.default_rng(5)
        # avoid ties so the max mask is unambiguous
        inputs = rng.permutation(2 * 2 * 4 * 4).reshape(2, 2, 4, 4).astype(float)
        self._check_input_gradient(MaxPool2d(2), inputs, tolerance=1e-4)

    def test_batchnorm_gradient(self):
        rng = np.random.default_rng(6)
        layer = BatchNorm2d(3)
        inputs = rng.normal(size=(4, 3, 3, 3))
        self._check_input_gradient(layer, inputs, tolerance=1e-4)
        self._check_param_gradient(layer, inputs, "gamma", tolerance=1e-4)
        self._check_param_gradient(layer, inputs, "beta", tolerance=1e-4)

    def test_channel_shuffle_is_a_permutation(self):
        rng = np.random.default_rng(7)
        layer = ChannelShuffle(2)
        inputs = rng.normal(size=(2, 4, 3, 3))
        output = layer.forward(inputs)
        restored = layer.backward(output)
        assert np.allclose(restored, inputs)

    def test_residual_block_gradient(self):
        rng = np.random.default_rng(8)
        block = ResidualBlock(2, 4, stride=2, seed=9)
        inputs = rng.normal(size=(2, 2, 6, 6))
        self._check_input_gradient(block, inputs, tolerance=1e-4)

    def test_shuffle_block_gradient(self):
        rng = np.random.default_rng(9)
        block = ShuffleBlock(4, stride=1, seed=10)
        inputs = rng.normal(size=(2, 4, 6, 6))
        self._check_input_gradient(block, inputs, tolerance=1e-4)


class TestLayerBehaviour:
    def test_conv_output_shape(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        output = layer.forward(np.zeros((2, 3, 16, 16)))
        assert output.shape == (2, 8, 8, 8)

    def test_maxpool_output_shape(self):
        assert MaxPool2d(2).forward(np.zeros((1, 2, 9, 9))).shape == (1, 2, 4, 4)

    def test_batchnorm_normalizes_in_training(self):
        rng = np.random.default_rng(10)
        layer = BatchNorm2d(2)
        output = layer.forward(rng.normal(5.0, 3.0, size=(8, 2, 4, 4)))
        assert abs(output.mean()) < 1e-6
        assert abs(output.std() - 1.0) < 1e-2

    def test_batchnorm_uses_running_stats_in_eval(self):
        rng = np.random.default_rng(11)
        layer = BatchNorm2d(2, momentum=0.0)
        train_inputs = rng.normal(2.0, 1.0, size=(16, 2, 4, 4))
        layer.forward(train_inputs)
        layer.set_training(False)
        output = layer.forward(np.full((2, 2, 4, 4), 2.0))
        assert np.allclose(output.mean(axis=(0, 2, 3)), -layer.running_mean * 0 + (2.0 - layer.running_mean) / np.sqrt(layer.running_var + layer.epsilon), atol=1e-6)

    def test_flatten_roundtrip(self):
        layer = Flatten()
        inputs = np.arange(24.0).reshape(2, 3, 2, 2)
        assert layer.forward(inputs).shape == (2, 12)
        assert layer.backward(layer.forward(inputs)).shape == inputs.shape

    def test_sequential_collects_parameter_layers(self):
        network = Sequential([Conv2d(1, 2, 3), ReLU(), Linear(4, 2)])
        assert len(network.parameter_layers()) == 2

    def test_channel_shuffle_rejects_indivisible(self):
        with pytest.raises(ValueError):
            ChannelShuffle(3).forward(np.zeros((1, 4, 2, 2)))


class TestLossesAndMetrics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        probabilities = softmax(rng.normal(size=(5, 7)))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_cross_entropy_gradient_matches_numerical(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        _, gradient = softmax_cross_entropy(logits, labels)

        def loss_at(perturbed):
            value, _ = softmax_cross_entropy(perturbed, labels)
            return value

        numeric = np.zeros_like(logits)
        epsilon = 1e-6
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                perturbed = logits.copy()
                perturbed[i, j] += epsilon
                plus = loss_at(perturbed)
                perturbed[i, j] -= 2 * epsilon
                minus = loss_at(perturbed)
                numeric[i, j] = (plus - minus) / (2 * epsilon)
        assert np.allclose(gradient, numeric, atol=1e-6)

    def test_uniform_logits_give_log_n_classes(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 2]))
        assert loss == pytest.approx(np.log(4))

    def test_rejects_non_2d_logits(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(4), np.array([0]))

    def test_top_k_accuracy(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1]])
        labels = np.array([0, 0])
        assert top_1_accuracy(logits, labels) == pytest.approx(0.5)
        assert top_k_accuracy(logits, labels, k=2) == pytest.approx(1.0)

    def test_top_k_larger_than_classes(self):
        logits = np.array([[0.2, 0.8]])
        assert top_k_accuracy(logits, np.array([0]), k=10) == 1.0


class TestOptimizerAndSchedule:
    def test_sgd_moves_against_gradient(self):
        layer = Linear(2, 2, seed=0)
        layer.grads["weight"] = np.ones_like(layer.params["weight"])
        layer.grads["bias"] = np.ones_like(layer.params["bias"])
        before = layer.params["weight"].copy()
        SGD(learning_rate=0.1, momentum=0.0, weight_decay=0.0).step([layer])
        assert np.allclose(layer.params["weight"], before - 0.1)

    def test_momentum_accumulates(self):
        layer = Linear(1, 1, seed=0)
        optimizer = SGD(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        deltas = []
        for _ in range(3):
            before = layer.params["weight"].copy()
            layer.grads["weight"] = np.ones_like(before)
            layer.grads["bias"] = np.zeros_like(layer.params["bias"])
            optimizer.step([layer])
            deltas.append(float(np.abs(layer.params["weight"] - before).sum()))
        assert deltas[1] > deltas[0]
        assert deltas[2] > deltas[1]

    def test_weight_decay_only_on_matrices(self):
        layer = Linear(2, 2, seed=0)
        layer.grads["weight"] = np.zeros_like(layer.params["weight"])
        layer.grads["bias"] = np.zeros_like(layer.params["bias"])
        before_bias = layer.params["bias"].copy()
        before_weight = layer.params["weight"].copy()
        SGD(learning_rate=0.1, momentum=0.0, weight_decay=0.5).step([layer])
        assert np.allclose(layer.params["bias"], before_bias)
        assert not np.allclose(layer.params["weight"], before_weight)

    def test_warmup_step_schedule(self):
        schedule = WarmupStepSchedule(base_learning_rate=0.1, warmup_epochs=5, milestones=(30, 60))
        assert schedule.learning_rate(0) == pytest.approx(0.02)
        assert schedule.learning_rate(4) == pytest.approx(0.1)
        assert schedule.learning_rate(10) == pytest.approx(0.1)
        assert schedule.learning_rate(30) == pytest.approx(0.01)
        assert schedule.learning_rate(60) == pytest.approx(0.001)


class TestModelsAndTrainer:
    def _toy_batch(self, n=16, size=16, n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, size=n)
        images = np.zeros((n, size, size, 3), dtype=np.float32)
        for index, label in enumerate(labels):
            images[index, :, :, label % 3] = (label + 1) / n_classes
            images[index] += rng.normal(0, 0.02, size=(size, size, 3))
        return collate(list(images), list(labels))

    @pytest.mark.parametrize("model_class", [TinyResNet, TinyShuffleNet, SmallCNN])
    def test_forward_shapes(self, model_class):
        model = model_class(n_classes=5, width=8)
        logits = model.forward(np.zeros((2, 16, 16, 3), dtype=np.float32))
        assert logits.shape == (2, 5)

    def test_linear_probe_shape(self):
        model = LinearProbe(n_classes=4, input_size=8)
        assert model.forward(np.zeros((3, 8, 8, 3))).shape == (3, 4)

    def test_resnet_costs_more_than_shufflenet(self):
        assert TinyResNet.relative_compute_cost > TinyShuffleNet.relative_compute_cost

    def test_training_reduces_loss_on_separable_data(self):
        batch = self._toy_batch(n=24, n_classes=3)
        model = SmallCNN(n_classes=3, width=8)
        trainer = Trainer(model, SGD(learning_rate=0.1, momentum=0.9, weight_decay=0.0))
        first_loss, _ = trainer.train_step(batch)
        for _ in range(30):
            loss, accuracy = trainer.train_step(batch)
        assert loss < first_loss
        assert accuracy > 0.8

    def test_checkpoint_and_rollback(self):
        model = SmallCNN(n_classes=3, width=8)
        trainer = Trainer(model, SGD(learning_rate=0.1))
        state = trainer.checkpoint()
        batch = self._toy_batch()
        for _ in range(3):
            trainer.train_step(batch)
        changed_logits = model.forward(batch.images)
        trainer.rollback(state)
        restored_logits = model.forward(batch.images)
        assert not np.allclose(changed_logits, restored_logits)
        # Rolling back twice is idempotent.
        trainer.rollback(state)
        assert np.allclose(model.forward(batch.images), restored_logits)

    def test_state_dict_mismatch_rejected(self):
        model_a = SmallCNN(n_classes=3, width=8)
        model_b = LinearProbe(n_classes=3, input_size=8)
        with pytest.raises(ValueError):
            model_b.load_state_dict(model_a.state_dict())

    def test_trainer_with_loader_and_schedule(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1, seed=1))
        model = LinearProbe(n_classes=4, input_size=32)
        trainer = Trainer(model, SGD(learning_rate=0.05), WarmupStepSchedule(0.05, warmup_epochs=1))
        loader.set_scan_group(4)
        result = trainer.train_epoch(loader, test_loader=loader)
        assert result.images_per_second > 0
        assert result.test_accuracy is not None
        assert trainer.history.epochs[0].scan_group == 4  # the loader's, not the source's

    def test_history_time_to_accuracy(self, pcr_dataset):
        loader = DataLoader(pcr_dataset, LoaderConfig(batch_size=8, n_workers=1, seed=2))
        model = LinearProbe(n_classes=4, input_size=32)
        trainer = Trainer(model, SGD(learning_rate=0.1, momentum=0.9))
        history = trainer.fit(loader, n_epochs=4, test_loader=loader)
        assert len(history.epochs) == 4
        assert history.final_test_accuracy is not None
        assert history.total_wall_seconds() > 0
        # time_to_accuracy is None for unreachable targets
        assert history.time_to_accuracy(1.1) is None

    def test_gradient_vector_is_consistent_shape(self):
        model = SmallCNN(n_classes=3, width=8)
        trainer = Trainer(model)
        batch = self._toy_batch(n=8)
        gradient_a = trainer.gradient_vector(batch)
        gradient_b = trainer.gradient_vector(batch)
        assert gradient_a.shape == gradient_b.shape
        assert cosine_similarity(gradient_a, gradient_b) == pytest.approx(1.0)


class TestGradientSimilarity:
    def test_cosine_similarity_basics(self):
        a = np.array([1.0, 0.0])
        assert cosine_similarity(a, a) == pytest.approx(1.0)
        assert cosine_similarity(a, np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert cosine_similarity(a, -a) == pytest.approx(-1.0)
        assert cosine_similarity(a, np.zeros(2)) == 0.0

    def test_scan_group_similarity_increases_with_quality(self, pcr_dataset):
        model = LinearProbe(n_classes=4, input_size=32)
        trainer = Trainer(model)
        similarities = scan_group_gradient_similarities(
            trainer, pcr_dataset, scan_groups=[1, 5, 10], max_samples=12
        )
        assert similarities[10] == pytest.approx(1.0, abs=1e-9)
        assert similarities[1] <= similarities[5] + 0.05
        assert pcr_dataset.scan_group == 10  # probes pass their group; nothing switched
