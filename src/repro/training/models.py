"""Model architectures.

``TinyResNet`` and ``TinyShuffleNet`` are reduced-depth analogues of the
paper's ResNet-18 and ShuffleNetv2: the ResNet variant is parameter-heavier
and slower per image, the ShuffleNet variant is lighter and faster — the
property that makes ShuffleNet more storage-bandwidth bound in the paper's
experiments.  ``SmallCNN`` and ``LinearProbe`` are cheaper models used where
training cost, not architecture fidelity, matters.
"""

from __future__ import annotations

import numpy as np

from repro.training.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAveragePool,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
    ShuffleBlock,
)


class Model:
    """A classifier over NHWC image batches."""

    #: Relative single-image compute cost, used by the throughput simulator to
    #: map model choice to images/second (ResNet-18 : ShuffleNetv2 is roughly
    #: 760/405 in the paper's cluster).
    relative_compute_cost = 1.0

    def __init__(self, network: Sequential, n_classes: int) -> None:
        self.network = network
        self.n_classes = n_classes

    def forward(self, images_nhwc: np.ndarray) -> np.ndarray:
        """Compute logits for an (N, H, W, C) batch scaled to [0, 1]."""
        inputs = np.transpose(np.asarray(images_nhwc, dtype=np.float64), (0, 3, 1, 2))
        return self.network.forward(inputs)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the logits."""
        self.network.backward(grad_logits)

    def set_training(self, training: bool) -> None:
        """Toggle training/evaluation mode (affects batch norm)."""
        self.network.set_training(training)

    def parameter_layers(self) -> list[Layer]:
        """All layers owning parameters."""
        return self.network.parameter_layers()

    # -- checkpointing (needed by the dynamic autotuner's rollback) ---------

    def state_dict(self) -> list[dict[str, np.ndarray]]:
        """Copy every parameter tensor."""
        return [
            {name: parameter.copy() for name, parameter in layer.params.items()}
            for layer in self.parameter_layers()
        ]

    def load_state_dict(self, state: list[dict[str, np.ndarray]]) -> None:
        """Restore parameters captured by :meth:`state_dict`."""
        layers = self.parameter_layers()
        if len(layers) != len(state):
            raise ValueError("state does not match the model's layer structure")
        for layer, saved in zip(layers, state):
            for name, value in saved.items():
                layer.params[name] = value.copy()


class TinyResNet(Model):
    """A small residual network (the ResNet-18 analogue)."""

    relative_compute_cost = 760.0 / 405.0  # ~1.88x slower per image than ShuffleNet

    def __init__(self, n_classes: int, in_channels: int = 3, width: int = 16, seed: int = 0) -> None:
        network = Sequential(
            [
                Conv2d(in_channels, width, 3, stride=1, padding=1, seed=seed),
                BatchNorm2d(width),
                ReLU(),
                MaxPool2d(2),
                ResidualBlock(width, width, stride=1, seed=seed + 10),
                ResidualBlock(width, 2 * width, stride=2, seed=seed + 20),
                ResidualBlock(2 * width, 2 * width, stride=1, seed=seed + 30),
                GlobalAveragePool(),
                Linear(2 * width, n_classes, seed=seed + 40),
            ]
        )
        super().__init__(network, n_classes)


class TinyShuffleNet(Model):
    """A small channel-shuffle network (the ShuffleNetv2 analogue)."""

    relative_compute_cost = 1.0

    def __init__(self, n_classes: int, in_channels: int = 3, width: int = 16, seed: int = 0) -> None:
        network = Sequential(
            [
                Conv2d(in_channels, width, 3, stride=2, padding=1, seed=seed),
                BatchNorm2d(width),
                ReLU(),
                ShuffleBlock(width, stride=1, seed=seed + 10),
                ShuffleBlock(width, stride=2, seed=seed + 20),
                ShuffleBlock(width, stride=1, seed=seed + 30),
                GlobalAveragePool(),
                Linear(width, n_classes, seed=seed + 40),
            ]
        )
        super().__init__(network, n_classes)


class SmallCNN(Model):
    """A two-conv CNN for fast experiments."""

    relative_compute_cost = 0.5

    def __init__(self, n_classes: int, in_channels: int = 3, width: int = 12, seed: int = 0) -> None:
        network = Sequential(
            [
                Conv2d(in_channels, width, 3, stride=2, padding=1, seed=seed),
                BatchNorm2d(width),
                ReLU(),
                Conv2d(width, 2 * width, 3, stride=2, padding=1, seed=seed + 1),
                BatchNorm2d(2 * width),
                ReLU(),
                GlobalAveragePool(),
                Linear(2 * width, n_classes, seed=seed + 2),
            ]
        )
        super().__init__(network, n_classes)


class LinearProbe(Model):
    """A single linear layer over flattened pixels (fastest possible model)."""

    relative_compute_cost = 0.1

    def __init__(self, n_classes: int, input_size: int, in_channels: int = 3, seed: int = 0) -> None:
        network = Sequential(
            [
                Flatten(),
                Linear(input_size * input_size * in_channels, n_classes, seed=seed),
            ]
        )
        super().__init__(network, n_classes)
