"""Training loop with history, evaluation, and checkpoint/rollback.

The :class:`Trainer` iterates a :class:`~repro.pipeline.loader.DataLoader`,
applies SGD with the warmup/step schedule, records per-epoch loss, accuracy,
and wall-clock time (the raw material of the time-to-accuracy figures), and
supports checkpoint + rollback, which the dynamic autotuner uses when a scan
group turns out to be too aggressive (Section 4.5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.pipeline.batch import Minibatch
from repro.pipeline.loader import DataLoader
from repro.training.losses import softmax_cross_entropy
from repro.training.metrics import top_1_accuracy
from repro.training.models import Model
from repro.training.optim import SGD, WarmupStepSchedule


@dataclass(frozen=True)
class EpochResult:
    """Metrics of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    wall_seconds: float
    images_per_second: float
    scan_group: int | None = None
    test_accuracy: float | None = None


@dataclass
class TrainingHistory:
    """The sequence of epoch results of one run."""

    epochs: list[EpochResult] = field(default_factory=list)

    def append(self, result: EpochResult) -> None:
        self.epochs.append(result)

    @property
    def final_test_accuracy(self) -> float | None:
        """Last recorded test accuracy."""
        for result in reversed(self.epochs):
            if result.test_accuracy is not None:
                return result.test_accuracy
        return None

    @property
    def best_test_accuracy(self) -> float | None:
        """Best recorded test accuracy."""
        values = [r.test_accuracy for r in self.epochs if r.test_accuracy is not None]
        return max(values) if values else None

    def total_wall_seconds(self) -> float:
        """Total training wall time."""
        return sum(result.wall_seconds for result in self.epochs)

    def time_to_accuracy(self, target: float) -> float | None:
        """Cumulative wall time until test accuracy first reaches ``target``."""
        elapsed = 0.0
        for result in self.epochs:
            elapsed += result.wall_seconds
            if result.test_accuracy is not None and result.test_accuracy >= target:
                return elapsed
        return None

    def loss_curve(self) -> list[tuple[int, float]]:
        """(epoch, train loss) pairs."""
        return [(result.epoch, result.train_loss) for result in self.epochs]

    def accuracy_curve(self) -> list[tuple[int, float]]:
        """(epoch, test accuracy) pairs for epochs that were evaluated."""
        return [
            (result.epoch, result.test_accuracy)
            for result in self.epochs
            if result.test_accuracy is not None
        ]


class Trainer:
    """Trains a model from a data loader."""

    def __init__(
        self,
        model: Model,
        optimizer: SGD | None = None,
        schedule: WarmupStepSchedule | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer if optimizer is not None else SGD(learning_rate=0.05)
        self.schedule = schedule
        self.history = TrainingHistory()
        self._epoch = 0

    # -- single steps ------------------------------------------------------------

    def train_step(self, batch: Minibatch) -> tuple[float, float]:
        """One SGD update; returns (loss, accuracy) on the batch."""
        layers = self.model.parameter_layers()
        self.optimizer.zero_grad(layers)
        logits = self.model.forward(batch.images)
        loss, grad = softmax_cross_entropy(logits, batch.labels)
        self.model.backward(grad)
        self.optimizer.step(layers)
        return loss, top_1_accuracy(logits, batch.labels)

    def evaluate(self, loader: DataLoader) -> float:
        """Top-1 accuracy over a loader's epoch (no parameter updates)."""
        self.model.set_training(False)
        correct_weighted = 0.0
        total = 0
        for batch in loader.epoch():
            logits = self.model.forward(batch.images)
            correct_weighted += top_1_accuracy(logits, batch.labels) * len(batch)
            total += len(batch)
        self.model.set_training(True)
        return correct_weighted / total if total else 0.0

    def batch_loss(self, batch: Minibatch) -> float:
        """Loss of a batch without updating parameters."""
        self.model.set_training(False)
        logits = self.model.forward(batch.images)
        loss, _ = softmax_cross_entropy(logits, batch.labels)
        self.model.set_training(True)
        return loss

    def gradient_vector(self, batch: Minibatch) -> np.ndarray:
        """Flattened parameter gradient of the loss on ``batch`` (no update)."""
        layers = self.model.parameter_layers()
        self.optimizer.zero_grad(layers)
        logits = self.model.forward(batch.images)
        _, grad = softmax_cross_entropy(logits, batch.labels)
        self.model.backward(grad)
        pieces = []
        for layer in layers:
            for name in sorted(layer.params):
                gradient = layer.grads.get(name)
                pieces.append(
                    gradient.ravel() if gradient is not None else np.zeros(layer.params[name].size)
                )
        return np.concatenate(pieces)

    # -- epochs -------------------------------------------------------------------

    def train_epoch(
        self,
        loader: DataLoader,
        test_loader: DataLoader | None = None,
        extra_seconds_per_image: float = 0.0,
    ) -> EpochResult:
        """Train for one epoch and append the result to the history.

        The result records the scan group the loader read at, as it stood
        when the epoch began.

        ``extra_seconds_per_image`` lets callers charge simulated I/O time on
        top of the measured compute time (used when the loader is backed by a
        simulated storage device rather than the local filesystem).
        """
        if self.schedule is not None:
            self.optimizer.learning_rate = self.schedule.learning_rate(self._epoch)
        self.model.set_training(True)
        scan_group = loader.scan_group
        start = time.perf_counter()
        losses: list[float] = []
        accuracies: list[float] = []
        n_images = 0
        for batch in loader.epoch():
            loss, accuracy = self.train_step(batch)
            losses.append(loss)
            accuracies.append(accuracy)
            n_images += len(batch)
        wall = time.perf_counter() - start + extra_seconds_per_image * n_images
        test_accuracy = self.evaluate(test_loader) if test_loader is not None else None
        result = EpochResult(
            epoch=self._epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            train_accuracy=float(np.mean(accuracies)) if accuracies else float("nan"),
            wall_seconds=wall,
            images_per_second=n_images / wall if wall > 0 else 0.0,
            scan_group=scan_group,
            test_accuracy=test_accuracy,
        )
        self.history.append(result)
        self._epoch += 1
        return result

    def fit(
        self,
        loader: DataLoader,
        n_epochs: int,
        test_loader: DataLoader | None = None,
    ) -> TrainingHistory:
        """Train for ``n_epochs`` epochs."""
        for _ in range(n_epochs):
            self.train_epoch(loader, test_loader=test_loader)
        return self.history

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self) -> list[dict[str, np.ndarray]]:
        """Capture the model parameters."""
        return self.model.state_dict()

    def rollback(self, state: list[dict[str, np.ndarray]]) -> None:
        """Restore parameters captured by :meth:`checkpoint`."""
        self.model.load_state_dict(state)
