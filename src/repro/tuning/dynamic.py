"""Dynamic (runtime) scan-group autotuning (Section 4.5, §A.6.2).

Two controllers are provided:

* :class:`LossPlateauController` — the simple heuristic of Section 4.5:
  train at full quality until the loss plateaus, then checkpoint and probe
  each candidate scan group for a few iterations, adopting the smallest
  group whose probe loss stays close to the full-quality probe; roll the
  model back after probing.
* :class:`GradientCosineController` — the §A.6.2 refinement: compare the
  gradient computed on each scan group's data against the full-quality
  gradient and adopt the smallest group whose cosine similarity exceeds a
  threshold (default 90%).

Both return the :class:`~repro.core.scan_groups.ScanGroupDecision` the
online policies of :mod:`repro.control` return: the epoch goes into
``interval``, the probe losses / cosines per group into ``inputs``.  Both
probe by passing each candidate group to their own reads of the loader's
dataset, and switch only the loader they were handed, once, to the group
they chose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scan_groups import ScanGroupDecision
from repro.pipeline.batch import Minibatch
from repro.pipeline.loader import DataLoader
from repro.training.gradients import leading_batch, scan_group_gradient_similarities
from repro.training.loop import Trainer


@dataclass
class LossPlateauController:
    """Checkpoint/probe/rollback controller driven by training loss."""

    candidate_groups: list[int]
    plateau_patience: int = 3
    plateau_tolerance: float = 1e-3
    probe_batches: int = 2
    loss_slack: float = 0.05
    decisions: list[ScanGroupDecision] = field(default_factory=list)
    _recent_losses: list[float] = field(default_factory=list)

    def observe_loss(self, loss: float) -> bool:
        """Record an epoch loss; returns True when a plateau is detected."""
        self._recent_losses.append(loss)
        if len(self._recent_losses) <= self.plateau_patience:
            return False
        window = self._recent_losses[-(self.plateau_patience + 1) :]
        improvement = window[0] - min(window[1:])
        return improvement < self.plateau_tolerance

    def tune(self, trainer: Trainer, loader: DataLoader, epoch: int) -> ScanGroupDecision:
        """Probe candidate groups and switch the loader to the best one.

        The model is checkpointed before probing and rolled back afterwards,
        so probing never contaminates the training trajectory.  Every group
        is probed on the same leading samples of the dataset, so the losses
        compare fidelity and nothing else.
        """
        dataset = loader.dataset
        n_groups = dataset.n_groups
        batch_size = loader.config.batch_size
        checkpoint = trainer.checkpoint()
        probe_losses: dict[int, float] = {}
        try:
            for group in [n_groups, *(g for g in self.candidate_groups if g != n_groups)]:
                trainer.rollback(checkpoint)
                probe = leading_batch(dataset, group, batch_size * self.probe_batches)
                losses = []
                for start in range(0, len(probe), batch_size):
                    chunk = slice(start, start + batch_size)
                    step = Minibatch(probe.images[chunk], probe.labels[chunk])
                    losses.append(trainer.train_step(step)[0])
                probe_losses[group] = sum(losses) / len(losses)
        finally:
            trainer.rollback(checkpoint)

        reference_loss = probe_losses[n_groups]
        chosen = n_groups
        for group in sorted(probe_losses):
            if probe_losses[group] <= reference_loss * (1.0 + self.loss_slack):
                chosen = group
                break
        decision = ScanGroupDecision(
            chosen_group=chosen,
            previous_group=loader.scan_group,
            inputs=probe_losses,
            interval=epoch,
            reason=f"smallest group whose probe loss is within {self.loss_slack:.0%} "
            f"of full quality's {reference_loss:.3f}",
        )
        loader.set_scan_group(chosen)
        self.decisions.append(decision)
        self._recent_losses.clear()
        return decision


@dataclass
class GradientCosineController:
    """Gradient-similarity controller (§A.6.2)."""

    candidate_groups: list[int]
    similarity_threshold: float = 0.90
    max_samples: int = 64
    decisions: list[ScanGroupDecision] = field(default_factory=list)

    def tune(self, trainer: Trainer, loader: DataLoader, epoch: int) -> ScanGroupDecision:
        """Measure gradient similarity per group and switch the loader to the
        smallest passing one."""
        dataset = loader.dataset
        similarities = scan_group_gradient_similarities(
            trainer,
            dataset,
            scan_groups=self.candidate_groups,
            max_samples=self.max_samples,
        )
        chosen = dataset.n_groups
        for group in sorted(similarities):
            if similarities[group] >= self.similarity_threshold:
                chosen = group
                break
        decision = ScanGroupDecision(
            chosen_group=chosen,
            previous_group=loader.scan_group,
            inputs=similarities,
            interval=epoch,
            reason=f"smallest group with gradient cosine >= {self.similarity_threshold:.2f}"
            " (full quality when none reaches it)",
        )
        loader.set_scan_group(chosen)
        self.decisions.append(decision)
        return decision
