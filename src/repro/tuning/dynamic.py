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
``interval``, the probe losses / cosines per group into ``inputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scan_groups import ScanGroupDecision
from repro.core.source import RecordSource
from repro.pipeline.loader import DataLoader
from repro.training.gradients import scan_group_gradient_similarities
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

    def tune(
        self,
        trainer: Trainer,
        dataset: RecordSource,
        loader: DataLoader,
        epoch: int,
    ) -> ScanGroupDecision:
        """Probe candidate groups and switch the dataset to the best one.

        The model is checkpointed before probing and rolled back afterwards,
        so probing never contaminates the training trajectory.
        """
        checkpoint = trainer.checkpoint()
        original_group = dataset.scan_group
        probe_losses: dict[int, float] = {}
        try:
            reference_loss = self._probe(trainer, dataset, loader, dataset.n_groups)
            probe_losses[dataset.n_groups] = reference_loss
            for group in self.candidate_groups:
                if group == dataset.n_groups:
                    continue
                trainer.rollback(checkpoint)
                probe_losses[group] = self._probe(trainer, dataset, loader, group)
        finally:
            trainer.rollback(checkpoint)
            dataset.set_scan_group(original_group)

        chosen = dataset.n_groups
        for group in sorted(probe_losses):
            if probe_losses[group] <= probe_losses[dataset.n_groups] * (1.0 + self.loss_slack):
                chosen = group
                break
        dataset.set_scan_group(chosen)
        decision = ScanGroupDecision(
            chosen_group=chosen,
            previous_group=original_group,
            inputs=probe_losses,
            interval=epoch,
            reason=f"smallest group whose probe loss is within {self.loss_slack:.0%} "
            f"of full quality's {reference_loss:.3f}",
        )
        self.decisions.append(decision)
        self._recent_losses.clear()
        return decision

    def _probe(
        self, trainer: Trainer, dataset: RecordSource, loader: DataLoader, group: int
    ) -> float:
        dataset.set_scan_group(group)
        losses = []
        for batch_index, batch in enumerate(loader.epoch()):
            loss, _ = trainer.train_step(batch)
            losses.append(loss)
            if batch_index + 1 >= self.probe_batches:
                break
        return sum(losses) / len(losses) if losses else float("inf")


@dataclass
class GradientCosineController:
    """Gradient-similarity controller (§A.6.2)."""

    candidate_groups: list[int]
    similarity_threshold: float = 0.90
    max_samples: int = 64
    decisions: list[ScanGroupDecision] = field(default_factory=list)

    def tune(
        self,
        trainer: Trainer,
        dataset: RecordSource,
        epoch: int,
    ) -> ScanGroupDecision:
        """Measure gradient similarity per group and adopt the smallest passing one."""
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
            previous_group=dataset.scan_group,
            inputs=similarities,
            interval=epoch,
            reason=f"smallest group with gradient cosine >= {self.similarity_threshold:.2f}"
            " (full quality when none reaches it)",
        )
        dataset.set_scan_group(chosen)
        self.decisions.append(decision)
        return decision
