"""Static scan-group tuning (§A.6.1).

Before training starts, the tuner measures each scan group's MSSIM against
the full-quality reconstruction on a sample of images, predicts the accuracy
cost with the Figure 7 linear relationship, computes the bandwidth/throughput
gain of each group from its mean byte size, and recommends the smallest group
whose predicted quality satisfies the user's threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codecs.progressive import ProgressiveCodec
from repro.core.source import RecordSource
from repro.metrics.msssim import ms_ssim
from repro.metrics.regression import cluster_by_mssim

#: MSSIM at or above which the paper observes consistently good accuracy.
DEFAULT_MSSIM_THRESHOLD = 0.95


@dataclass
class StaticTuningReport:
    """Per-scan-group diagnostics produced by the static tuner."""

    mssim_by_group: dict[int, float] = field(default_factory=dict)
    mean_bytes_by_group: dict[int, float] = field(default_factory=dict)
    speedup_by_group: dict[int, float] = field(default_factory=dict)
    recommended_group: int | None = None
    clusters: list[list[int]] = field(default_factory=list)

    def summary_rows(self) -> list[tuple[int, float, float, float]]:
        """(group, mssim, mean bytes, speedup) rows sorted by group."""
        rows = []
        for group in sorted(self.mssim_by_group):
            rows.append(
                (
                    group,
                    self.mssim_by_group[group],
                    self.mean_bytes_by_group.get(group, float("nan")),
                    self.speedup_by_group.get(group, float("nan")),
                )
            )
        return rows


class StaticTuner:
    """Chooses a scan group before training from MSSIM and size statistics."""

    def __init__(
        self,
        dataset: RecordSource,
        mssim_threshold: float = DEFAULT_MSSIM_THRESHOLD,
        sample_limit: int = 16,
    ) -> None:
        self.dataset = dataset
        self.mssim_threshold = mssim_threshold
        self.sample_limit = sample_limit
        self._codec = ProgressiveCodec()

    def analyze(self) -> StaticTuningReport:
        """Measure every scan group and produce a recommendation."""
        report = StaticTuningReport()
        n_groups = self.dataset.n_groups
        streams = self._sample_streams()
        references = [self._codec.decode(stream) for stream in streams]  # once each

        for group in range(1, n_groups + 1):
            max_scans = self._scans_for_group(group)
            values = [
                ms_ssim(reference, self._codec.decode(stream, max_scans=max_scans))
                for stream, reference in zip(streams, references)
            ]
            report.mssim_by_group[group] = float(np.mean(values))

        bytes_by_group = self.dataset.epoch_bytes_by_group()
        n_samples = max(1, len(self.dataset))
        baseline_bytes = bytes_by_group[n_groups] / n_samples
        for group, total in bytes_by_group.items():
            mean_bytes = total / n_samples
            report.mean_bytes_by_group[group] = mean_bytes
            report.speedup_by_group[group] = baseline_bytes / mean_bytes

        report.clusters = cluster_by_mssim(report.mssim_by_group, tolerance=0.01)
        report.recommended_group = self.recommend(report)
        return report

    def recommend(self, report: StaticTuningReport) -> int:
        """Smallest group whose MSSIM meets the threshold (else the baseline)."""
        for group in sorted(report.mssim_by_group):
            if report.mssim_by_group[group] >= self.mssim_threshold:
                return group
        return self.dataset.n_groups

    # -- internals -------------------------------------------------------------

    def _sample_streams(self) -> list[bytes]:
        streams: list[bytes] = []
        for name in self.dataset.record_names:
            full = self.dataset.read_record(name, self.dataset.n_groups, decode=False)
            streams.extend(sample.stream for sample in full)
            if len(streams) >= self.sample_limit:
                break
        return streams[: self.sample_limit]

    def _scans_for_group(self, group: int) -> int:
        # Scan groups are stored in quality order; group g corresponds to the
        # first g scans of the default identity policy (or the boundary scan
        # of a clustered policy, recorded in the dataset metadata).
        boundaries = self.dataset.dataset_meta.get("group_boundaries")
        if boundaries:
            return int(boundaries[group - 1])
        return group
