"""Linear regression of final test accuracy on MSSIM (Figure 7).

The paper observes a roughly linear relationship between a scan group's
MSSIM (against the full-quality image) and the final test accuracy a model
reaches when trained on that scan group; the fit is used as a *static*
tuning diagnostic (Section 4.4, §A.6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """An ordinary-least-squares fit ``accuracy = slope * mssim + intercept``."""

    slope: float
    intercept: float
    r_value: float
    p_value: float
    stderr: float

    def predict(self, mssim: float | np.ndarray) -> np.ndarray:
        """Predict accuracy for one or more MSSIM values."""
        return self.slope * np.asarray(mssim, dtype=np.float64) + self.intercept

    @property
    def r_squared(self) -> float:
        """Coefficient of determination of the fit."""
        return float(self.r_value**2)


def fit_mssim_accuracy(mssim_values: list[float], accuracies: list[float]) -> LinearFit:
    """Fit the Figure 7 regression from per-scan-group (MSSIM, accuracy) pairs."""
    from scipy import stats  # only a fit pays for it: the tuner's clustering needs none

    if len(mssim_values) != len(accuracies):
        raise ValueError("mssim_values and accuracies must have the same length")
    if len(mssim_values) < 2:
        raise ValueError("at least two points are required for a linear fit")
    result = stats.linregress(np.asarray(mssim_values), np.asarray(accuracies))
    return LinearFit(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_value=float(result.rvalue),
        p_value=float(result.pvalue),
        stderr=float(result.stderr),
    )


def cluster_by_mssim(
    mssim_values: dict[int, float], tolerance: float = 0.01
) -> list[list[int]]:
    """Group scan indices whose MSSIM values are within ``tolerance``.

    The paper notes that scans cluster (e.g. scans 2–4 are usually similar)
    and that clustering can reduce the number of scan groups worth
    considering during tuning (§A.6.1).
    """
    ordered = sorted(mssim_values.items(), key=lambda kv: kv[0])
    clusters: list[list[int]] = []
    current: list[int] = []
    current_value: float | None = None
    for scan, value in ordered:
        if current and current_value is not None and abs(value - current_value) > tolerance:
            clusters.append(current)
            current = []
        current.append(scan)
        current_value = value
    if current:
        clusters.append(current)
    return clusters
