"""Analytical throughput and time-to-accuracy models (Appendix A.2).

* :mod:`repro.simulate.throughput` — the queueing-theory lemmas: expected
  read time, speedup ratios, and ``PipelineModel``, the min(compute, I/O)
  pipeline bound that is also the data-intensity roofline of Figure 14.
* :mod:`repro.simulate.trainer_sim` — the cluster-scale time-to-accuracy
  simulator used to regenerate Figures 4–6 at the paper's hardware rates.
"""

from repro.simulate.throughput import (
    PipelineModel,
    expected_read_seconds,
    pipeline_throughput,
    speedup,
)
from repro.simulate.trainer_sim import ClusterSpec, TrainingSimulator

__all__ = [
    "ClusterSpec",
    "PipelineModel",
    "TrainingSimulator",
    "expected_read_seconds",
    "pipeline_throughput",
    "speedup",
]
