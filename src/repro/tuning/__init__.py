"""Scan-group selection: static diagnostics and dynamic (runtime) autotuning.

* :mod:`repro.tuning.static` — pick a scan group before training from MSSIM
  measurements and the bandwidth model (§A.6.1).
* :mod:`repro.tuning.dynamic` — runtime controllers: the loss-plateau
  checkpoint/rollback heuristic of Section 4.5 and the gradient-cosine
  controller of §A.6.2.
* :mod:`repro.tuning.mixture` — probability simplexes over scan groups
  ("mixture training", §A.6.3).
"""

from repro.tuning.dynamic import GradientCosineController, LossPlateauController
from repro.tuning.mixture import MixturePolicy
from repro.tuning.static import StaticTuner, StaticTuningReport

__all__ = [
    "GradientCosineController",
    "LossPlateauController",
    "MixturePolicy",
    "StaticTuner",
    "StaticTuningReport",
]
