"""Image-quality metrics used to predict compression tolerance.

The paper uses MSSIM (multi-scale structural similarity, Wang et al. 2003)
as its diagnostic for how much accuracy a scan group will cost (Section 4.4,
Figures 7 and 17).  This package implements SSIM, MS-SSIM, PSNR/MSE, and the
MSSIM-to-accuracy linear regression used in Figure 7.
"""

import sys
from types import ModuleType
from typing import Any

# Resolved lazily, as in ``repro.core``: a PSNR caller (the ingest fidelity
# check) or the static tuner loads only the metric it computes with, and
# ``scipy`` is imported only where a filter or a fit runs.
_LAZY_EXPORTS = {
    "LinearFit": "repro.metrics.regression",
    "fit_mssim_accuracy": "repro.metrics.regression",
    "ms_ssim": "repro.metrics.msssim",
    "mse": "repro.metrics.psnr",
    "psnr": "repro.metrics.psnr",
    "ssim": "repro.metrics.ssim",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.metrics' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)


class _Package(ModuleType):
    """``psnr`` and ``ssim`` name both a submodule and its function.

    The import system binds each submodule on its package when it first
    loads, which would shadow the function export; this package keeps
    resolving those names to the functions, as its eager imports did.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _LAZY_EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
