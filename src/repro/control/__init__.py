"""``repro.control`` — online adaptive-fidelity serving (closing §4.5's loop).

The offline controllers of :mod:`repro.tuning` choose scan groups by
probing a local loader; this package closes the same loop *online*, over
the live telemetry plane built by :mod:`repro.obs` and the serving wire.
Both return one decision record,
:class:`~repro.core.scan_groups.ScanGroupDecision`, which lives below both
so that this package — which every record server imports — loads nothing
of the tuner, the trainer or their metrics:

* :mod:`repro.control.telemetry` — the loop's data: per-client telemetry
  reports, scan-group hints, and the server-side store they meet in;
* :mod:`repro.control.policy` — pluggable decision cores (stall-target
  AIMD with hysteresis + cooldown, bandwidth-budget fitting);
* :mod:`repro.control.controller` — the ``FidelityController`` thread, the
  one ``ControlPlane`` it steers through (one server or a fleet) and the
  one ``attach_controller`` behind both ``start_controller`` methods;
* :mod:`repro.control.adaptive_source` — the loader-side wrapper that
  reports telemetry at fetch boundaries and applies hints through
  ``set_scan_group``.

See ``docs/autotune.md`` for the loop's semantics and the benchmark keys.
"""

from repro.control.adaptive_source import AdaptiveScanGroupSource
from repro.control.controller import ControlPlane, FidelityController
from repro.control.policy import (
    BandwidthBudgetPolicy,
    ClientControlState,
    StallTargetPolicy,
)
from repro.control.telemetry import ClientTelemetry, ScanGroupHint, TelemetryStore

__all__ = [
    "AdaptiveScanGroupSource",
    "BandwidthBudgetPolicy",
    "ClientControlState",
    "ClientTelemetry",
    "ControlPlane",
    "FidelityController",
    "ScanGroupHint",
    "StallTargetPolicy",
    "TelemetryStore",
]
