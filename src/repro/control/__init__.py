"""``repro.control`` — online adaptive fidelity (closing §4.5's loop).

The offline controllers of :mod:`repro.tuning` choose scan groups by
probing a local loader; this package closes the same loop *online*, beside
the ``DataLoader`` it steers, from the loader's own stall and byte
measurements.  Both return one decision record,
:class:`~repro.core.scan_groups.ScanGroupDecision`, which lives below both
so that neither imports the other; the serving side imports neither:

* :mod:`repro.control.policy` — the policies' input (one loader's
  ``ClientTelemetry`` window) and pluggable decision cores (stall-target
  AIMD with hysteresis + cooldown, bandwidth-budget fitting);
* :mod:`repro.control.adaptive` — the loader hook that closes a window
  every interval, runs the policy and applies its steer through the
  loader's ``set_scan_group``.

See ``docs/autotune.md`` for the loop's semantics and the benchmark keys.
"""

from repro.control.adaptive import AdaptiveScanGroupHook
from repro.control.policy import (
    BandwidthBudgetPolicy,
    ClientControlState,
    ClientTelemetry,
    StallTargetPolicy,
)

__all__ = [
    "AdaptiveScanGroupHook",
    "BandwidthBudgetPolicy",
    "ClientControlState",
    "ClientTelemetry",
    "StallTargetPolicy",
]
