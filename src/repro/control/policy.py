"""Pluggable control policies: one loader's window in, scan-group decision out.

A policy is the pure decision core of the adaptive-fidelity loop — the
online counterpart of the offline controllers in :mod:`repro.tuning`.
Every control interval ``decide(telemetry, state, interval)`` sees one
loader's last window as a :class:`ClientTelemetry` plus the hook's
:class:`ClientControlState` and returns a
:class:`~repro.core.scan_groups.ScanGroupDecision` — the same record the
offline tuners return, defined below both packages so that neither imports
the other to share it.

Two policies are provided:

* :class:`StallTargetPolicy` — drive the loader's stall fraction toward a
  target with an AIMD-style group step: multiplicative decrease when the
  loader is stalling (shed fidelity fast, the paper's autotune instinct),
  additive +1 increase when it has headroom.  A hysteresis deadband around
  the target plus a post-switch cooldown keeps noisy stall measurements
  from oscillating the fidelity.
* :class:`BandwidthBudgetPolicy` — pick the *largest* scan group whose
  projected byte rate (mean bytes/sample at that group × observed
  samples/s) fits the link budget (explicit, or the loader's demonstrated
  throughput) with headroom.

Both hold while the loader is not yet reading at the steered group
(a window taken at a different group than the steered one describes the
old operating point, not the new one) — that wait is what bounds the loop's
direction changes during convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.scan_groups import HOLD, ScanGroupDecision


@dataclass(frozen=True)
class ClientTelemetry:
    """One control window of one loader's measurements: the policies' input."""

    scan_group: int
    n_groups: int
    window_seconds: float = 0.0
    wait_seconds: float = 0.0
    compute_seconds: float = 0.0
    bytes_read: int = 0
    records_read: int = 0
    samples: int = 0
    #: Mean compressed bytes one sample costs at each scan group, measured
    #: from a record index — what the bandwidth-budget policy projects with.
    bytes_per_sample_by_group: dict[int, float] = field(default_factory=dict)

    @property
    def stall_fraction(self) -> float:
        """Fraction of the window's wall time the training loop spent waiting."""
        busy = self.wait_seconds + self.compute_seconds
        return self.wait_seconds / busy if busy else 0.0

    @property
    def throughput_bytes_per_s(self) -> float:
        """Demonstrated link throughput over the window."""
        return self.bytes_read / self.window_seconds if self.window_seconds else 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.window_seconds if self.window_seconds else 0.0


@dataclass
class ClientControlState:
    """What a hook remembers about the loader it steers."""

    #: The group the loader is steered toward (``None`` until the first
    #: window seeds it with the loader's actual group).
    group: int | None = None
    cooldown_remaining: int = 0
    last_direction: str = HOLD
    direction_changes: int = 0


def _decision(
    state: ClientControlState,
    telemetry: ClientTelemetry,
    interval: int,
    previous: int | None,
    reason: str,
) -> ScanGroupDecision:
    # ``_common_holds`` seeds ``state.group`` before any decision is built.
    return ScanGroupDecision(
        chosen_group=state.group,
        previous_group=previous,
        inputs={
            "stall_fraction": round(telemetry.stall_fraction, 4),
            "throughput_bytes_per_s": round(telemetry.throughput_bytes_per_s, 1),
            "samples_per_s": round(telemetry.samples_per_s, 2),
            "reported_group": telemetry.scan_group,
        },
        interval=interval,
        reason=reason,
    )


def _hold(
    state: ClientControlState, telemetry: ClientTelemetry, interval: int, reason: str
) -> ScanGroupDecision:
    return _decision(state, telemetry, interval, state.group, reason)


def _switch(
    state: ClientControlState,
    telemetry: ClientTelemetry,
    interval: int,
    new_group: int,
    cooldown: int,
    reason: str,
) -> ScanGroupDecision:
    previous = state.group
    state.group = new_group
    state.cooldown_remaining = cooldown
    decision = _decision(state, telemetry, interval, previous, reason)
    if state.last_direction != HOLD and decision.direction != state.last_direction:
        state.direction_changes += 1
    state.last_direction = decision.direction
    return decision


def _common_holds(
    state: ClientControlState, telemetry: ClientTelemetry, interval: int
) -> ScanGroupDecision | None:
    """Seed/cooldown/lag holds shared by every policy; ``None`` means decide."""
    if state.group is None:
        state.group = telemetry.scan_group
        return _hold(state, telemetry, interval, "seeded from first window")
    if telemetry.scan_group != state.group:
        # Measurements describe the group the loader actually ran at; wait
        # for the previous steer to take effect before judging the new one.
        return _hold(state, telemetry, interval, "awaiting loader apply")
    if state.cooldown_remaining > 0:
        state.cooldown_remaining -= 1
        return _hold(
            state,
            telemetry,
            interval,
            f"cooldown ({state.cooldown_remaining + 1} intervals left)",
        )
    return None


def _check_min_group(min_group: int) -> None:
    # Scan groups count from 1: a policy that could choose group 0 would
    # make the hook's ``set_scan_group`` raise in the reader thread.
    if min_group < 1:
        raise ValueError("min_group must be at least 1")


@dataclass
class StallTargetPolicy:
    """AIMD scan-group steering toward a target stall fraction."""

    target_stall_fraction: float = 0.15
    #: Half-width of the deadband, as a fraction of the target: the policy
    #: acts only outside ``target * (1 ± hysteresis)``.
    hysteresis: float = 0.5
    cooldown_intervals: int = 2
    #: Multiplicative decrease factor applied to the group index on overload.
    decrease_factor: float = 0.5
    #: Additive increase step applied when the loader has headroom.
    increase_step: int = 1
    min_group: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.increase_step < 1:
            raise ValueError("increase_step must be at least 1")
        _check_min_group(self.min_group)

    def decide(
        self, telemetry: ClientTelemetry, state: ClientControlState, interval: int
    ) -> ScanGroupDecision:
        held = _common_holds(state, telemetry, interval)
        if held is not None:
            return held
        stall = telemetry.stall_fraction
        upper = self.target_stall_fraction * (1.0 + self.hysteresis)
        lower = self.target_stall_fraction * (1.0 - self.hysteresis)
        group = state.group
        max_group = telemetry.n_groups
        if stall > upper:
            new_group = max(self.min_group, math.floor(group * self.decrease_factor))
            if new_group >= group:
                return _hold(
                    state, telemetry, interval,
                    f"stall {stall:.2f} > {upper:.2f} but already at floor group {group}",
                )
            return _switch(
                state, telemetry, interval, new_group, self.cooldown_intervals,
                f"stall {stall:.2f} above {upper:.2f}: multiplicative decrease "
                f"{group} -> {new_group}",
            )
        if stall < lower:
            new_group = min(max_group, group + self.increase_step)
            if new_group <= group:
                return _hold(
                    state, telemetry, interval,
                    f"stall {stall:.2f} < {lower:.2f} but already at ceiling group {group}",
                )
            return _switch(
                state, telemetry, interval, new_group, self.cooldown_intervals,
                f"stall {stall:.2f} below {lower:.2f}: additive increase "
                f"{group} -> {new_group}",
            )
        return _hold(
            state, telemetry, interval,
            f"stall {stall:.2f} inside deadband [{lower:.2f}, {upper:.2f}]",
        )


@dataclass
class BandwidthBudgetPolicy:
    """Largest scan group whose projected byte rate fits the link budget."""

    #: Explicit link capacity; ``None`` uses the loader's demonstrated
    #: throughput over its last window (a lower bound on capacity, so the
    #: policy is conservative when the link is not saturated).
    link_bytes_per_s: float | None = None
    headroom: float = 0.9
    cooldown_intervals: int = 2
    min_group: int = 1

    def __post_init__(self) -> None:
        if self.link_bytes_per_s is not None and self.link_bytes_per_s <= 0:
            raise ValueError("link_bytes_per_s must be positive (or None to measure it)")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")
        _check_min_group(self.min_group)

    def decide(
        self, telemetry: ClientTelemetry, state: ClientControlState, interval: int
    ) -> ScanGroupDecision:
        held = _common_holds(state, telemetry, interval)
        if held is not None:
            return held
        sizes = telemetry.bytes_per_sample_by_group
        sample_rate = telemetry.samples_per_s
        if not sizes or sample_rate <= 0.0:
            return _hold(state, telemetry, interval, "no byte-size/sample-rate data")
        capacity = (
            self.link_bytes_per_s
            if self.link_bytes_per_s is not None
            else telemetry.throughput_bytes_per_s
        )
        budget = capacity * self.headroom
        if budget <= 0.0:
            return _hold(state, telemetry, interval, "no measurable link budget")
        fitting = [
            group
            for group in sorted(sizes)
            if self.min_group <= group <= telemetry.n_groups
            and sizes[group] * sample_rate <= budget
        ]
        new_group = max(fitting) if fitting else self.min_group
        if new_group == state.group:
            return _hold(
                state, telemetry, interval,
                f"group {new_group} already the largest within "
                f"{budget:.0f} B/s budget",
            )
        projected = sizes.get(new_group, 0.0) * sample_rate
        return _switch(
            state, telemetry, interval, new_group, self.cooldown_intervals,
            f"group {new_group} projects {projected:.0f} B/s "
            f"within the {budget:.0f} B/s budget",
        )
