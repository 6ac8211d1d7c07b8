"""The adaptive-fidelity control loop, run beside the loader it steers.

``AdaptiveScanGroupHook`` is a :class:`~repro.pipeline.loader.LoaderHook`
for a ``DataLoader`` over any :class:`~repro.core.source.RecordSource` — a
local ``PCRDataset`` behind slow storage, a ``RemoteRecordSource`` or a
``ShardedRemoteRecordSource`` — and closes the paper's autotune loop where
the measurements are taken:

* after each record read the loader hands it that read's own
  :class:`~repro.core.reader.ReadStats`, which it adds to the current
  window, so loaders sharing one source never count each other's reads;
* every ``interval`` seconds, piggybacked on a record read (never a timer
  thread), it closes the window — the loader's stall split from its
  :class:`~repro.pipeline.stall.StallTracker`, the window's byte / record /
  sample counts, and the per-group bytes/sample profile of the first
  record index — as one :class:`~repro.control.policy.ClientTelemetry` and
  asks its policy for a decision;
* it applies a steer through the loader's ``set_scan_group``, i.e. exactly
  at a record boundary: a read already under way finishes at the old
  fidelity, every later one runs at the steered one.

Every decision is kept (``decision_log()``; ``switch_log()`` keeps only the
steers) and counted as ``control.*`` metrics on the process registry.

The hook only reacts to its environment: a capped link belongs to the
source's fetcher (see :mod:`repro.core.source`) and reaches the hook only
as loader wait.  Wiring is one argument::

    loader = DataLoader(source, config, hook=AdaptiveScanGroupHook())
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.control.policy import ClientControlState, ClientTelemetry, StallTargetPolicy
from repro.core.reader import ReadStats
from repro.core.scan_groups import DOWN, UP, ScanGroupDecision
from repro.obs import get_registry

DEFAULT_INTERVAL_SECONDS = 0.5
_LOG_CAPACITY = 512


class AdaptiveScanGroupHook:
    """Steers one loader's scan group by a policy over the loader's own windows."""

    def __init__(
        self,
        policy=None,
        interval: float = DEFAULT_INTERVAL_SECONDS,
    ) -> None:
        self.policy = policy if policy is not None else StallTargetPolicy()
        self.interval = interval
        self.loader = None
        self.state = ClientControlState()
        self._log: deque[ScanGroupDecision] = deque(maxlen=_LOG_CAPACITY)
        self._intervals = 0
        self._reads_lock = threading.Lock()
        self._step_lock = threading.Lock()
        self._bytes_per_sample: dict[int, float] | None = None

    def bind(self, loader) -> None:
        """Attach to ``loader``; its ``DataLoader`` constructor calls this."""
        if self.loader is not None:
            raise ValueError("this hook already steers another loader")
        self.loader = loader
        self._reads = ReadStats()
        self._window_started = time.monotonic()
        self._stalls_base = (loader.stalls.total_wait, loader.stalls.total_compute)

    # -- the loop --------------------------------------------------------------

    def after_read(self, read: ReadStats) -> None:
        with self._reads_lock:
            self._reads.add(read.bytes_read, read.samples_decoded)
        # One stepper at a time; concurrent readers skip instead of queueing.
        if not self._step_lock.acquire(blocking=False):
            return
        try:
            if time.monotonic() - self._window_started >= self.interval:
                self._step()
        finally:
            self._step_lock.release()

    def step(self) -> ScanGroupDecision:
        """End the current interval now: decide on its window and apply.

        Besides the time-based path, tests and examples call this to end
        an interval at an exact point in the workload.
        """
        with self._step_lock:
            return self._step()

    def _step(self) -> ScanGroupDecision:
        state = self.state
        changes_before = state.direction_changes
        decision = self.policy.decide(self._close_window(), state, self._intervals)
        self._intervals += 1
        self._log.append(decision)
        registry = get_registry()
        registry.counter("control.decisions_total").inc()
        if decision.direction == UP:
            registry.counter("control.steps_up_total").inc()
        elif decision.direction == DOWN:
            registry.counter("control.steps_down_total").inc()
        else:
            registry.counter("control.holds_total").inc()
        if state.direction_changes > changes_before:
            registry.counter("control.direction_changes_total").inc(
                state.direction_changes - changes_before
            )
        if decision.changed:
            self.loader.set_scan_group(decision.chosen_group)
        return decision

    def _close_window(self) -> ClientTelemetry:
        """The loader's reads and stalls since the last step, as one window;
        starts the next window."""
        loader = self.loader
        with self._reads_lock:
            reads, self._reads = self._reads, ReadStats()
        wait0, compute0 = self._stalls_base
        wait, compute = loader.stalls.total_wait, loader.stalls.total_compute
        self._stalls_base = (wait, compute)
        now = time.monotonic()
        window = max(now - self._window_started, 1e-9)
        self._window_started = now
        return ClientTelemetry(
            scan_group=loader.scan_group,
            n_groups=loader.dataset.n_groups,
            window_seconds=window,
            wait_seconds=max(0.0, wait - wait0),
            compute_seconds=max(0.0, compute - compute0),
            bytes_read=reads.bytes_read,
            records_read=reads.records_read,
            samples=reads.samples_decoded,
            bytes_per_sample_by_group=self._group_byte_profile(),
        )

    def _group_byte_profile(self) -> dict[int, float]:
        """Mean bytes/sample at every scan group, from the first record index.

        PCR records in one dataset share their group geometry, so one
        index is a faithful per-group cost model for the whole dataset.
        """
        if self._bytes_per_sample is None:
            source = self.loader.dataset
            names = source.record_names
            if not names:
                return {}
            try:
                index = source.record_index(names[0])
            except Exception:
                return {}
            n_samples = max(1, index.n_samples)
            self._bytes_per_sample = {
                group: index.bytes_for_group(group) / n_samples
                for group in range(1, source.n_groups + 1)
            }
        return self._bytes_per_sample

    # -- inspection ------------------------------------------------------------

    def decision_log(self) -> list[dict]:
        """The last 512 decisions, oldest first, as payload dicts."""
        with self._step_lock:
            return [decision.to_payload() for decision in self._log]

    def switch_log(self) -> list[dict]:
        """Only the decisions that changed the group — the convergence
        trace the acceptance tests assert direction-change bounds on."""
        return [entry for entry in self.decision_log() if entry["direction"] != "hold"]
