"""The closed-loop fidelity controller and the planes it steers through.

``FidelityController`` is the thread that closes the paper's autotune loop
over the live telemetry plane: every control interval it polls the latest
:class:`~repro.control.telemetry.ClientTelemetry` per client, runs the
configured policy, publishes the resulting
:class:`~repro.control.telemetry.ScanGroupHint` back where the next
``REPORT_TELEMETRY`` ack will pick it up, biases the serving cache toward
the groups the fleet is being steered to, and records every decision (with
its rationale) both in an inspectable decision log and as ``control.*``
metrics on the plane's registry — so ``GET_METRICS`` scrapes see the
controller's behaviour next to the serving counters it acted on.

The controller never talks to sockets itself; it goes through a *control
plane* object:

* :class:`ServerControlPlane` — one :class:`~repro.serving.server.
  PCRRecordServer`: telemetry from the server's store, hints back into it,
  cache bias on the server's scan-prefix cache, fleet snapshot from the
  same registry body ``GET_METRICS`` serves.
* :class:`ClusterControlPlane` — a :class:`~repro.serving.cluster.
  coordinator.ClusterCoordinator` fleet: telemetry merged across every
  running replica (freshest report per client wins), hints republished to
  *all* replicas (a client reports to whichever shard it happens to reach),
  cache bias applied fleet-wide, and the fleet snapshot scraped over the
  wire with the existing ``GET_METRICS``/merge machinery.

Both planes are duck-typed; tests drive the controller with an in-memory
fake plane and call :meth:`FidelityController.step` directly for exact,
interval-by-interval convergence assertions.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.control.policy import (
    DOWN,
    UP,
    ClientControlState,
    ControlDecision,
    StallTargetPolicy,
)
from repro.control.telemetry import ClientTelemetry, ScanGroupHint
from repro.obs import MetricsRegistry

DEFAULT_INTERVAL_SECONDS = 0.5
DEFAULT_LOG_CAPACITY = 512
#: Fleet snapshots are scraped once every this many control intervals —
#: scraping rides the GET_METRICS path, which is cheap but not free.
DEFAULT_FLEET_SCRAPE_INTERVALS = 4


class ServerControlPlane:
    """Control-plane view of one in-process :class:`PCRRecordServer`."""

    def __init__(self, server) -> None:
        self.server = server
        self.registry: MetricsRegistry = server.registry

    def poll(self) -> dict[str, ClientTelemetry]:
        return self.server.telemetry.latest()

    def publish(self, client_id: str, hint: ScanGroupHint | None) -> None:
        self.server.telemetry.set_hint(client_id, hint)

    def set_admission_bias(self, groups: set[int] | None) -> None:
        self.server.cache.set_admission_bias(groups)

    def fleet_snapshot(self) -> dict:
        """The same registry body a ``GET_METRICS`` scrape would return."""
        return self.server.metrics_snapshot()["registry"]


class ClusterControlPlane:
    """Control-plane view of a whole :class:`ClusterCoordinator` fleet."""

    def __init__(self, coordinator, registry: MetricsRegistry | None = None) -> None:
        self.coordinator = coordinator
        self.registry = registry if registry is not None else MetricsRegistry()

    def poll(self) -> dict[str, ClientTelemetry]:
        """Latest telemetry per client across every live replica.

        A client reports to whichever replica served its last fetch, so the
        fleet view keeps, per client, the freshest report any replica holds.
        """
        merged: dict[str, ClientTelemetry] = {}
        for server in self.coordinator.running_servers():
            for client_id, report in server.telemetry.latest().items():
                current = merged.get(client_id)
                if current is None or report.received_at > current.received_at:
                    merged[client_id] = report
        return merged

    def publish(self, client_id: str, hint: ScanGroupHint | None) -> None:
        for server in self.coordinator.running_servers():
            server.telemetry.set_hint(client_id, hint)

    def set_admission_bias(self, groups: set[int] | None) -> None:
        for server in self.coordinator.running_servers():
            server.cache.set_admission_bias(groups)

    def fleet_snapshot(self) -> dict:
        """Fleet-wide merged registry, scraped over the wire (GET_METRICS)."""
        return self.coordinator.cluster_stats()["merged"]


class FidelityController:
    """Periodically turns fleet telemetry into per-client scan-group hints."""

    def __init__(
        self,
        plane,
        policy=None,
        interval: float = DEFAULT_INTERVAL_SECONDS,
        log_capacity: int = DEFAULT_LOG_CAPACITY,
        fleet_scrape_intervals: int = DEFAULT_FLEET_SCRAPE_INTERVALS,
    ) -> None:
        self.plane = plane
        self.policy = policy if policy is not None else StallTargetPolicy()
        self.interval = interval
        self.fleet_scrape_intervals = fleet_scrape_intervals
        self.registry: MetricsRegistry = plane.registry
        self.last_fleet_snapshot: dict | None = None
        self._states: dict[str, ClientControlState] = {}
        self._log: deque[ControlDecision] = deque(maxlen=log_capacity)
        self._intervals = 0
        self._decision_seq = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "FidelityController":
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="pcr-fidelity-controller"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FidelityController":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.step()
            except Exception:
                # The control loop must never die on a transient scrape
                # failure (a replica mid-restart); the next interval retries.
                self.registry.counter("control.step_errors_total").inc()

    # -- the control step ----------------------------------------------------

    def step(self) -> list[ControlDecision]:
        """Run one control interval; returns the decisions it produced.

        Public so tests (and the benchmark) can drive the loop
        deterministically — run a measured workload, call ``step()``, repeat
        — instead of racing the wall-clock thread.
        """
        with self._lock:
            return self._step_locked()

    def _step_locked(self) -> list[ControlDecision]:
        interval = self._intervals
        self._intervals += 1
        registry = self.registry
        registry.counter("control.intervals_total").inc()
        reports = self.plane.poll()
        # Forget clients whose reports aged out of the telemetry store.
        for client_id in list(self._states):
            if client_id not in reports:
                del self._states[client_id]
        decisions: list[ControlDecision] = []
        for client_id in sorted(reports):
            telemetry = reports[client_id]
            state = self._states.get(client_id)
            if state is None:
                state = self._states[client_id] = ClientControlState(client_id)
            changes_before = state.direction_changes
            decision = self.policy.decide(telemetry, state, interval)
            decisions.append(decision)
            self._log.append(decision)
            self._record(decision, state)
            if state.direction_changes > changes_before:
                registry.counter("control.direction_changes_total").inc(
                    state.direction_changes - changes_before
                )
            if decision.changed:
                self._decision_seq += 1
                self.plane.publish(
                    client_id,
                    ScanGroupHint(
                        scan_group=decision.chosen_group,
                        reason=decision.reason,
                        decision_id=self._decision_seq,
                    ),
                )
        self._apply_bias()
        registry.gauge("control.clients_tracked").set(len(self._states))
        if interval % self.fleet_scrape_intervals == 0:
            try:
                self.last_fleet_snapshot = self.plane.fleet_snapshot()
                registry.counter("control.fleet_scrapes_total").inc()
            except Exception:
                registry.counter("control.fleet_scrape_errors_total").inc()
        return decisions

    def _record(self, decision: ControlDecision, state: ClientControlState) -> None:
        registry = self.registry
        registry.counter("control.decisions_total").inc()
        if decision.direction == UP:
            registry.counter("control.steps_up_total").inc()
        elif decision.direction == DOWN:
            registry.counter("control.steps_down_total").inc()
        else:
            registry.counter("control.holds_total").inc()
        registry.gauge(f"control.client.{decision.client_id}.scan_group").set(
            state.group if state.group is not None else decision.chosen_group
        )

    def _apply_bias(self) -> None:
        """Bias cache admission toward the groups the fleet is steered to."""
        groups = {
            state.group for state in self._states.values() if state.group is not None
        }
        self.plane.set_admission_bias(groups or None)

    # -- inspection ----------------------------------------------------------

    @property
    def intervals(self) -> int:
        return self._intervals

    def states(self) -> dict[str, ClientControlState]:
        with self._lock:
            return dict(self._states)

    def decision_log(self, client_id: str | None = None) -> list[dict]:
        """Every recorded decision (optionally one client's), as payload dicts."""
        with self._lock:
            return [
                decision.to_payload()
                for decision in self._log
                if client_id is None or decision.client_id == client_id
            ]

    def switch_log(self, client_id: str | None = None) -> list[dict]:
        """Only the decisions that changed a client's group — the convergence
        trace the acceptance tests assert direction-change bounds on."""
        return [
            entry
            for entry in self.decision_log(client_id)
            if entry["direction"] != "hold"
        ]
