"""The closed-loop fidelity controller and the plane it steers through.

``FidelityController`` is the thread that closes the paper's autotune loop
over the live telemetry plane: every control interval it polls the latest
:class:`~repro.control.telemetry.ClientTelemetry` per client, runs the
configured policy, publishes the resulting
:class:`~repro.control.telemetry.ScanGroupHint` back where the next
``REPORT_TELEMETRY`` ack will pick it up, biases the serving cache toward
the groups the fleet is being steered to, and records every decision (with
its rationale) both in an inspectable decision log and as ``control.*``
metrics on the plane's registry.

The controller never talks to sockets itself; it goes through a
:class:`ControlPlane` over the live in-process servers — the one server
that owns the controller, or a :class:`~repro.serving.cluster.coordinator.
ClusterCoordinator`'s running replicas.  The plane is duck-typed
(``registry``, ``poll``, ``publish``, ``set_admission_bias``); tests drive
the controller with an in-memory fake plane and call
:meth:`FidelityController.step` directly for exact, interval-by-interval
convergence assertions.  :func:`attach_controller` is the one body behind
``PCRRecordServer.start_controller`` and
``ClusterCoordinator.start_controller``.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable

from repro.control.policy import ClientControlState, StallTargetPolicy
from repro.control.telemetry import ClientTelemetry, ScanGroupHint
from repro.core.scan_groups import DOWN, UP, ScanGroupDecision
from repro.obs import MetricsRegistry

DEFAULT_INTERVAL_SECONDS = 0.5
_LOG_CAPACITY = 512


class ControlPlane:
    """The live in-process servers one controller steers.

    ``servers`` is asked again on every call, so a replica restarted since
    the last interval is polled, hinted and biased on the next one.
    ``control.*`` metrics land on ``registry``: the owning server's (they
    ride its ``GET_METRICS``) or, for a fleet, one of the coordinator's own.
    """

    def __init__(self, servers: Callable[[], list], registry: MetricsRegistry) -> None:
        self._servers = servers
        self.registry = registry
        self._live()  # adopt today's servers now, not at the first poll

    def _live(self) -> list:
        servers = self._servers()
        for server in servers:
            # What the replica's TELEMETRY_ACK reports as controller_active.
            server.telemetry.steered = True
        return servers

    def poll(self) -> dict[str, ClientTelemetry]:
        """Latest telemetry per client across every live server.

        A client reports to whichever replica served its last fetch, so the
        fleet view keeps, per client, the freshest report any replica holds.
        """
        merged: dict[str, ClientTelemetry] = {}
        for server in self._live():
            for client_id, report in server.telemetry.latest().items():
                current = merged.get(client_id)
                if current is None or report.received_at > current.received_at:
                    merged[client_id] = report
        return merged

    def publish(self, client_id: str, hint: ScanGroupHint | None) -> None:
        """To every server: a client's next report may reach any of them."""
        for server in self._live():
            server.telemetry.set_hint(client_id, hint)

    def set_admission_bias(self, groups: set[int] | None) -> None:
        for server in self._live():
            server.cache.set_admission_bias(groups)


class FidelityController:
    """Periodically turns fleet telemetry into per-client scan-group hints."""

    def __init__(
        self,
        plane,
        policy=None,
        interval: float = DEFAULT_INTERVAL_SECONDS,
    ) -> None:
        self.plane = plane
        self.policy = policy if policy is not None else StallTargetPolicy()
        self.interval = interval
        self.registry: MetricsRegistry = plane.registry
        self._states: dict[str, ClientControlState] = {}
        self._log: deque[ScanGroupDecision] = deque(maxlen=_LOG_CAPACITY)
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
        self._stop_event.clear()  # a stopped controller starts again for real
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
                # The control loop must never die on a transient failure
                # (a replica stopping mid-poll); the next interval retries.
                self.registry.counter("control.step_errors_total").inc()

    # -- the control step ----------------------------------------------------

    def step(self) -> list[ScanGroupDecision]:
        """Run one control interval; returns the decisions it produced.

        Public so tests (and the benchmark) can drive the loop
        deterministically — run a measured workload, call ``step()``, repeat
        — instead of racing the wall-clock thread.
        """
        with self._lock:
            return self._step_locked()

    def _step_locked(self) -> list[ScanGroupDecision]:
        interval = self._intervals
        self._intervals += 1
        registry = self.registry
        registry.counter("control.intervals_total").inc()
        reports = self.plane.poll()
        # Forget clients whose reports aged out of the telemetry store.
        for client_id in list(self._states):
            if client_id not in reports:
                del self._states[client_id]
        decisions: list[ScanGroupDecision] = []
        for client_id in sorted(reports):
            telemetry = reports[client_id]
            state = self._states.get(client_id)
            if state is None:
                state = self._states[client_id] = ClientControlState(client_id)
            changes_before = state.direction_changes
            decision = self.policy.decide(telemetry, state, interval)
            decisions.append(decision)
            self._log.append(decision)
            self._record(decision)
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
        return decisions

    def _record(self, decision: ScanGroupDecision) -> None:
        registry = self.registry
        registry.counter("control.decisions_total").inc()
        if decision.direction == UP:
            registry.counter("control.steps_up_total").inc()
        elif decision.direction == DOWN:
            registry.counter("control.steps_down_total").inc()
        else:
            registry.counter("control.holds_total").inc()
        registry.gauge(f"control.client.{decision.client_id}.scan_group").set(
            decision.chosen_group
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


def attach_controller(
    host,
    servers: Callable[[], list],
    registry: MetricsRegistry,
    policy=None,
    interval: float | None = None,
    auto_start: bool = True,
) -> FidelityController:
    """``host.start_controller``, for a record server or a cluster coordinator.

    ``auto_start=False`` attaches without spawning the thread, for callers
    that drive :meth:`FidelityController.step` themselves.  The host keeps
    the returned controller and stops it when it stops.
    """
    if host.controller is not None:
        raise RuntimeError("controller already attached")
    controller = FidelityController(
        ControlPlane(servers, registry),
        policy,
        DEFAULT_INTERVAL_SECONDS if interval is None else interval,
    )
    if auto_start:
        controller.start()
    return controller
