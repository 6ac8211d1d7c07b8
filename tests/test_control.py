"""The online adaptive-fidelity control loop (``repro.control``).

Covers the pure policy dynamics (AIMD bounds, cooldown, hysteresis under
noise), the telemetry store and wire op, the cache's group-level counters
and admission bias, the controller's step mechanics against a fake plane,
the cluster plane, and — the acceptance scenario — a real bandwidth-capped
loader that converges down to a smaller scan group and back up when the
cap lifts, with a bounded number of direction changes.
"""

from __future__ import annotations

import time

import pytest

from repro.control import (
    AdaptiveScanGroupSource,
    BandwidthBudgetPolicy,
    ClientControlState,
    ClientTelemetry,
    ControlPlane,
    FidelityController,
    ScanGroupHint,
    StallTargetPolicy,
    TelemetryStore,
)
from repro.core.dataset import PCRDataset
from repro.core.scan_groups import ScanGroupDecision
from repro.obs import MetricsRegistry
from repro.pipeline import BandwidthThrottle, DataLoader, LoaderConfig
from repro.serving.client import PCRClient
from repro.serving.cluster.client import ClusterClient
from repro.serving.cluster.coordinator import ClusterCoordinator
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.cache import ScanPrefixCache
from repro.serving.server import PCRRecordServer


def _telemetry(
    scan_group: int,
    stall: float,
    n_groups: int = 10,
    client_id: str = "c0",
    **extra,
) -> ClientTelemetry:
    """A report whose stall fraction is exactly ``stall`` over a 1s window."""
    return ClientTelemetry(
        client_id=client_id,
        scan_group=scan_group,
        n_groups=n_groups,
        window_seconds=1.0,
        wait_seconds=stall,
        compute_seconds=1.0 - stall,
        **extra,
    )


def _seed(policy, state, group: int, n_groups: int = 10) -> None:
    """Consume the first-report seeding hold so the next decide() is live."""
    decision = policy.decide(_telemetry(group, 0.0, n_groups), state, 0)
    assert decision.direction == "hold"
    assert state.group == group


# ---------------------------------------------------------------------------
# telemetry dataclasses and store


class TestTelemetry:
    def test_payload_round_trip(self):
        report = ClientTelemetry(
            client_id="worker-1",
            scan_group=4,
            n_groups=10,
            window_seconds=2.0,
            wait_seconds=0.5,
            compute_seconds=1.5,
            bytes_read=1_000_000,
            records_read=12,
            samples=96,
            bytes_per_sample_by_group={1: 200.0, 10: 1200.0},
        )
        restored = ClientTelemetry.from_payload(report.to_payload())
        assert restored.client_id == "worker-1"
        assert restored.bytes_per_sample_by_group == {1: 200.0, 10: 1200.0}
        assert restored.stall_fraction == pytest.approx(0.25)
        assert restored.throughput_bytes_per_s == pytest.approx(500_000.0)
        assert restored.samples_per_s == pytest.approx(48.0)

    def test_zero_window_properties_are_zero(self):
        report = _telemetry(3, 0.0)
        empty = ClientTelemetry(client_id="c", scan_group=1, n_groups=2)
        assert empty.stall_fraction == 0.0
        assert empty.throughput_bytes_per_s == 0.0
        assert report.samples_per_s == 0.0  # no samples reported

    def test_hint_round_trip(self):
        hint = ScanGroupHint(scan_group=3, reason="because", decision_id=7)
        assert ScanGroupHint.from_payload(hint.to_payload()) == hint

    def test_store_update_returns_standing_hint(self):
        store = TelemetryStore()
        assert store.update(_telemetry(5, 0.1)) is None
        store.set_hint("c0", ScanGroupHint(scan_group=2, reason="steer"))
        hint = store.update(_telemetry(5, 0.1))
        assert hint is not None and hint.scan_group == 2
        assert len(store) == 1

    def test_store_prunes_stale_clients(self):
        store = TelemetryStore(max_report_age=0.05)
        store.update(_telemetry(5, 0.1, client_id="old"))
        store.set_hint("old", ScanGroupHint(scan_group=1))
        time.sleep(0.08)
        store.update(_telemetry(5, 0.1, client_id="fresh"))
        latest = store.latest()
        assert set(latest) == {"fresh"}
        assert store.hint_for("old") is None


# ---------------------------------------------------------------------------
# policies


class TestStallTargetPolicy:
    def test_multiplicative_decrease_on_overload(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 10)
        decision = policy.decide(_telemetry(10, 0.9), state, 1)
        assert decision.direction == "down"
        assert decision.chosen_group == 5
        assert decision.previous_group == 10
        assert "multiplicative decrease" in decision.reason

    def test_additive_increase_on_headroom(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 4)
        decision = policy.decide(_telemetry(4, 0.0), state, 1)
        assert decision.direction == "up"
        assert decision.chosen_group == 5

    def test_decrease_bounded_by_min_group(self):
        policy = StallTargetPolicy(
            target_stall_fraction=0.2, cooldown_intervals=0, min_group=1
        )
        state = ClientControlState("c0")
        _seed(policy, state, 1)
        decision = policy.decide(_telemetry(1, 1.0), state, 1)
        assert decision.direction == "hold"
        assert "floor" in decision.reason
        assert state.group == 1

    def test_increase_bounded_by_n_groups(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 10)
        decision = policy.decide(_telemetry(10, 0.0), state, 1)
        assert decision.direction == "hold"
        assert "ceiling" in decision.reason
        assert state.group == 10

    def test_cooldown_respected_after_switch(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=2)
        state = ClientControlState("c0")
        _seed(policy, state, 8)
        assert policy.decide(_telemetry(8, 0.9), state, 1).direction == "down"
        # The client applies the hint; the next two overloaded reports at the
        # new group must be cooldown holds, the third may act again.
        for interval in (2, 3):
            held = policy.decide(_telemetry(4, 0.9), state, interval)
            assert held.direction == "hold"
            assert "cooldown" in held.reason
        assert policy.decide(_telemetry(4, 0.9), state, 4).direction == "down"

    def test_awaiting_apply_holds_on_stale_group(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 8)
        assert policy.decide(_telemetry(8, 0.9), state, 1).direction == "down"
        # Telemetry still taken at group 8: the client has not applied yet.
        held = policy.decide(_telemetry(8, 0.9), state, 2)
        assert held.direction == "hold"
        assert "awaiting" in held.reason
        assert state.group == 4

    def test_hysteresis_deadband_absorbs_noise(self):
        policy = StallTargetPolicy(
            target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
        )
        state = ClientControlState("c0")
        _seed(policy, state, 5)
        # Deadband is [0.1, 0.3]: noisy stall readings inside it never move
        # the group — this is what prevents oscillation around the target.
        for interval, stall in enumerate((0.12, 0.28, 0.19, 0.25, 0.11), start=1):
            decision = policy.decide(_telemetry(5, stall), state, interval)
            assert decision.direction == "hold"
            assert "deadband" in decision.reason
        assert state.group == 5
        assert state.direction_changes == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StallTargetPolicy(decrease_factor=1.0)
        with pytest.raises(ValueError):
            StallTargetPolicy(increase_step=0)

    def test_decision_payload_and_changed(self):
        decision = ScanGroupDecision(
            chosen_group=3,
            previous_group=6,
            inputs={"stall_fraction": 0.5},
            interval=2,
            reason="r",
            client_id="c0",
        )
        assert decision.changed
        payload = decision.to_payload()
        assert payload["chosen_group"] == 3
        assert payload["previous_group"] == 6
        assert payload["interval"] == 2
        assert payload["inputs"] == {"stall_fraction": 0.5}
        # The payload renames nothing: its keys are the field names + direction.
        assert set(payload) == set(decision.__dataclass_fields__) | {"direction"}
        assert payload["direction"] == "down"
        assert ScanGroupDecision(**{k: v for k, v in payload.items() if k != "direction"}) == decision

    @pytest.mark.parametrize(
        "previous, chosen, direction",
        [(3, 5, "up"), (5, 3, "down"), (4, 4, "hold"), (None, 4, "hold")],
        ids=["up", "down", "hold", "first-seed"],
    )
    def test_direction_is_derived_from_the_two_groups(self, previous, chosen, direction):
        decision = ScanGroupDecision(
            chosen_group=chosen, previous_group=previous, inputs={}, interval=0
        )
        assert decision.direction == direction
        assert decision.changed == (direction != "hold")


class TestBandwidthBudgetPolicy:
    SIZES = {1: 100.0, 2: 200.0, 5: 500.0, 10: 1000.0}

    def _report(self, group: int, link_bytes_per_s: float, samples_per_s: float = 10.0):
        return _telemetry(
            group,
            0.5,
            bytes_read=int(link_bytes_per_s),
            samples=int(samples_per_s),
            bytes_per_sample_by_group=self.SIZES,
        )

    def test_picks_largest_fitting_group(self):
        policy = BandwidthBudgetPolicy(link_bytes_per_s=5000.0, headroom=1.0,
                                       cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 10)
        decision = policy.decide(self._report(10, 5000.0), state, 1)
        # 10 samples/s * 500 B = 5000 B/s fits; group 10 would need 10000.
        assert decision.chosen_group == 5
        assert decision.direction == "down"

    def test_falls_back_to_min_group_when_nothing_fits(self):
        policy = BandwidthBudgetPolicy(link_bytes_per_s=10.0, headroom=1.0,
                                       cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 10)
        decision = policy.decide(self._report(10, 10.0), state, 1)
        assert decision.chosen_group == 1

    def test_measured_throughput_used_without_explicit_link(self):
        policy = BandwidthBudgetPolicy(headroom=1.0, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 1)
        # Demonstrated 2000 B/s at 10 samples/s → group 2 (200 B/sample) fits.
        decision = policy.decide(self._report(1, 2000.0), state, 1)
        assert decision.chosen_group == 2
        assert decision.direction == "up"

    def test_holds_without_size_data(self):
        policy = BandwidthBudgetPolicy(link_bytes_per_s=1000.0, cooldown_intervals=0)
        state = ClientControlState("c0")
        _seed(policy, state, 5)
        decision = policy.decide(_telemetry(5, 0.5), state, 1)
        assert decision.direction == "hold"


# ---------------------------------------------------------------------------
# cache: group-level counters and admission bias


class TestCacheGroupCountersAndBias:
    def test_per_group_admissions_and_evictions(self):
        cache = ScanPrefixCache(capacity_bytes=250)
        cache.put("a", 3, b"x" * 100)
        cache.put("b", 3, b"y" * 100)
        cache.put("c", 1, b"z" * 100)  # evicts "a" (LRU)
        stats = cache.stats()
        assert stats["admissions"] == 3
        assert stats["admissions_by_group"] == {"1": 1, "3": 2}
        assert stats["evictions"] == 1
        assert stats["evictions_by_group"] == {"3": 1}

    def test_group_counters_exported_to_registry(self):
        registry = MetricsRegistry()
        cache = ScanPrefixCache(capacity_bytes=1000, registry=registry)
        cache.put("a", 2, b"x" * 10)
        assert cache.get("a", 1, 5) is not None
        assert cache.get("b", 3, 5) is None
        counters = registry.snapshot()["counters"]
        assert counters["serving.cache.group.2.admissions_total"] == 1
        assert counters["serving.cache.group.1.hits_total"] == 1
        assert counters["serving.cache.group.1.bytes_served_total"] == 5
        assert counters["serving.cache.group.3.misses_total"] == 1
        assert counters["serving.cache.admissions_total"] == 1

    def test_admission_bias_skips_higher_groups_under_pressure(self):
        cache = ScanPrefixCache(capacity_bytes=200)
        cache.put("a", 2, b"x" * 100)  # occupancy 100/200: at the threshold
        cache.set_admission_bias({2})
        cache.put("b", 5, b"y" * 50)  # above the steered set → skipped
        assert len(cache) == 1
        assert cache.get("b", 5, 50) is None  # "b" was never admitted
        # At or below the steered ceiling admission is unaffected.
        cache.put("c", 1, b"z" * 10)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["bias_skips"] == 1
        assert stats["admission_bias"] == [2]

    def test_admission_bias_inactive_when_cache_empty_or_cleared(self):
        cache = ScanPrefixCache(capacity_bytes=1000)
        cache.set_admission_bias({1})
        cache.put("a", 9, b"x" * 10)  # cache nearly empty: admit anyway
        assert len(cache) == 1
        cache.set_admission_bias(None)
        cache.put("b", 9, b"y" * 600)
        cache.put("c", 9, b"z" * 10)
        assert cache.stats()["bias_skips"] == 0


# ---------------------------------------------------------------------------
# wire op


class TestReportTelemetryWire:
    def test_report_and_ack_without_controller(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            with PCRClient(port=server.port) as client:
                ack = client.report_telemetry(_telemetry(5, 0.4).to_payload())
                assert ack == {"controller_active": False, "hint": None}
                reports = server.telemetry.latest()
                assert reports["c0"].scan_group == 5
                assert reports["c0"].stall_fraction == pytest.approx(0.4)
                snapshot = server.metrics_snapshot()["registry"]
                assert snapshot["counters"]["serving.telemetry.reports_total"] == 1
                assert (
                    snapshot["counters"]["serving.requests.report_telemetry_total"] == 1
                )
                assert snapshot["gauges"]["serving.telemetry.clients"] == 1

    def test_ack_carries_standing_hint(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            server.telemetry.set_hint("c0", ScanGroupHint(scan_group=2, reason="steer"))
            with PCRClient(port=server.port) as client:
                ack = client.report_telemetry(_telemetry(9, 0.8).to_payload())
                assert ack["hint"]["scan_group"] == 2
                assert ack["hint"]["reason"] == "steer"

    def test_malformed_report_is_protocol_error(self, pcr_dataset):
        from repro.serving.protocol import RemoteError

        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            with PCRClient(port=server.port) as client:
                with pytest.raises(RemoteError):
                    client.report_telemetry({"not": "telemetry"})
                # The connection survives the error frame.
                assert client.report_telemetry(_telemetry(1, 0.0).to_payload())


# ---------------------------------------------------------------------------
# controller mechanics (fake plane, fully deterministic)


class _FakePlane:
    def __init__(self):
        self.registry = MetricsRegistry()
        self.reports: dict[str, ClientTelemetry] = {}
        self.hints: dict[str, ScanGroupHint] = {}
        self.bias_history: list[set[int] | None] = []

    def poll(self):
        return dict(self.reports)

    def publish(self, client_id, hint):
        self.hints[client_id] = hint

    def set_admission_bias(self, groups):
        self.bias_history.append(groups)


class TestFidelityController:
    def _controller(self, **policy_kwargs):
        plane = _FakePlane()
        policy = StallTargetPolicy(
            target_stall_fraction=0.2, cooldown_intervals=0, **policy_kwargs
        )
        return plane, FidelityController(plane, policy, interval=60.0)

    def test_step_publishes_hint_and_updates_metrics(self):
        plane, controller = self._controller()
        plane.reports["c0"] = _telemetry(10, 0.9)
        controller.step()  # seeding interval
        decisions = controller.step()
        assert decisions[0].direction == "down"
        assert plane.hints["c0"].scan_group == 5
        assert "multiplicative decrease" in plane.hints["c0"].reason
        counters = plane.registry.snapshot()["counters"]
        assert counters["control.intervals_total"] == 2
        assert counters["control.decisions_total"] == 2
        assert counters["control.steps_down_total"] == 1
        assert counters["control.holds_total"] == 1
        gauges = plane.registry.snapshot()["gauges"]
        assert gauges["control.client.c0.scan_group"] == 5
        assert gauges["control.clients_tracked"] == 1

    def test_bias_follows_steered_groups(self):
        plane, controller = self._controller()
        plane.reports["c0"] = _telemetry(10, 0.9)
        controller.step()
        assert plane.bias_history[-1] == {10}
        controller.step()
        assert plane.bias_history[-1] == {5}

    def test_departed_clients_are_forgotten(self):
        plane, controller = self._controller()
        plane.reports["c0"] = _telemetry(10, 0.9)
        plane.reports["c1"] = _telemetry(4, 0.1)
        controller.step()
        assert set(controller.states()) == {"c0", "c1"}
        del plane.reports["c1"]
        controller.step()
        assert set(controller.states()) == {"c0"}
        assert plane.registry.snapshot()["gauges"]["control.clients_tracked"] == 1

    def test_decision_log_and_switch_log(self):
        plane, controller = self._controller()
        plane.reports["c0"] = _telemetry(10, 0.9)
        controller.step()
        controller.step()
        log = controller.decision_log("c0")
        assert len(log) == 2
        assert [entry["direction"] for entry in log] == ["hold", "down"]
        switches = controller.switch_log()
        assert len(switches) == 1
        assert switches[0]["chosen_group"] == 5
        assert switches[0]["inputs"]["stall_fraction"] == pytest.approx(0.9)

    def test_thread_lifecycle(self):
        plane, controller = self._controller()
        plane.reports["c0"] = _telemetry(10, 0.9)
        controller.interval = 0.01
        with controller:
            assert controller.running
            deadline = time.monotonic() + 2.0
            while controller.intervals < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not controller.running
        assert controller.intervals >= 3

    def test_start_after_stop_steps_again(self):
        """A stopped controller restarts for real: the second thread used to
        exit on its first wait (the stop event stayed set) without an error."""
        plane, controller = self._controller()
        controller.interval = 0.01
        controller.start()
        controller.stop()
        stopped_at = controller.intervals
        controller.start()
        try:
            assert controller.running
            deadline = time.monotonic() + 2.0
            while controller.intervals < stopped_at + 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert controller.intervals >= stopped_at + 3
            with pytest.raises(RuntimeError):
                controller.start()
        finally:
            controller.stop()
        assert not controller.running


# ---------------------------------------------------------------------------
# server- and cluster-owned controllers


class TestOwnedControllers:
    def test_server_controller_closes_loop_over_the_wire(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            controller = server.start_controller(
                policy=StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0),
                auto_start=False,
            )
            assert server.controller is controller
            with pytest.raises(RuntimeError):
                server.start_controller()
            with PCRClient(port=server.port) as client:
                ack = client.report_telemetry(_telemetry(10, 0.9).to_payload())
                assert ack["controller_active"] is True
                controller.step()  # seeds
                controller.step()  # steers down
                ack = client.report_telemetry(_telemetry(10, 0.9).to_payload())
                assert ack["hint"]["scan_group"] == 5
                # control.* metrics ride the same registry GET_METRICS serves.
                scraped = client.metrics()["registry"]["counters"]
                assert scraped["control.steps_down_total"] == 1
            # The admission bias followed the steer onto the server cache.
            assert server.cache.stats()["admission_bias"] == [5]

    def test_cluster_controller_merges_and_publishes_fleet_wide(self, pcr_dataset):
        with ClusterCoordinator(
            pcr_dataset.reader.directory, n_shards=2, n_replicas=1
        ) as cluster:
            controller = cluster.start_controller(
                policy=StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0),
                auto_start=False,
            )
            with ClusterClient(cluster.shard_map) as client:
                ack = client.report_telemetry(_telemetry(10, 0.9).to_payload())
                assert ack["controller_active"] is True
                controller.step()
                controller.step()
                # The hint was published to every replica: whichever shard
                # answers the next report must return it.
                ack = client.report_telemetry(_telemetry(10, 0.9).to_payload())
                assert ack["hint"]["scan_group"] == 5
                # Every replica's cache got the fleet bias.
                for server in cluster.running_servers():
                    assert server.cache.stats()["admission_bias"] == [5]
                # The fleet sweep sees both reports, whichever replica took them.
                merged = cluster.stats()["merged"]["counters"]
                assert merged["serving.telemetry.reports_total"] == 2
                # The replica that answers reports, restarted under the
                # controller, is polled from the next interval on — and says so.
                first = cluster.shard_map.shard_ids[0]
                cluster.stop_replica(first, 0)
                cluster.restart_replica(first, 0)
                controller.step()
                ack = client.report_telemetry(_telemetry(10, 0.9).to_payload())
                assert ack["controller_active"] is True


# ---------------------------------------------------------------------------
# the one control plane, over one server and over a fleet


@pytest.fixture(params=["server", "fleet"])
def steered(request, pcr_dataset):
    """``(plane, live)``: a :class:`ControlPlane` and the callable it asks for
    its servers — one server, or the running replicas of a 2 x 1 fleet."""
    directory = pcr_dataset.reader.directory
    if request.param == "server":
        with PCRRecordServer(directory, port=0) as server:

            def live():
                return [server]

            yield ControlPlane(live, server.registry), live
    else:
        with ClusterCoordinator(directory, n_shards=2, n_replicas=1) as cluster:
            live = cluster.running_servers
            yield ControlPlane(live, MetricsRegistry()), live


class TestControlPlane:
    def test_adopting_a_store_turns_controller_active_on(self, steered):
        _, live = steered
        assert all(server.telemetry.steered for server in live())

    def test_poll_keeps_the_freshest_report_per_client(self, steered):
        plane, live = steered
        servers = live()
        servers[0].telemetry.update(_telemetry(9, 0.1))
        servers[-1].telemetry.update(_telemetry(4, 0.7))  # later: the one that counts
        servers[0].telemetry.update(_telemetry(6, 0.2, client_id="c1"))
        reports = plane.poll()
        assert set(reports) == {"c0", "c1"}
        assert reports["c0"].scan_group == 4
        assert reports["c1"].scan_group == 6

    def test_publish_and_bias_reach_every_server(self, steered):
        plane, live = steered
        hint = ScanGroupHint(scan_group=3, reason="steer", decision_id=1)
        plane.publish("c0", hint)
        plane.set_admission_bias({3})
        for server in live():
            assert server.telemetry.hint_for("c0") == hint
            assert server.cache.stats()["admission_bias"] == [3]
        plane.publish("c0", None)
        assert all(server.telemetry.hint_for("c0") is None for server in live())

    def test_replica_restarted_between_steps_is_steered_on_the_next(self, pcr_dataset):
        with ClusterCoordinator(
            pcr_dataset.reader.directory, n_shards=2, n_replicas=1
        ) as cluster:
            controller = cluster.start_controller(
                policy=StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0),
                auto_start=False,
            )
            first = cluster.shard_map.shard_ids[0]
            cluster.running_servers()[0].telemetry.update(_telemetry(10, 0.9))
            controller.step()  # seeds c0 at group 10
            cluster.stop_replica(first, 0)
            cluster.restart_replica(first, 0)
            fresh = cluster.running_servers()[0]
            assert not fresh.telemetry.steered
            fresh.telemetry.update(_telemetry(10, 0.9))
            decisions = controller.step()
            assert [d.direction for d in decisions] == ["down"]  # polled
            assert fresh.telemetry.steered
            assert fresh.telemetry.hint_for("c0").scan_group == 5
            assert fresh.cache.stats()["admission_bias"] == [5]  # biased


# ---------------------------------------------------------------------------
# adaptive source + end-to-end convergence


class TestAdaptiveSource:
    def test_rejects_a_source_that_cannot_report(self, pcr_dataset):
        """A local dataset has no controller to report to: say so up front
        instead of failing (or silently dropping reports) mid-epoch."""
        with PCRDataset(pcr_dataset.reader.directory) as local:
            with pytest.raises(TypeError, match="cannot report_telemetry"):
                AdaptiveScanGroupSource(local)

    def test_report_now_ships_window_and_applies_hint(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            controller = server.start_controller(
                policy=StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0),
                auto_start=False,
            )
            with AdaptiveScanGroupSource(
                RemoteRecordSource(port=server.port), client_id="c0"
            ) as source:
                from repro.pipeline.stall import StallTracker

                stalls = StallTracker(registry=MetricsRegistry())
                source.bind_stall_tracker(stalls)
                source.read_record(source.record_names[0])
                stalls.record_wait(0.9)
                stalls.record_compute(0.1)
                assert source.report_now() is None  # no hint yet: seeding step pending
                report = server.telemetry.latest()["c0"]
                assert report.stall_fraction == pytest.approx(0.9)
                assert report.records_read == 1
                assert report.bytes_read > 0
                assert report.bytes_per_sample_by_group[10] > report.bytes_per_sample_by_group[1]
                controller.step()
                stalls.record_wait(0.9)
                stalls.record_compute(0.1)
                hint = source.report_now()
                controller.step()
                stalls.record_wait(0.9)
                stalls.record_compute(0.1)
                hint = source.report_now()
                assert hint is not None and hint.scan_group == 5
                assert source.scan_group == 5  # applied through set_scan_group
                assert source.hints_applied == 1

    def test_time_based_auto_report_at_fetch_boundaries(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            with AdaptiveScanGroupSource(
                RemoteRecordSource(port=server.port),
                client_id="auto",
                report_interval=0.0,  # every fetch boundary is a window edge
            ) as source:
                source.read_record(source.record_names[0])
                source.read_record(source.record_names[1])
                assert source.reports_sent >= 1
                assert "auto" in server.telemetry.latest()

    def test_report_errors_are_swallowed(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            source = AdaptiveScanGroupSource(
                RemoteRecordSource(port=server.port), client_id="c0"
            )
        # Server stopped: reporting must not raise, only count the error.
        assert source.report_now() is None
        source.close()


class TestClosedLoopEndToEnd:
    """The acceptance scenario: cap the link, converge down; lift, converge up."""

    def _run_interval(self, loader, source, controller, compute_seconds=0.05):
        for _ in loader.epoch():
            time.sleep(compute_seconds)
        source.report_now()
        controller.step()
        source.report_now()  # pick up the hint the step just published

    def test_capped_link_converges_down_then_back_up(self, pcr_dataset):
        with PCRRecordServer(pcr_dataset.reader.directory, port=0) as server:
            controller = server.start_controller(
                policy=StallTargetPolicy(
                    target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
                ),
                auto_start=False,
            )
            throttle = BandwidthThrottle(40_000)  # a heavily capped link
            with AdaptiveScanGroupSource(
                RemoteRecordSource(port=server.port),
                client_id="trainer",
                report_interval=3600.0,  # reporting is explicit, per interval
                throttle=throttle,
            ) as source:
                loader = DataLoader(
                    source, LoaderConfig(batch_size=8, n_workers=1, shuffle=False)
                )
                n_groups = source.n_groups
                assert source.scan_group == n_groups
                trajectory = [source.scan_group]
                # Convergence down must happen within a bounded number of
                # control intervals: multiplicative decrease halves the group
                # every interval, so ceil(log2(n_groups)) + seeding suffices.
                for _ in range(6):
                    self._run_interval(loader, source, controller)
                    trajectory.append(source.scan_group)
                converged_down = source.scan_group
                assert converged_down < n_groups
                assert trajectory[1:] == sorted(trajectory[1:], reverse=True), (
                    f"no oscillation while capped: {trajectory}"
                )
                # Lift the cap: the loop must converge back up to full
                # fidelity without oscillating.
                throttle.set_rate(None)
                for _ in range(n_groups + 4):
                    self._run_interval(loader, source, controller)
                    trajectory.append(source.scan_group)
                    if source.scan_group == n_groups:
                        break
                assert source.scan_group == n_groups, trajectory
                # Decision-log bound: after the capped phase's convergence,
                # the switch directions form at most two runs (downs, then
                # ups) — ≤ 1 direction change across the whole scenario.
                directions = [s["direction"] for s in controller.switch_log()]
                changes = sum(
                    1 for a, b in zip(directions, directions[1:]) if a != b
                )
                assert changes <= 1, directions
                assert directions[0] == "down"
                assert directions[-1] == "up"