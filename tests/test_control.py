"""The online adaptive-fidelity control loop (``repro.control``).

Covers the pure policy dynamics (AIMD bounds, cooldown, hysteresis under
noise), the server cache's group-level counters, the loader hook's window,
log and counters — each hook counting only its own loader's reads — and,
the acceptance scenario, a loader over a local and over a served source
behind a capped link that converges down to a smaller scan group and back
up when the cap lifts, with a bounded number of direction changes.
"""

from __future__ import annotations

import time

import pytest

from repro.control import (
    AdaptiveScanGroupHook,
    BandwidthBudgetPolicy,
    ClientControlState,
    ClientTelemetry,
    StallTargetPolicy,
)
from repro.core import BandwidthThrottle, PCRDataset, PCRReader, RecordSource
from repro.core.scan_groups import ScanGroupDecision
from repro.obs import MetricsRegistry, get_registry
from repro.pipeline import DataLoader, LoaderConfig
from repro.serving.cache import ScanPrefixCache
from repro.serving.client import PCRClient
from repro.serving.remote_source import RemoteFetcher
from repro.serving.server import PCRRecordServer


def _telemetry(scan_group: int, stall: float, n_groups: int = 10, **extra) -> ClientTelemetry:
    """A window whose stall fraction is exactly ``stall`` over 1 s."""
    return ClientTelemetry(
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
# the policies' input


class TestTelemetry:
    def test_window_properties(self):
        window = ClientTelemetry(
            scan_group=4,
            n_groups=10,
            window_seconds=2.0,
            wait_seconds=0.5,
            compute_seconds=1.5,
            bytes_read=1_000_000,
            records_read=12,
            samples=96,
        )
        assert window.stall_fraction == pytest.approx(0.25)
        assert window.throughput_bytes_per_s == pytest.approx(500_000.0)
        assert window.samples_per_s == pytest.approx(48.0)

    def test_zero_window_properties_are_zero(self):
        report = _telemetry(3, 0.0)
        empty = ClientTelemetry(scan_group=1, n_groups=2)
        assert empty.stall_fraction == 0.0
        assert empty.throughput_bytes_per_s == 0.0
        assert report.samples_per_s == 0.0  # no samples reported


# ---------------------------------------------------------------------------
# policies


class TestStallTargetPolicy:
    def test_multiplicative_decrease_on_overload(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 10)
        decision = policy.decide(_telemetry(10, 0.9), state, 1)
        assert decision.direction == "down"
        assert decision.chosen_group == 5
        assert decision.previous_group == 10
        assert "multiplicative decrease" in decision.reason

    def test_additive_increase_on_headroom(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 4)
        decision = policy.decide(_telemetry(4, 0.0), state, 1)
        assert decision.direction == "up"
        assert decision.chosen_group == 5

    def test_decrease_bounded_by_min_group(self):
        policy = StallTargetPolicy(
            target_stall_fraction=0.2, cooldown_intervals=0, min_group=1
        )
        state = ClientControlState()
        _seed(policy, state, 1)
        decision = policy.decide(_telemetry(1, 1.0), state, 1)
        assert decision.direction == "hold"
        assert "floor" in decision.reason
        assert state.group == 1

    def test_increase_bounded_by_n_groups(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 10)
        decision = policy.decide(_telemetry(10, 0.0), state, 1)
        assert decision.direction == "hold"
        assert "ceiling" in decision.reason
        assert state.group == 10

    def test_cooldown_respected_after_switch(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=2)
        state = ClientControlState()
        _seed(policy, state, 8)
        assert policy.decide(_telemetry(8, 0.9), state, 1).direction == "down"
        # The loader applies the steer; the next two overloaded windows at the
        # new group must be cooldown holds, the third may act again.
        for interval in (2, 3):
            held = policy.decide(_telemetry(4, 0.9), state, interval)
            assert held.direction == "hold"
            assert "cooldown" in held.reason
        assert policy.decide(_telemetry(4, 0.9), state, 4).direction == "down"

    def test_awaiting_apply_holds_on_stale_group(self):
        policy = StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 8)
        assert policy.decide(_telemetry(8, 0.9), state, 1).direction == "down"
        # Window still taken at group 8: the loader has not applied yet.
        held = policy.decide(_telemetry(8, 0.9), state, 2)
        assert held.direction == "hold"
        assert "awaiting" in held.reason
        assert state.group == 4

    def test_hysteresis_deadband_absorbs_noise(self):
        policy = StallTargetPolicy(
            target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
        )
        state = ClientControlState()
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

    def test_group_zero_floor_rejected(self):
        """Overloaded at group 1, a zero floor would choose group 0, which
        the hook's ``set_scan_group`` rejects in the reader thread."""
        with pytest.raises(ValueError, match="min_group"):
            StallTargetPolicy(min_group=0)

    def test_decision_payload_and_changed(self):
        decision = ScanGroupDecision(
            chosen_group=3,
            previous_group=6,
            inputs={"stall_fraction": 0.5},
            interval=2,
            reason="r",
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
        state = ClientControlState()
        _seed(policy, state, 10)
        decision = policy.decide(self._report(10, 5000.0), state, 1)
        # 10 samples/s * 500 B = 5000 B/s fits; group 10 would need 10000.
        assert decision.chosen_group == 5
        assert decision.direction == "down"

    def test_falls_back_to_min_group_when_nothing_fits(self):
        policy = BandwidthBudgetPolicy(link_bytes_per_s=10.0, headroom=1.0,
                                       cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 10)
        decision = policy.decide(self._report(10, 10.0), state, 1)
        assert decision.chosen_group == 1

    def test_measured_throughput_used_without_explicit_link(self):
        policy = BandwidthBudgetPolicy(headroom=1.0, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 1)
        # Demonstrated 2000 B/s at 10 samples/s → group 2 (200 B/sample) fits.
        decision = policy.decide(self._report(1, 2000.0), state, 1)
        assert decision.chosen_group == 2
        assert decision.direction == "up"

    @pytest.mark.parametrize(
        "options",
        [
            {"min_group": 0},  # would choose group 0 when no group fits
            {"headroom": 0.0},  # would hold forever: no budget
            {"headroom": -0.5},
            {"link_bytes_per_s": 0.0},
            {"link_bytes_per_s": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, options):
        with pytest.raises(ValueError):
            BandwidthBudgetPolicy(**options)

    def test_holds_without_size_data(self):
        policy = BandwidthBudgetPolicy(link_bytes_per_s=1000.0, cooldown_intervals=0)
        state = ClientControlState()
        _seed(policy, state, 5)
        decision = policy.decide(_telemetry(5, 0.5), state, 1)
        assert decision.direction == "hold"


# ---------------------------------------------------------------------------
# cache: group-level counters


class TestCacheGroupCounters:
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


# ---------------------------------------------------------------------------
# the loader hook: one loader's windows, decisions and steers


class _Recorder:
    """A policy that keeps every window it is asked about, then decides
    as the default policy would."""

    def __init__(self, policy=None):
        self.policy = policy if policy is not None else StallTargetPolicy()
        self.windows: list[ClientTelemetry] = []

    def decide(self, telemetry, state, interval):
        self.windows.append(telemetry)
        return self.policy.decide(telemetry, state, interval)


@pytest.fixture(params=["local", "remote"])
def open_source(request, pcr_dataset):
    """``open_source()``: a source over the session dataset, read through a
    local ``PCRReader`` or a wire client to a running server, behind one
    ``BandwidthThrottle`` link (``source.fetcher``) that starts uncapped."""
    directory = pcr_dataset.reader.directory
    if request.param == "local":
        with RecordSource(BandwidthThrottle(PCRReader(directory), None)) as source:
            yield lambda: source
    else:
        with PCRRecordServer(directory, port=0) as server:
            fetcher = RemoteFetcher(PCRClient(port=server.port))
            with RecordSource(BandwidthThrottle(fetcher, None)) as source:
                yield lambda: source


def _counters() -> dict:
    return get_registry().snapshot()["counters"]


class TestAdaptiveSource:
    def test_step_closes_the_window_and_applies_the_decision(self, open_source):
        source = open_source()
        recorder = _Recorder(StallTargetPolicy(target_stall_fraction=0.2, cooldown_intervals=0))
        hook = AdaptiveScanGroupHook(policy=recorder, interval=3600.0)
        loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=1), hook=hook)
        list(loader.epoch())
        stalls = loader.stalls
        stalls.record_wait(50.0)  # dwarfs the epoch's own wait and compute
        assert hook.step().reason == "seeded from first window"
        window = recorder.windows[0]
        assert window.stall_fraction > 0.9
        assert window.records_read == len(source.record_names)
        assert window.bytes_read == source.epoch_bytes()
        assert window.samples == len(source)
        assert window.bytes_per_sample_by_group[10] > window.bytes_per_sample_by_group[1]
        before = _counters()
        stalls.record_wait(0.9)
        stalls.record_compute(0.1)
        decision = hook.step()
        assert decision.direction == "down" and decision.chosen_group == 5
        assert recorder.windows[1].records_read == 0  # the window restarted
        assert loader.scan_group == 5  # applied through the loader's set_scan_group
        assert source.scan_group == 10  # the source is not switched
        after = _counters()
        for name, delta in (("control.decisions_total", 1), ("control.steps_down_total", 1)):
            assert after[name] - before.get(name, 0) == delta
        log = hook.decision_log()
        assert [entry["direction"] for entry in log] == ["hold", "down"]
        assert [entry["interval"] for entry in log] == [0, 1]
        switches = hook.switch_log()
        assert len(switches) == 1
        assert switches[0]["chosen_group"] == 5
        assert switches[0]["inputs"]["stall_fraction"] == pytest.approx(0.9)

    def test_time_based_steps_at_record_boundaries(self, open_source):
        hook = AdaptiveScanGroupHook(interval=0.0)  # every record read ends a window
        loader = DataLoader(open_source(), LoaderConfig(batch_size=8, n_workers=1), hook=hook)
        list(loader.epoch())
        assert len(hook.decision_log()) == len(loader.dataset.record_names)

    def test_each_hook_counts_only_its_own_loaders_reads(self, open_source):
        """Two loaders over one source, at groups 1 and 10: each hook's
        window sees exactly its own loader's bytes and samples, while the
        source's shared counters and its one link see the sum."""
        source = open_source()
        hooks = {}
        for group in (1, 10):
            hooks[group] = AdaptiveScanGroupHook(policy=_Recorder(), interval=3600.0)
            loader = DataLoader(source, LoaderConfig(batch_size=8, n_workers=2), hook=hooks[group])
            loader.set_scan_group(group)
            list(loader.epoch())
        for group, hook in hooks.items():
            hook.step()
            window = hook.policy.windows[0]
            assert (window.bytes_read, window.samples) == (source.epoch_bytes(group), len(source))
            assert window.records_read == len(source.record_names)
        assert source.stats.bytes_read == source.epoch_bytes(1) + source.epoch_bytes(10)
        assert source.fetcher.bytes_charged == source.epoch_bytes(1) + source.epoch_bytes(10)

    def test_one_hook_steers_one_loader(self, pcr_dataset):
        with PCRDataset(pcr_dataset.reader.directory) as source:
            hook = AdaptiveScanGroupHook()
            DataLoader(source, hook=hook)
            with pytest.raises(ValueError, match="already steers"):
                DataLoader(source, hook=hook)


class TestClosedLoopEndToEnd:
    """The acceptance scenario: cap the link, converge down; lift, converge up."""

    def _run_interval(self, loader, compute_seconds=0.05):
        for _ in loader.epoch():
            time.sleep(compute_seconds)
        if loader.hook is not None:
            loader.hook.step()

    def test_steered_reads_fewer_bytes_than_hookless(self, open_source):
        """Behind a link on which a full-fidelity epoch takes four times the
        epoch's compute, the hooked loader settles below ``n_groups`` and
        reads fewer bytes per sample than a hook-less loader over the same
        source and link, which stays at ``n_groups``."""
        source = open_source()
        n_groups = source.n_groups
        config = LoaderConfig(batch_size=8, n_workers=1, shuffle=False)
        unsteered = DataLoader(source, config)
        epoch_compute = 0.05 * unsteered.batches_per_epoch()  # _run_interval's sleeps
        source.fetcher.set_rate(source.epoch_bytes() / (4 * epoch_compute))
        steered = DataLoader(
            source,
            config,
            hook=AdaptiveScanGroupHook(
                policy=StallTargetPolicy(
                    target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
                ),
                interval=3600.0,
            ),
        )
        steady = {}
        for loader in (steered, unsteered):
            for _ in range(3):
                self._run_interval(loader)
            stats = source.stats
            bytes_before, samples_before = stats.bytes_read, stats.samples_decoded
            for _ in range(2):  # the steady state: the last two intervals
                self._run_interval(loader)
            steady[loader] = (stats.bytes_read - bytes_before) / (
                stats.samples_decoded - samples_before
            )
        assert unsteered.scan_group == n_groups
        assert steady[unsteered] == source.epoch_bytes() / len(source)
        assert steered.scan_group < n_groups
        assert steady[steered] < steady[unsteered]

    def test_capped_link_converges_down_then_back_up(self, open_source):
        source = open_source()
        link = source.fetcher
        link.set_rate(40_000)  # a heavily capped link
        loader = DataLoader(
            source,
            LoaderConfig(batch_size=8, n_workers=1, shuffle=False),
            hook=AdaptiveScanGroupHook(
                policy=StallTargetPolicy(
                    target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
                ),
                interval=3600.0,  # one explicit step per interval
            ),
        )
        n_groups = source.n_groups
        assert loader.scan_group == n_groups
        trajectory = [loader.scan_group]
        # Convergence down must happen within a bounded number of control
        # intervals: multiplicative decrease halves the group every
        # interval, so ceil(log2(n_groups)) + seeding suffices.
        for _ in range(6):
            self._run_interval(loader)
            trajectory.append(loader.scan_group)
        converged_down = loader.scan_group
        assert converged_down < n_groups
        assert trajectory[1:] == sorted(trajectory[1:], reverse=True), (
            f"no oscillation while capped: {trajectory}"
        )
        # Lift the cap: the loop must converge back up to full fidelity
        # without oscillating.
        link.set_rate(None)
        for _ in range(n_groups + 4):
            self._run_interval(loader)
            trajectory.append(loader.scan_group)
            if loader.scan_group == n_groups:
                break
        assert loader.scan_group == n_groups, trajectory
        # Decision-log bound: after the capped phase's convergence, the
        # switch directions form at most two runs (downs, then ups) — ≤ 1
        # direction change across the whole scenario.
        directions = [s["direction"] for s in loader.hook.switch_log()]
        changes = sum(1 for a, b in zip(directions, directions[1:]) if a != b)
        assert changes <= 1, directions
        assert directions[0] == "down"
        assert directions[-1] == "up"
