"""Closed-loop autotune benchmark: the loader hook against degraded serving.

Exercises the :mod:`repro.control` feedback loop end to end — real server,
real ``DataLoader`` carrying an ``AdaptiveScanGroupHook`` — under the
failure scenarios the loop exists for, each with the controller ON (the
hook steps its policy once per interval) vs OFF (the same hook and link,
never stepped):

* ``capped_link`` — one trainer behind a bandwidth-capped link
  (:class:`~repro.pipeline.stall.BandwidthThrottle`): the hook must
  converge the scan group down within a bounded number of control
  intervals and hold a lower steady-state stall fraction than the
  uncontrolled run, then converge back up when the cap lifts;
* ``mixed_fidelity_fleet`` — three trainers with different link budgets
  on one server, each steered by its own hook: each converges to its own
  fidelity;
* ``degraded_replica`` — a sharded cluster that loses one replica per
  shard mid-run while its effective link degrades: the hook steers down
  while its loader reads through the client's failover path.

Results are merged into ``BENCH_serving.json`` as an ``autotune`` section:

    PYTHONPATH=src python benchmarks/bench_autotune.py
    PYTHONPATH=src python benchmarks/bench_autotune.py --quick

or through pytest (quick-mode smoke assertions only, no JSON):

    PYTHONPATH=src python -m pytest benchmarks/bench_autotune.py -q
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.control import AdaptiveScanGroupHook, StallTargetPolicy
from repro.core.dataset import PCRDataset
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.pipeline.stall import BandwidthThrottle
from repro.serving.cluster.coordinator import ClusterCoordinator
from repro.serving.cluster.remote_source import ShardedRemoteRecordSource
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.server import PCRRecordServer


def _build_dataset(workdir: str, n_samples: int, image_size: int, per_record: int) -> PCRDataset:
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=image_size), seed=11
    )
    samples = generator.generate_batch(n_samples, seed=11)
    return PCRDataset.build(samples, workdir, images_per_record=per_record, quality=90)


def _policy() -> StallTargetPolicy:
    return StallTargetPolicy(
        target_stall_fraction=0.2, hysteresis=0.5, cooldown_intervals=0
    )


class _Trainer:
    """One training client: a source + an adaptive loader + compute budget.

    The hook's interval never ends on its own; ``steered`` trainers end it
    with one ``hook.step()`` per interval, the others never do.
    """

    def __init__(self, source, batch_size: int, compute_seconds_per_batch: float,
                 throttle: BandwidthThrottle, steered: bool = True) -> None:
        self.source = source
        self.steered = steered
        self.hook = AdaptiveScanGroupHook(
            policy=_policy(), interval=3600.0, throttle=throttle
        )
        self.loader = DataLoader(
            source,
            LoaderConfig(batch_size=batch_size, n_workers=1, shuffle=False),
            hook=self.hook,
        )
        self.compute_seconds_per_batch = compute_seconds_per_batch
        self.intervals: list[dict] = []

    def run_interval(self) -> dict:
        """One control interval: an epoch of 'training', then a steer."""
        stalls = self.loader.stalls
        stats = self.source.stats
        wait0, compute0 = stalls.total_wait, stalls.total_compute
        bytes0, samples0 = stats.bytes_read, stats.samples_decoded
        start = time.perf_counter()
        for _ in self.loader.epoch():
            time.sleep(self.compute_seconds_per_batch)
        elapsed = time.perf_counter() - start
        if self.steered:
            self.hook.step()
        wait = stalls.total_wait - wait0
        compute = stalls.total_compute - compute0
        n_bytes = stats.bytes_read - bytes0
        n_samples = stats.samples_decoded - samples0
        row = {
            "scan_group": self.loader.scan_group,
            "stall_fraction": wait / (wait + compute) if wait + compute else 0.0,
            "bytes_per_sample": n_bytes / n_samples if n_samples else 0.0,
            "epoch_seconds": elapsed,
        }
        self.intervals.append(row)
        return row

    def steady_state(self, last_k: int) -> dict:
        rows = self.intervals[-last_k:]
        return {
            "stall_fraction": statistics.mean(r["stall_fraction"] for r in rows),
            "bytes_per_sample": statistics.mean(r["bytes_per_sample"] for r in rows),
            "scan_group": rows[-1]["scan_group"],
        }


def _direction_changes(switches: list[dict]) -> int:
    directions = [s["direction"] for s in switches]
    return sum(1 for a, b in zip(directions, directions[1:]) if a != b)


def _capped_rate(source, compute_budget_seconds: float, pressure: float = 4.0) -> float:
    """A link rate that makes a full-fidelity epoch ``pressure``× the compute
    budget — saturated at high groups, comfortable at low ones."""
    return source.epoch_bytes() / (pressure * compute_budget_seconds)


def _bench_capped_link(
    directory: Path,
    n_intervals: int,
    steady_k: int,
    batch_size: int,
    compute_seconds: float,
    recovery_intervals: int,
) -> dict:
    out: dict[str, dict] = {}
    for arm in ("controller_off", "controller_on"):
        with PCRRecordServer(directory, port=0) as server:
            throttle = BandwidthThrottle(None)
            with RemoteRecordSource(port=server.port) as source:
                n_groups = source.n_groups
                batches = max(1, len(source) // batch_size)
                compute_budget = batches * compute_seconds
                throttle.set_rate(_capped_rate(source, compute_budget))
                trainer = _Trainer(
                    source, batch_size, compute_seconds, throttle,
                    steered=arm == "controller_on",
                )
                for _ in range(n_intervals):
                    trainer.run_interval()
                steady = trainer.steady_state(steady_k)
                result = {
                    "n_intervals": n_intervals,
                    "n_groups": n_groups,
                    "link_bytes_per_s": throttle.bytes_per_s,
                    "steady_state": steady,
                    "trajectory": [r["scan_group"] for r in trainer.intervals],
                    "stall_by_interval": [
                        round(r["stall_fraction"], 4) for r in trainer.intervals
                    ],
                }
                if trainer.steered:
                    switches = trainer.hook.switch_log()
                    result["intervals_to_converge"] = (
                        switches[-1]["interval"] + 1 if switches else 0
                    )
                    result["direction_changes"] = _direction_changes(switches)
                    # Recovery: lift the cap, the loop must converge back up.
                    throttle.set_rate(None)
                    for _ in range(recovery_intervals):
                        trainer.run_interval()
                        if trainer.loader.scan_group == n_groups:
                            break
                    switches = trainer.hook.switch_log()
                    result["recovery"] = {
                        "recovered_group": trainer.loader.scan_group,
                        "recovered_to_full": trainer.loader.scan_group == n_groups,
                        "direction_changes_total": _direction_changes(switches),
                        "decision_log_tail": switches[-4:],
                    }
                out[arm] = result
    on = out["controller_on"]["steady_state"]
    off = out["controller_off"]["steady_state"]
    out["stall_improvement"] = round(
        off["stall_fraction"] - on["stall_fraction"], 4
    )
    out["bytes_per_sample_ratio"] = round(
        on["bytes_per_sample"] / off["bytes_per_sample"], 4
    ) if off["bytes_per_sample"] else 0.0
    return out


def _bench_mixed_fleet(
    directory: Path,
    n_intervals: int,
    steady_k: int,
    batch_size: int,
    compute_seconds: float,
) -> dict:
    """Three trainers with different link budgets, one hook each."""
    with PCRRecordServer(directory, port=0) as server:
        trainers: dict[str, _Trainer] = {}
        sources: list[RemoteRecordSource] = []
        try:
            probe = RemoteRecordSource(port=server.port)
            batches = max(1, len(probe) // batch_size)
            compute_budget = batches * compute_seconds
            saturated = _capped_rate(probe, compute_budget)
            probe.close()
            for name, rate in (
                ("starved", saturated),        # full fidelity 4x over budget
                ("midband", saturated * 2.5),  # mid groups fit
                ("fat_pipe", None),            # uncapped: full fidelity fits
            ):
                source = RemoteRecordSource(port=server.port)
                sources.append(source)
                trainers[name] = _Trainer(
                    source, batch_size, compute_seconds, BandwidthThrottle(rate)
                )
            for _ in range(n_intervals):
                # Each trainer trains and steps its own hook: nothing is
                # shared but the server they all read from.
                for trainer in trainers.values():
                    trainer.run_interval()
            per_client = {
                name: {
                    "final_group": trainer.loader.scan_group,
                    "trajectory": [r["scan_group"] for r in trainer.intervals],
                }
                for name, trainer in trainers.items()
            }
            groups = sorted(row["final_group"] for row in per_client.values())
            return {
                "n_intervals": n_intervals,
                "clients": per_client,
                "distinct_fidelities": len(set(groups)),
            }
        finally:
            for source in sources:
                source.close()


def _bench_degraded_replica(
    directory: Path,
    n_intervals: int,
    steady_k: int,
    batch_size: int,
    compute_seconds: float,
) -> dict:
    """A cluster loses one replica per shard while its link degrades."""
    out: dict[str, dict] = {}
    for arm in ("controller_off", "controller_on"):
        with ClusterCoordinator(directory, n_shards=2, n_replicas=2) as cluster:
            throttle = BandwidthThrottle(None)
            with ShardedRemoteRecordSource(cluster.shard_map) as source:
                batches = max(1, len(source) // batch_size)
                compute_budget = batches * compute_seconds
                trainer = _Trainer(
                    source, batch_size, compute_seconds, throttle,
                    steered=arm == "controller_on",
                )
                healthy = trainer.run_interval()
                # Degrade: one replica of every shard dies and the surviving
                # path's effective bandwidth collapses.
                for shard_id in cluster.shard_map.shard_ids:
                    cluster.stop_replica(shard_id, 1)
                throttle.set_rate(_capped_rate(source, compute_budget))
                for _ in range(n_intervals):
                    trainer.run_interval()
                result = {
                    "healthy_interval": healthy,
                    "degraded_steady_state": trainer.steady_state(steady_k),
                    "trajectory": [r["scan_group"] for r in trainer.intervals],
                    "live_replicas": len(cluster.live_replicas()),
                }
                if trainer.steered:
                    result["direction_changes"] = _direction_changes(
                        trainer.hook.switch_log()
                    )
                out[arm] = result
    on = out["controller_on"]["degraded_steady_state"]
    off = out["controller_off"]["degraded_steady_state"]
    out["stall_improvement"] = round(off["stall_fraction"] - on["stall_fraction"], 4)
    return out


def run_benchmark(
    n_samples: int = 48,
    image_size: int = 48,
    images_per_record: int = 8,
    n_intervals: int = 8,
    steady_k: int = 3,
    batch_size: int = 8,
    compute_seconds: float = 0.05,
    recovery_intervals: int = 14,
    scenarios: tuple[str, ...] = ("capped_link", "mixed_fidelity_fleet", "degraded_replica"),
) -> dict:
    with tempfile.TemporaryDirectory(prefix="pcr-autotune-bench-") as workdir:
        dataset = _build_dataset(workdir, n_samples, image_size, images_per_record)
        directory = dataset.reader.directory
        results: dict = {
            "params": {
                "n_samples": n_samples,
                "image_size": image_size,
                "images_per_record": images_per_record,
                "n_records": len(dataset.record_names),
                "n_groups": dataset.n_groups,
                "n_intervals": n_intervals,
                "steady_k": steady_k,
                "compute_seconds_per_batch": compute_seconds,
                "policy": "stall_target(target=0.2, hysteresis=0.5, aimd=0.5x/+1)",
            }
        }
        if "capped_link" in scenarios:
            results["capped_link"] = _bench_capped_link(
                directory, n_intervals, steady_k, batch_size, compute_seconds,
                recovery_intervals,
            )
        if "mixed_fidelity_fleet" in scenarios:
            results["mixed_fidelity_fleet"] = _bench_mixed_fleet(
                directory, n_intervals, steady_k, batch_size, compute_seconds
            )
        if "degraded_replica" in scenarios:
            results["degraded_replica"] = _bench_degraded_replica(
                directory, max(3, n_intervals // 2), steady_k, batch_size,
                compute_seconds,
            )
        dataset.close()
    return results


def print_report(results: dict) -> None:
    print("=" * 74)
    print("PCR adaptive-fidelity (autotune) benchmark")
    print("=" * 74)
    params = results["params"]
    print(
        f"{params['n_records']} records, {params['n_samples']} samples, "
        f"{params['n_groups']} scan groups; policy {params['policy']}"
    )
    if "capped_link" in results:
        capped = results["capped_link"]
        on, off = capped["controller_on"], capped["controller_off"]
        print("-" * 74)
        print("capped link (controller on vs off):")
        print(f"  off: stall {off['steady_state']['stall_fraction']:.2f}  "
              f"{off['steady_state']['bytes_per_sample']:.0f} B/sample  "
              f"group {off['steady_state']['scan_group']}")
        print(f"  on:  stall {on['steady_state']['stall_fraction']:.2f}  "
              f"{on['steady_state']['bytes_per_sample']:.0f} B/sample  "
              f"group {on['steady_state']['scan_group']}  "
              f"(converged in {on['intervals_to_converge']} intervals, "
              f"{on['direction_changes']} direction changes)")
        recovery = on["recovery"]
        print(f"  recovery after uncap: group {recovery['recovered_group']} "
              f"(full fidelity: {recovery['recovered_to_full']}, "
              f"{recovery['direction_changes_total']} direction changes total)")
        print(f"  stall improvement: {capped['stall_improvement']:+.2f}  "
              f"bytes/sample ratio on/off: {capped['bytes_per_sample_ratio']:.2f}")
    if "mixed_fidelity_fleet" in results:
        fleet = results["mixed_fidelity_fleet"]
        print("-" * 74)
        print(f"mixed-fidelity fleet ({len(fleet['clients'])} clients, "
              f"{fleet['distinct_fidelities']} distinct fidelities):")
        for name, row in fleet["clients"].items():
            print(f"  {name:>9s}: group {row['final_group']:>2d}  "
                  f"trajectory {row['trajectory']}")
    if "degraded_replica" in results:
        degraded = results["degraded_replica"]
        on, off = degraded["controller_on"], degraded["controller_off"]
        print("-" * 74)
        print("degraded replica (cluster loses 1 replica/shard, link collapses):")
        print(f"  off: degraded stall {off['degraded_steady_state']['stall_fraction']:.2f}  "
              f"group {off['degraded_steady_state']['scan_group']}")
        print(f"  on:  degraded stall {on['degraded_steady_state']['stall_fraction']:.2f}  "
              f"group {on['degraded_steady_state']['scan_group']}  "
              f"({on['direction_changes']} direction changes)")
        print(f"  stall improvement: {degraded['stall_improvement']:+.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workload, fewer intervals")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
        help="JSON file to merge the 'autotune' section into",
    )
    args = parser.parse_args(argv)
    if args.quick:
        results = run_benchmark(
            n_samples=24, image_size=32, images_per_record=8,
            n_intervals=6, steady_k=2, recovery_intervals=12,
        )
    else:
        results = run_benchmark()
    print_report(results)
    output = Path(args.output)
    merged: dict = {}
    if output.exists():
        try:
            merged = json.loads(output.read_text())
        except (ValueError, OSError):
            merged = {}
    merged["autotune"] = results
    output.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\nwrote autotune section into {output}")
    return 0


def test_autotune_bench_smoke():
    """Tier-2 smoke (CI): the steered loader must beat the unsteered one.

    Under the capped link the controller-on arm must (a) converge to a
    smaller scan group with at most one direction change, (b) hold a
    steady-state stall fraction no worse than controller-off, and
    (c) converge back to full fidelity once the cap lifts.
    """
    results = run_benchmark(
        n_samples=24, image_size=32, images_per_record=8,
        n_intervals=6, steady_k=2, recovery_intervals=12,
        scenarios=("capped_link",),
    )
    capped = results["capped_link"]
    on, off = capped["controller_on"], capped["controller_off"]
    assert off["steady_state"]["scan_group"] == off["n_groups"]
    assert on["steady_state"]["scan_group"] < on["n_groups"]
    assert (
        on["steady_state"]["stall_fraction"] <= off["steady_state"]["stall_fraction"]
    ), capped
    assert on["steady_state"]["bytes_per_sample"] < off["steady_state"]["bytes_per_sample"]
    assert on["direction_changes"] <= 1, on
    assert on["recovery"]["recovered_to_full"], on["recovery"]
    assert on["recovery"]["direction_changes_total"] <= 1, on["recovery"]
    print_report(results)


if __name__ == "__main__":
    sys.exit(main())
