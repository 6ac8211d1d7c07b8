"""Throughput, failover, and cache behaviour of the sharded PCR serving cluster.

Builds a synthetic PCR dataset, launches :class:`ClusterCoordinator`
fleets on localhost, and measures:

* ``shard_scaling`` — single-client and multi-threaded aggregate fetch
  throughput against clusters of 1, 2, and 4 shards (one replica each);
* ``failover`` — per-request latency before a replica kill, the latency of
  the first request that discovers the dead replica (cold failover: connect
  failure + reroute), and of requests after the endpoint is in cooldown
  (warm failover: healthy replica tried first);
* ``per_shard_containment`` — each shard's scan-prefix cache hit rates
  after an epoch at the top scan group followed by epochs at every lower
  group: lower-group requests must be served by slicing cached prefixes on
  whichever shard owns the record.

Results go to ``BENCH_cluster.json``:

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick

or through pytest (smoke assertions only, no JSON):

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.dataset import PCRDataset
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec
from repro.serving.cluster import ClusterClient, ClusterCoordinator

_MB = 1024.0 * 1024.0


def _build_dataset(workdir: str, n_samples: int, image_size: int, per_record: int) -> PCRDataset:
    generator = SyntheticImageGenerator(
        n_classes=4, spec=SyntheticImageSpec(image_size=image_size), seed=13
    )
    samples = generator.generate_batch(n_samples, seed=13)
    return PCRDataset.build(samples, workdir, images_per_record=per_record, quality=90)


def _cache_rates(counters: dict) -> dict:
    """Hit ratios derived from a (replica's or merged) registry's cache counters."""
    exact = counters.get("serving.cache.exact_hits_total", 0)
    prefix = counters.get("serving.cache.prefix_hits_total", 0)
    misses = counters.get("serving.cache.misses_total", 0)
    lookups = exact + prefix + misses
    return {
        "prefix_hits": prefix,
        "misses": misses,
        "prefix_hit_rate": prefix / lookups if lookups else 0.0,
        "hit_rate": (exact + prefix) / lookups if lookups else 0.0,
    }


def _fetch_epoch(client: ClusterClient, names: list[str], group: int) -> int:
    total = 0
    for name in names:
        total += len(client.get_record_bytes(name, group))
    return total


def _bench_shard_scaling(
    directory: Path,
    names: list[str],
    n_groups: int,
    shard_counts: list[int],
    trials: int,
    n_threads: int,
) -> dict:
    out: dict[str, dict] = {}
    for n_shards in shard_counts:
        with ClusterCoordinator(directory, n_shards=n_shards, n_replicas=1) as cluster:
            with ClusterClient(cluster.shard_map) as client:
                start = time.perf_counter()
                epoch_bytes = _fetch_epoch(client, names, n_groups)
                cold_seconds = time.perf_counter() - start
                warm = []
                for _ in range(trials):
                    start = time.perf_counter()
                    _fetch_epoch(client, names, n_groups)
                    warm.append(time.perf_counter() - start)

                # Aggregate throughput: several threads sharing the routing
                # client, load spread across the shard fleet.
                def fetch_thread() -> None:
                    _fetch_epoch(client, names, n_groups)

                threads = [
                    threading.Thread(target=fetch_thread) for _ in range(n_threads)
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                aggregate_seconds = time.perf_counter() - start
                stats = cluster.stats()
        out[str(n_shards)] = {
            "epoch_bytes": epoch_bytes,
            "cold_mb_per_s": epoch_bytes / _MB / cold_seconds,
            "warm_mb_per_s": epoch_bytes / _MB / min(warm),
            "warm_records_per_s": len(names) / min(warm),
            "aggregate_threads": n_threads,
            "aggregate_mb_per_s": n_threads * epoch_bytes / _MB / aggregate_seconds,
            "cluster_cache_hit_rate": _cache_rates(stats["merged"]["counters"])["hit_rate"],
            "records_per_shard": {
                shard_id: shard["n_records"] for shard_id, shard in stats["shards"].items()
            },
        }
    return out


def _bench_failover(directory: Path, n_groups: int, trials: int) -> dict:
    """Latency of requests around a replica kill (2 shards x 2 replicas)."""
    with ClusterCoordinator(directory, n_shards=2, n_replicas=2) as cluster:
        with ClusterClient(cluster.shard_map, cooldown_seconds=30.0) as client:
            shard_id = max(
                cluster.shard_map.shard_ids, key=lambda s: len(cluster.assignment(s))
            )
            name = cluster.assignment(shard_id)[0]
            baseline, cold, warm = [], [], []
            for _ in range(trials):
                client.get_record_bytes(name, n_groups)  # connections warm
                start = time.perf_counter()
                client.get_record_bytes(name, n_groups)
                baseline.append(time.perf_counter() - start)

                preferred = cluster.shard_map.owners(name)[0]
                cluster.stop_replica(preferred.shard_id, preferred.replica_index)
                start = time.perf_counter()
                client.get_record_bytes(name, n_groups)  # discovers the corpse
                cold.append(time.perf_counter() - start)
                start = time.perf_counter()
                client.get_record_bytes(name, n_groups)  # cooldown: healthy first
                warm.append(time.perf_counter() - start)

                cluster.restart_replica(preferred.shard_id, preferred.replica_index)
                client._mark_up(preferred)  # lift the cooldown for the next trial
            failovers = client.failovers
    return {
        "trials": trials,
        "baseline_ms": statistics.median(baseline) * 1e3,
        "cold_failover_ms": statistics.median(cold) * 1e3,
        "warm_failover_ms": statistics.median(warm) * 1e3,
        "cold_failover_overhead_x": statistics.median(cold) / statistics.median(baseline),
        "client_failovers": failovers,
    }


def _bench_per_shard_containment(directory: Path, names: list[str], n_groups: int) -> dict:
    """Populate every shard cache at the top group, then sweep lower groups."""
    with ClusterCoordinator(directory, n_shards=4, n_replicas=1) as cluster:
        with ClusterClient(cluster.shard_map) as client:
            for name in names:
                client.get_record_bytes(name, n_groups)
            for group in range(1, n_groups):
                for name in names:
                    client.get_record_bytes(name, group)
            stats = cluster.stats()
    per_shard: dict[str, dict] = {}
    for shard_id, shard in stats["shards"].items():
        counters = shard["replicas"]["0"]["registry"]["counters"]
        per_shard[shard_id] = {"n_records": shard["n_records"], **_cache_rates(counters)}
    return {
        "populate_group": n_groups,
        "lower_group_requests": len(names) * (n_groups - 1),
        "cluster_hit_rate": _cache_rates(stats["merged"]["counters"])["hit_rate"],
        "per_shard": per_shard,
    }


def run_benchmark(
    n_samples: int = 96,
    image_size: int = 64,
    images_per_record: int = 8,
    trials: int = 3,
    shard_counts: list[int] | None = None,
    n_threads: int = 4,
) -> dict:
    shard_counts = shard_counts if shard_counts is not None else [1, 2, 4]
    with tempfile.TemporaryDirectory(prefix="pcr-cluster-bench-") as workdir:
        dataset = _build_dataset(workdir, n_samples, image_size, images_per_record)
        directory = dataset.reader.directory
        names = dataset.record_names
        n_groups = dataset.n_groups
        results = {
            "params": {
                "n_samples": n_samples,
                "image_size": image_size,
                "images_per_record": images_per_record,
                "n_records": len(names),
                "n_groups": n_groups,
                "trials": trials,
                "shard_counts": shard_counts,
            },
            "shard_scaling": _bench_shard_scaling(
                directory, names, n_groups, shard_counts, trials, n_threads
            ),
            "failover": _bench_failover(directory, n_groups, trials),
            "per_shard_containment": _bench_per_shard_containment(
                directory, names, n_groups
            ),
        }
        dataset.close()
    return results


def print_report(results: dict) -> None:
    print("=" * 74)
    print("PCR sharded serving cluster benchmark")
    print("=" * 74)
    params = results["params"]
    print(
        f"{params['n_records']} records, {params['n_samples']} samples, "
        f"{params['n_groups']} scan groups"
    )
    print("-" * 74)
    print("shard scaling (single client warm / multi-thread aggregate):")
    for n_shards, row in results["shard_scaling"].items():
        print(
            f"  {n_shards} shard(s)  warm {row['warm_mb_per_s']:8.2f} MB/s   "
            f"aggregate({row['aggregate_threads']} thr) "
            f"{row['aggregate_mb_per_s']:8.2f} MB/s"
        )
    failover = results["failover"]
    print(
        f"failover latency:   baseline {failover['baseline_ms']:.2f} ms   "
        f"cold {failover['cold_failover_ms']:.2f} ms "
        f"({failover['cold_failover_overhead_x']:.1f}x)   "
        f"warm {failover['warm_failover_ms']:.2f} ms"
    )
    containment = results["per_shard_containment"]
    print(
        f"containment after a group-{containment['populate_group']} epoch "
        f"(cluster hit rate {containment['cluster_hit_rate']:.2f}):"
    )
    for shard_id, row in sorted(containment["per_shard"].items()):
        print(
            f"  {shard_id}: {row['n_records']:2d} records   "
            f"prefix hits {row['prefix_hits']:4d}   "
            f"prefix hit rate {row['prefix_hit_rate']:.2f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workload, fewer trials")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_cluster.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    if args.quick:
        results = run_benchmark(
            n_samples=24, image_size=32, images_per_record=4, trials=2,
            shard_counts=[1, 2], n_threads=2,
        )
    else:
        results = run_benchmark()
    print_report(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


def test_cluster_bench_smoke():
    """Tier-2 smoke: scaling runs, failover reroutes, shards serve containment hits."""
    results = run_benchmark(
        n_samples=16, image_size=32, images_per_record=4, trials=1,
        shard_counts=[1, 2], n_threads=2,
    )
    assert set(results["shard_scaling"]) == {"1", "2"}
    for row in results["shard_scaling"].values():
        assert row["warm_mb_per_s"] > 0
    failover = results["failover"]
    assert failover["client_failovers"] >= 1
    assert failover["cold_failover_ms"] > 0
    containment = results["per_shard_containment"]
    served_shards = [
        row for row in containment["per_shard"].values() if row["n_records"] > 0
    ]
    assert served_shards
    for row in served_shards:
        assert row["prefix_hit_rate"] > 0
    print_report(results)


if __name__ == "__main__":
    sys.exit(main())
