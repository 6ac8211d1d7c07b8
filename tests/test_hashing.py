"""Determinism tests for the shared placement hashing module.

Golden values are pinned: placement must never drift across processes,
Python versions, or refactors, because the serving cluster's shard routing
is derived from it — a drift would silently re-shard every deployed
dataset.
"""

from __future__ import annotations

import zlib

import pytest

from repro.common.hashing import ConsistentHashRing, stable_hash

GOLDEN_HASHES = {
    "record-00000.pcr": 3425165456,
    "record-00041.pcr": 1792445238,
    "obj": 1181144172,
    "": 0,
}


class TestStableHash:
    def test_golden_values(self):
        for name, expected in GOLDEN_HASHES.items():
            assert stable_hash(name) == expected

    def test_matches_crc32(self):
        for name in GOLDEN_HASHES:
            assert stable_hash(name) == zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class TestConsistentHashRing:
    def test_golden_routing(self):
        ring = ConsistentHashRing([f"shard-{i}" for i in range(4)], vnode_factor=64)
        assert ring.node_for("record-00000.pcr") == "shard-0"
        assert ring.node_for("record-00007.pcr") == "shard-1"
        assert ring.node_for("alpha") == "shard-0"
        assert ring.node_for("beta") == "shard-3"
        assert ring.nodes_for("record-00007.pcr", 3) == ["shard-1", "shard-2", "shard-3"]

    def test_identical_rings_route_identically(self):
        nodes = [f"shard-{i}" for i in range(5)]
        first = ConsistentHashRing(nodes, vnode_factor=32)
        second = ConsistentHashRing(nodes, vnode_factor=32)
        for i in range(100):
            key = f"record-{i:05d}.pcr"
            assert first.node_for(key) == second.node_for(key)
            assert first.nodes_for(key, 2) == second.nodes_for(key, 2)

    def test_nodes_for_starts_with_owner_and_is_distinct(self):
        ring = ConsistentHashRing(["a", "b", "c"], vnode_factor=16)
        for key in ("k1", "k2", "k3", "k4"):
            failover = ring.nodes_for(key, 3)
            assert failover[0] == ring.node_for(key)
            assert sorted(failover) == ["a", "b", "c"]

    def test_nodes_for_caps_at_ring_size(self):
        ring = ConsistentHashRing(["a", "b"], vnode_factor=8)
        assert len(ring.nodes_for("k", 10)) == 2

    def test_topology_change_moves_few_keys(self):
        """Adding one shard to four moves ~1/5 of keys, never a majority."""
        keys = [f"record-{i:05d}.pcr" for i in range(200)]
        four = ConsistentHashRing([f"shard-{i}" for i in range(4)], vnode_factor=64)
        five = ConsistentHashRing([f"shard-{i}" for i in range(5)], vnode_factor=64)
        moved = sum(1 for key in keys if four.node_for(key) != five.node_for(key))
        assert moved == 36  # pinned: deterministic, and well under flat rehash (~80%)
        # Keys that stay must keep their exact owner.
        for key in keys:
            if four.node_for(key) == five.node_for(key):
                assert five.node_for(key) in four.nodes

    def test_share_covers_all_keys(self):
        ring = ConsistentHashRing([f"shard-{i}" for i in range(4)], vnode_factor=64)
        keys = [f"record-{i:05d}.pcr" for i in range(200)]
        share = ring.share(keys)
        assert sum(share.values()) == len(keys)
        assert all(count > 0 for count in share.values())

    def test_rejects_empty_and_duplicate_nodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], vnode_factor=0)
