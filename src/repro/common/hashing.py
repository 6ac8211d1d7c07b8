"""Deterministic placement hashing for the serving cluster.

Which serving shard owns a record
(:class:`~repro.serving.cluster.shard_map.ShardMap`) routes through this
module, so every participant agrees on one hash function and its
determinism guarantees.

``hash(str)`` is salted per process (``PYTHONHASHSEED``), which makes any
placement derived from it irreproducible across runs; CRC32 of the UTF-8
encoding is stable everywhere, cheap, and well-distributed for the
record-name-shaped keys used here.

:class:`ConsistentHashRing` is the record-to-shard map: each node is hashed
onto a ring at ``vnode_factor`` virtual points, a key is owned by the first
node clockwise from the key's hash, and successive *distinct* nodes
clockwise form its natural failover order.  Adding or removing one node
therefore moves only ~``1/n`` of the keys (the defining consistent-hashing
property), which is what makes shard topology changes cheap.
"""

from __future__ import annotations

import bisect
import zlib
from collections.abc import Iterable

DEFAULT_VNODE_FACTOR = 64


def stable_hash(key: str) -> int:
    """CRC32 of the UTF-8 encoding: a 32-bit hash stable across processes."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes.

    Nodes are identified by strings.  Each node contributes
    ``vnode_factor`` points on the ring (hashes of ``"node#i"``), which
    evens out the per-node key share.  Lookups are ``O(log(n * vnodes))``
    via binary search on the sorted point list.
    """

    def __init__(
        self, nodes: Iterable[str], vnode_factor: int = DEFAULT_VNODE_FACTOR
    ) -> None:
        if vnode_factor < 1:
            raise ValueError("vnode_factor must be at least 1")
        self.vnode_factor = vnode_factor
        self._nodes: list[str] = []
        seen: set[str] = set()
        for node in nodes:
            if node in seen:
                raise ValueError(f"duplicate ring node {node!r}")
            seen.add(node)
            self._nodes.append(node)
        if not self._nodes:
            raise ValueError("a hash ring needs at least one node")
        points: list[tuple[int, str]] = []
        for node in self._nodes:
            for vnode in range(vnode_factor):
                points.append((stable_hash(f"{node}#{vnode}"), node))
        # Ties (two vnodes hashing identically) resolve by node id so the
        # ring order is a pure function of the topology.
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [node for _, node in points]

    @property
    def nodes(self) -> list[str]:
        """The ring's nodes, in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def node_for(self, key: str) -> str:
        """The node owning ``key``: first ring point clockwise of its hash."""
        position = bisect.bisect_right(self._hashes, stable_hash(key))
        if position == len(self._hashes):
            position = 0  # wrap past the top of the ring
        return self._owners[position]

    def nodes_for(self, key: str, count: int) -> list[str]:
        """The first ``count`` *distinct* nodes clockwise of ``key``.

        The head of the list is :meth:`node_for`'s answer; the rest is the
        deterministic failover order a replicated reader walks.  API of the
        ring as :mod:`repro.common` exports it (the preference list of
        successor-replicated placement); ``ShardMap`` lists its replicas per
        shard and calls only :meth:`node_for`.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        count = min(count, len(self._nodes))
        start = bisect.bisect_right(self._hashes, stable_hash(key))
        found: list[str] = []
        for step in range(len(self._hashes)):
            node = self._owners[(start + step) % len(self._hashes)]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found

    def share(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each node owns (diagnostic/balance checks)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
