"""Cross-cutting utilities: the deterministic placement hash the serving cluster routes by."""

from repro.common.hashing import ConsistentHashRing, stable_hash

__all__ = [
    "ConsistentHashRing",
    "stable_hash",
]
