"""Stable seed derivation shared by fleet specs, vehicles and attack campaigns.

Uses SHA-256 rather than ``hash()`` so derived seeds are identical
across processes and interpreter invocations (string hashing is salted
per process); per-entity RNG streams seeded this way are therefore
stable at any worker count.  Fleet scenarios derive each vehicle's
mix, script and simulation seeds from it, the fleet runner each
vehicle's ``fuzz`` stream, the resilience layer its backoff and fault
plans, and attack campaigns their per-threat seeds.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, name: str) -> int:
    """A stable 64-bit seed derived from *seed* and *name*."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
