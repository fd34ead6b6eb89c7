"""Keyed deterministic randomness.

Every stochastic decision in the simulator is derived from a hash of its
identifying key, never from shared mutable RNG state. That makes results
independent of evaluation order (replicates give the same bytes in any
order) and lets coupled-randomness experiments reuse the exact same draw
for a node across modes and sweep points.
"""

from __future__ import annotations

import hashlib
import random

_SEP = b"\x1f"


def _hash(parts: tuple, prefix=None):
    """The sha256 of the key `parts`, continued from a copy of the hash
    `prefix` when one is given."""
    h = hashlib.sha256() if prefix is None else prefix.copy()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(_SEP)
    return h


def _unit(h) -> float:
    return int.from_bytes(h.digest()[:8], "big") / 2.0**64


def unit_draw(*key) -> float:
    """Uniform draw in [0, 1) fully determined by the key."""
    return _unit(_hash(key))


def stream(*key) -> random.Random:
    """Independent random stream seeded from the key."""
    d = _hash(key).digest()
    return random.Random(int.from_bytes(d[:16], "big"))


def token_hex(*key) -> str:
    """Opaque 16-hex-digit identifier derived from the key."""
    return _hash(key).digest()[:8].hex()


class LazyDict(dict):
    """A dict that computes a missing key's value once, with `fill(key)`,
    the first time the key is looked up with `d[key]`."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class DrawTable:
    """One replicate's keyed draws: the authorization draw of each node, the
    spreading draw of each entity and the token id of each source device.

    Each value is fixed by (seed, replicate, entity), computed on first use
    and kept, so every mode and sweep point of the replicate reads the same
    value instead of hashing its key again. A draw hashes the bytes of its
    `unit_draw` key, from a copy of a hash that absorbed (seed, replicate,
    kind) once, so it keeps `unit_draw`'s bits."""

    def __init__(self, seed: int, replicate: int):
        self.seed = seed
        self.replicate = replicate
        auth, spread = (_hash((seed, replicate, kind)) for kind in ("auth", "spread"))
        self.auth = LazyDict(lambda node: _unit(_hash((node,), auth)))
        self.spread = LazyDict(lambda entity: _unit(_hash((entity,), spread)))
        self.tokens = LazyDict(lambda device: token_hex(seed, replicate, "token", device))
