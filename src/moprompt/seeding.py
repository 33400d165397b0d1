"""Deterministic seed derivation with platform-stable integer arithmetic."""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_START = 0x5DEECE66D

# Stream roles. Every RNG consumer derives its seed from (seed, step, role)
# so adding or reordering consumers never shifts another stream.
ROLE_INIT = 1
ROLE_PROMPTS = 2
ROLE_ROLLOUT = 3
ROLE_EVAL = 4
ROLE_NOISE = 5
ROLE_OUTLIER = 6
ROLE_INPUTS = 7
ROLE_ARMS = 8


def mix64(z: int) -> int:
    """splitmix64 finalizer (explicit 64-bit arithmetic, stable everywhere)."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _absorb(h: int, parts) -> int:
    for p in parts:
        h = mix64(h ^ mix64(int(p) & _MASK))
    return h


def derive_seed(*parts: int) -> int:
    """Collapse integer components into one 63-bit stream seed."""
    return _absorb(_START, parts) >> 1


def derive_seeds(prefix, suffixes) -> list[int]:
    """[derive_seed(*prefix, *s) for s in suffixes], hashing the prefix once."""
    h = _absorb(_START, prefix)
    return [_absorb(h, s) >> 1 for s in suffixes]


def unit_floats(key: int, n: int) -> list[float]:
    """n reproducible floats in [0, 1) keyed by a 64-bit integer.

    Uses the top 53 bits so every value is an exact double strictly
    below 1.0.
    """
    return [(mix64(key + i) >> 11) * 2.0**-53 for i in range(n)]
