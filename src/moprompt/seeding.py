"""Deterministic seed derivation with platform-stable integer arithmetic.

Every stream is `Generator(PCG64(s))` for a 63-bit seed s derived from
(seed, step, role). Building that generator from an int runs numpy's
Python-level `SeedSequence`, about 11 us a stream with a (32, 3) normal
draw; `draw_streams` takes about 3 us a stream for a whole array of seeds.
It replays `SeedSequence`'s pool mixing (fixed for reproducibility by NEP
19) as uint32 array arithmetic and hands each `PCG64` its four state words
through numpy's public `ISeedSequence` interface.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 on a 1-D uint64 array; array arithmetic wraps modulo 2**64."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _absorb(h: int, parts) -> int:
    for p in parts:
        h = mix64(h ^ mix64(int(p) & _MASK))
    return h


def derive_seed(*parts: int) -> int:
    """Collapse integer components into one 63-bit stream seed."""
    return _absorb(_START, parts) >> 1


def derive_seeds(prefix, suffixes):
    """derive_seed(*prefix, *s) for each suffix s, hashing the prefix once.

    `suffixes` is a sequence of integer tuples, which gives a list of ints,
    or an integer ndarray whose last axis holds each suffix's parts, which
    gives a uint64 array of its other axes. The array form computes in
    uint64, where a negative part wraps as `int(p) & _MASK` does.

    Raises:
        TypeError: for an ndarray that does not hold integers; a float
            array cannot carry a 64-bit seed exactly.
    """
    h = _absorb(_START, prefix)
    if not isinstance(suffixes, np.ndarray):
        return [_absorb(h, s) >> 1 for s in suffixes]
    if suffixes.dtype.kind not in "iu":
        raise TypeError(f"suffixes must be an integer array, got dtype {suffixes.dtype}")
    parts = suffixes.astype(np.uint64).reshape(-1, suffixes.shape[-1])
    z = np.full(parts.shape[0], h, dtype=np.uint64)
    for part in parts.T:
        z = _mix64_array(z ^ _mix64_array(part))
    return (z >> np.uint64(1)).reshape(suffixes.shape[:-1])


def unit_floats(key: int, n: int) -> list[float]:
    """n reproducible floats in [0, 1) keyed by a 64-bit integer.

    Uses the top 53 bits so every value is an exact double strictly
    below 1.0.
    """
    return [(mix64(key + i) >> 11) * 2.0**-53 for i in range(n)]


# ---------------------------------------------------------------------------
# SeedSequence replay


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _powers(start: int, mult: int, n: int) -> np.ndarray:
    """start * mult**i mod 2**32 for i in range(n), as a read-only column."""
    return _read_only([[(start * pow(mult, i, 1 << 32)) & 0xFFFFFFFF] for i in range(n)], np.uint32)


# SeedSequence's hash constants. Its pool hash starts at INIT_A and is
# multiplied by MULT_A after every use, so call c xors with A[c] and
# multiplies by A[c + 1]; its output hash does the same with B.
_A = _powers(0x43B0D7E5, 0x931E8875, 17)
_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4
# The pool's mixing pass: source word i hashes into the three others.
_OTHERS = _read_only([[d for d in range(_POOL) if d != i] for i in range(_POOL)], np.intp)


def _hashmix(values: np.ndarray, c: int) -> np.ndarray:
    """SeedSequence's hashmix for pool-hash calls c, c + 1, ... along axis 0."""
    n = values.shape[0]
    v = (values ^ _A[c : c + n]) * _A[c + 1 : c + n + 1]
    return v ^ (v >> _SHIFT)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """The (n, 4) uint64 words SeedSequence(int(s)).generate_state(4, np.uint64)
    gives for each seed of a 1-D uint64 array: the state PCG64(int(s)) is
    built from.

    A seed below 2**64 is the entropy words (low, high), and the pool's two
    other words hash a zero as SeedSequence pads them, so every seed takes
    the same path. Row i of the pool holds word i for every seed.
    """
    entropy = np.zeros((_POOL, seeds.shape[0]), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(0xFFFFFFFF)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, 0)
    c = _POOL
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(np.broadcast_to(pool[src], (len(dst), seeds.shape[0])), c)
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
        c += len(dst)
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _B[:8]
    out *= _B[1:9]
    out ^= out >> _SHIFT
    words = out[0::2].astype(np.uint64) | (out[1::2].astype(np.uint64) << np.uint64(32))
    return np.ascontiguousarray(words.T)


class _StateWords(ISeedSequence):
    """Hands PCG64 the four state words its SeedSequence would generate."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or dtype != np.uint64:
            raise ValueError("only PCG64's four uint64 state words are known")
        return self.words


def draw_streams(seeds, draw, shape) -> np.ndarray:
    """Fill one stream's draws per seed: out[i] is draw(Generator(PCG64(int(s_i))), shape).

    `seeds` is a uint64 array and `draw` an unbound Generator method that
    takes `out=`, such as Generator.random or Generator.standard_normal.
    Returns a float64 array of shape seeds.shape + shape. Each generator is
    built, drawn from and dropped before the next.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty(seeds.shape + tuple(shape))
    rows = out.reshape((seeds.size,) + tuple(shape))
    for words, row in zip(_pcg64_words(seeds.reshape(-1)), rows):
        draw(Generator(PCG64(_StateWords(words))), out=row)
    return out
