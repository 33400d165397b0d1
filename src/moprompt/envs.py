"""Synthetic stand-ins for a frozen generator plus reward models.

Each environment is a stochastic channel from prompt tokens to a
(k_hat, m) reward batch: one row of m deliberately conflicting reward
scores per generated output, with known Pareto structure:

* ``tug-of-war``: token j votes for objective axis j mod m. A sample's
  latent is the prompt's vote-fraction vector plus Gaussian noise, so with
  zero noise the rewards lie exactly on the probability simplex: gaining on
  one axis must cost the others. The best achievable expected product is
  m**-m, at the perfectly balanced prompt.
* ``gaussian-arms``: every token sequence hashes to a fixed mean vector in
  [0, 1]^m with negatively correlated components, drawn once per seed; good
  prompts must be discovered rather than constructed.
* ``outlier-prone``: tug-of-war, except each sample's latent is replaced by
  (0.95, ..., 0.95) with probability outlier_prob, a dominant point that
  inflates hypervolume. With outlier_prob 0 the sample stream is identical
  to tug-of-war under the same seed, because outlier decisions come from
  their own RNG stream.

Rewards are always the latent clamped to [0, 1] componentwise. One
`rollout` call scores k prompts, for example all of a training step's: a
(k, T) token array and its draws in, the (k, k_hat, m) reward array out.
The draws depend on one seed per prompt, not on the tokens, so
`rollout_draws` draws them for any seed array, such as a (steps, k)
block, and `rollout` takes one step's slice of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .seeding import (
    ROLE_ARMS,
    ROLE_INPUTS,
    ROLE_NOISE,
    ROLE_OUTLIER,
    derive_seed,
    derive_seeds,
    draw_streams,
    unit_floats,
)

__all__ = ["EnvSpec", "ENV_NAMES", "builtin_env", "rollout", "rollout_draws"]

ENV_NAMES = ("tug-of-war", "gaussian-arms", "outlier-prone")

DEFAULT_NOISE_SCALE = 0.05
DEFAULT_OUTLIER_PROB = 0.02
OUTLIER_LATENT = 0.95


def is_integer(value) -> bool:
    """True for Python and numpy integers, false for bools and floats."""
    # Exact types first: isinstance against the numbers ABCs is slow.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_finite_reals(error: type, **values) -> None:
    """Raise `error` naming the first value that is not a finite real number.

    Bools are rejected: YAML's `true` would otherwise train as 1.0.
    """
    for name, value in values.items():
        real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        if not real or not math.isfinite(value):
            raise error(f"{name} must be a finite number, got {value!r}")


def _check_integers(**values) -> None:
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_outlier_prob(value) -> None:
    check_finite_reals(ValueError, outlier_prob=value)
    if not 0.0 <= value <= 1.0:
        raise ValueError("outlier_prob must lie in [0, 1]")


@dataclass(frozen=True)
class EnvSpec:
    """A fully determined environment: reward map plus fixed policy inputs."""

    name: str
    m: int
    vocab_size: int
    prompt_length: int
    inputs: np.ndarray
    noise_scale: float = DEFAULT_NOISE_SCALE
    outlier_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.name not in ENV_NAMES:
            raise ValueError(f"unknown environment {self.name!r}, expected one of {ENV_NAMES}")
        _check_integers(
            m=self.m, vocab_size=self.vocab_size, prompt_length=self.prompt_length, seed=self.seed
        )
        if self.m < 2:
            raise ValueError("environments are multi-objective: m must be >= 2")
        if self.vocab_size < self.m:
            raise ValueError("vocab_size must be at least m so every axis has a token")
        if self.prompt_length <= 0:
            raise ValueError("prompt_length must be positive")
        if not (isinstance(self.inputs, np.ndarray) and self.inputs.dtype == float):
            kind = getattr(self.inputs, "dtype", type(self.inputs).__name__)
            raise ValueError(f"inputs must be a float ndarray, got {kind}")
        if self.inputs.ndim != 2 or 0 in self.inputs.shape:
            raise ValueError(f"inputs must be (n_inputs, context_dim), both positive, got {self.inputs.shape}")
        if not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be finite")
        check_finite_reals(ValueError, noise_scale=self.noise_scale)
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be nonnegative")
        _check_outlier_prob(self.outlier_prob)
        if self.outlier_prob != 0.0 and self.name != "outlier-prone":
            raise ValueError(f"{self.name} has no outliers, got outlier_prob {self.outlier_prob!r}")

    @property
    def context_dim(self) -> int:
        return self.inputs.shape[1]


def builtin_env(
    name: str,
    m: int,
    seed: int,
    *,
    vocab_size: int = 8,
    prompt_length: int = 5,
    n_inputs: int = 4,
    context_dim: int = 8,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    outlier_prob: float = DEFAULT_OUTLIER_PROB,
) -> EnvSpec:
    """Construct one of the named environments with seeded fixed inputs.

    Only outlier-prone uses `outlier_prob`; the others set it to 0.0, after
    it is validated, so a malformed value fails everywhere.

    Raises:
        ValueError: for an unknown name, invalid dimensions or an invalid
            outlier_prob.
    """
    _check_integers(n_inputs=n_inputs, context_dim=context_dim)
    _check_outlier_prob(outlier_prob)
    raw = unit_floats(derive_seed(seed, ROLE_INPUTS), n_inputs * context_dim)
    inputs = 2.0 * np.array(raw).reshape(n_inputs, context_dim) - 1.0
    return EnvSpec(
        name=name,
        m=m,
        vocab_size=vocab_size,
        prompt_length=prompt_length,
        inputs=inputs,
        noise_scale=noise_scale,
        outlier_prob=outlier_prob if name == "outlier-prone" else 0.0,
        seed=seed,
    )


def _vote_fractions(env: EnvSpec, tokens: np.ndarray) -> np.ndarray:
    """(k, m) fraction of each row's tokens that vote for each axis."""
    votes = (tokens[:, :, None] % env.m == np.arange(env.m)).sum(axis=1)
    return votes / env.prompt_length


def _arm_means(env: EnvSpec, rows: np.ndarray) -> np.ndarray:
    """Hash each token sequence to its fixed mean vector, one (k, m) row each.

    Exponential draws normalized to the simplex give negatively correlated
    components; a per-arm amplitude keeps means spread through [0, 1]^m.
    """
    u = np.array([unit_floats(key, env.m + 1) for key in derive_seeds((env.seed, ROLE_ARMS), rows.tolist())])
    # math.log, not np.log: the two differ in the last bit on some inputs.
    exps = np.array([[-math.log(1.0 - x) for x in row] for row in u[:, : env.m].tolist()])
    # An in-order sum on every version: the builtin sum compensates from 3.12, np.sum pairs.
    return (0.4 + 0.6 * u[:, env.m :]) * exps / np.cumsum(exps, axis=1)[:, -1:]


def rollout_draws(env: EnvSpec, seeds, k_hat: int):
    """The token-independent randomness of rollouts, for any array of seeds.

    Returns (noise, outliers): the seeds.shape + (k_hat, m) standard normal
    noise, from the stream derive_seed(s, ROLE_NOISE) of each seed s, and on
    outlier-prone the seeds.shape + (k_hat,) boolean mask of the samples
    replaced by the outlier, from the stream derive_seed(s, ROLE_OUTLIER);
    elsewhere outliers is None. A seed's draws do not depend on the other
    seeds, so a (steps, k) array gives every step what a one-step call
    gives it.

    Raises:
        TypeError: for a seed that is not an integer, bools included.
        ValueError: for a seed outside [0, 2**64).
    """
    if not isinstance(seeds, np.ndarray):
        # An object array keeps Python ints exact; numpy makes [-1, 2**63] floats.
        seeds = np.array(seeds, dtype=object)
        if not all(map(is_integer, seeds.flat)):
            raise TypeError(f"seeds must be integers, got {seeds.tolist()!r}")
    elif seeds.dtype.kind not in "iu":
        raise TypeError(f"seeds must be integers, got dtype {seeds.dtype}")
    if seeds.size and not 0 <= int(seeds.min()) <= int(seeds.max()) < 2**64:
        raise ValueError("seeds must lie in [0, 2**64)")
    seeds = seeds.astype(np.uint64)

    def streams(role):
        return derive_seeds((), np.stack([seeds, np.full_like(seeds, role)], axis=-1))

    noise = draw_streams(streams(ROLE_NOISE), Generator.standard_normal, (k_hat, env.m))
    outliers = None
    if env.name == "outlier-prone":
        outliers = draw_streams(streams(ROLE_OUTLIER), Generator.random, (k_hat,)) < env.outlier_prob
    return noise, outliers


def rollout(env: EnvSpec, tokens, draws, k_hat: int) -> np.ndarray:
    """Draw the (k, k_hat, m) float64 reward batches of k prompts.

    `tokens` is a (k, T) array and `draws` the (noise, outliers) pair of
    `rollout_draws` for one seed per prompt, or one step's slice of a
    block of them. Row j depends only on tokens[j] and row j of the
    draws, so it equals the one-row call on that prompt.

    Raises:
        ValueError: for bad k_hat, prompts that do not match the
            environment's token space, noise that is not (k, k_hat, m), or
            outliers that are not a bool (k, k_hat) mask on outlier-prone
            and None elsewhere.
    """
    rows = np.asarray(tokens, dtype=np.int64)
    if k_hat <= 0:
        raise ValueError("k_hat must be positive")
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != env.prompt_length:
        raise ValueError(f"tokens must be a nonempty (k, {env.prompt_length}) array, got {rows.shape}")
    if rows.min() < 0 or rows.max() >= env.vocab_size:
        raise ValueError("token id out of range")
    noise, outliers = draws
    k = rows.shape[0]
    if noise.shape != (k, k_hat, env.m):
        raise ValueError(f"noise of shape {noise.shape} for {k} prompts of {k_hat} samples")
    if env.name != "outlier-prone" and outliers is not None:
        raise ValueError(f"{env.name} has no outliers, got an outlier mask")
    mask_ok = isinstance(outliers, np.ndarray) and outliers.dtype == bool and outliers.shape == (k, k_hat)
    if env.name == "outlier-prone" and not mask_ok:
        raise ValueError(f"outlier-prone needs a bool ({k}, {k_hat}) outlier mask")

    if env.name == "gaussian-arms":
        base = _arm_means(env, rows)
    else:
        base = _vote_fractions(env, rows)
    latents = base[:, None, :] + env.noise_scale * noise
    if outliers is not None:
        latents[outliers] = OUTLIER_LATENT
    return np.clip(latents, 0.0, 1.0)
