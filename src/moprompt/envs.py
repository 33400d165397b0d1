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
(k, T) token array and k seeds in, the (k, k_hat, m) reward array out.
The noise and outlier draws depend on the seeds alone, not on the tokens,
so `rollout_draws` can draw them for many steps at once, a (steps, k)
seed array in, and `rollout` then takes one step's slice of them.
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
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_finite_reals(error: type, **values) -> None:
    """Raise `error` naming the first value that is not a finite real number.

    Bools are rejected: YAML's `true` would otherwise train as 1.0.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
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
        if self.inputs.ndim != 2 or self.inputs.shape[0] == 0:
            raise ValueError("inputs must be a nonempty (n_inputs, context_dim) array")
        check_finite_reals(ValueError, noise_scale=self.noise_scale)
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be nonnegative")
        _check_outlier_prob(self.outlier_prob)

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
    if name not in ENV_NAMES:
        raise ValueError(f"unknown environment {name!r}, expected one of {ENV_NAMES}")
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
    means = np.empty((rows.shape[0], env.m))
    for j, key in enumerate(derive_seeds((env.seed, ROLE_ARMS), rows.tolist())):
        u = unit_floats(key, env.m + 1)
        # math.log, not np.log: the two differ in the last bit on some inputs.
        exps = [-math.log(1.0 - x) for x in u[: env.m]]
        means[j] = (0.4 + 0.6 * u[env.m]) * np.array(exps) / sum(exps)
    return means


def rollout_draws(env: EnvSpec, seeds, k_hat: int):
    """The token-independent randomness of rollouts, for any array of seeds.

    Returns (noise, outliers): the seeds.shape + (k_hat, m) standard normal
    noise, from the stream derive_seed(s, ROLE_NOISE) of each seed s, and on
    outlier-prone the seeds.shape + (k_hat,) boolean mask of the samples
    replaced by the outlier, from the stream derive_seed(s, ROLE_OUTLIER);
    elsewhere outliers is None. A seed's draws do not depend on the other
    seeds, so a (steps, k) array gives every step what a one-step call
    gives it.

    `seeds` holds integers in [0, 2**64).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)

    def streams(role):
        return derive_seeds((), np.stack([seeds, np.full_like(seeds, role)], axis=-1))

    noise = draw_streams(streams(ROLE_NOISE), Generator.standard_normal, (k_hat, env.m))
    outliers = None
    if env.name == "outlier-prone":
        outliers = draw_streams(streams(ROLE_OUTLIER), Generator.random, (k_hat,)) < env.outlier_prob
    return noise, outliers


def rollout(env: EnvSpec, tokens, seeds, k_hat: int, draws=None) -> np.ndarray:
    """Draw the (k, k_hat, m) float64 reward batches of k prompts.

    `tokens` is a (k, T) array with one seed per row. Row j depends only
    on (env, tokens[j], seeds[j]), so it equals the one-row call on that
    prompt. Noise and outlier replacement use disjoint RNG streams derived
    from the seed, so setting outlier_prob to zero reproduces the noise
    stream exactly.

    `draws`, when given, is the (noise, outliers) pair `rollout_draws`
    returns for the k seeds, for example one step's slice of a block of
    steps; `seeds` is then ignored and may be None. Otherwise `rollout`
    draws them from `seeds`.

    Raises:
        ValueError: for bad k_hat, not one seed or draw per row, or prompts
            that do not match the environment's token space.
    """
    rows = np.asarray(tokens, dtype=np.int64)
    if k_hat <= 0:
        raise ValueError("k_hat must be positive")
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != env.prompt_length:
        raise ValueError(f"tokens must be a nonempty (k, {env.prompt_length}) array, got {rows.shape}")
    if rows.min() < 0 or rows.max() >= env.vocab_size:
        raise ValueError("token id out of range")
    if draws is None:
        seeds = list(seeds)
        if len(seeds) != rows.shape[0]:
            raise ValueError(f"{len(seeds)} seeds for {rows.shape[0]} prompts")
        draws = rollout_draws(env, seeds, k_hat)
    noise, outliers = draws
    if noise.shape != (rows.shape[0], k_hat, env.m):
        raise ValueError(f"noise of shape {noise.shape} for {rows.shape[0]} prompts of {k_hat} samples")

    if env.name == "gaussian-arms":
        base = _arm_means(env, rows)
    else:
        base = _vote_fractions(env, rows)
    latents = base[:, None, :] + env.noise_scale * noise
    if outliers is not None:
        latents[outliers] = OUTLIER_LATENT
    return np.clip(latents, 0.0, 1.0)
