"""Tests for the synthetic environments and their known reward structure."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.random import PCG64, Generator

from moprompt.envs import ENV_NAMES, OUTLIER_LATENT, EnvSpec, builtin_env, rollout, rollout_draws
from moprompt.runner import ConfigError, config_from_dict
from moprompt.seeding import ROLE_ARMS, ROLE_NOISE, ROLE_OUTLIER, derive_seed, unit_floats
from oracles import rollout_seeded


def tug(m=2, noise=0.0, prompt_length=5, seed=0, **kw):
    return builtin_env(
        "tug-of-war", m=m, seed=seed, noise_scale=noise, prompt_length=prompt_length, **kw
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_builtin_env_rejects_unknown_name():
    with pytest.raises(ValueError):
        builtin_env("mystery", m=2, seed=0)


def test_env_spec_validation():
    inputs = np.zeros((2, 4))
    with pytest.raises(ValueError):
        EnvSpec(name="tug-of-war", m=1, vocab_size=8, prompt_length=5, inputs=inputs)
    with pytest.raises(ValueError):
        EnvSpec(name="tug-of-war", m=2, vocab_size=1, prompt_length=5, inputs=inputs)
    with pytest.raises(ValueError):
        EnvSpec(name="tug-of-war", m=2, vocab_size=8, prompt_length=5, inputs=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        EnvSpec(
            name="tug-of-war", m=2, vocab_size=8, prompt_length=5, inputs=inputs, noise_scale=-0.1
        )
    with pytest.raises(ValueError):
        EnvSpec(
            name="tug-of-war", m=2, vocab_size=8, prompt_length=5, inputs=inputs, outlier_prob=1.5
        )


def test_builtin_env_is_deterministic():
    a = builtin_env("tug-of-war", m=2, seed=3)
    b = builtin_env("tug-of-war", m=2, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, builtin_env("tug-of-war", m=2, seed=4).inputs)
    assert a.inputs.shape == (4, 8)
    assert np.abs(a.inputs).max() <= 1.0


def test_outlier_prob_only_for_outlier_env():
    assert builtin_env("tug-of-war", m=2, seed=0).outlier_prob == 0.0
    assert builtin_env("outlier-prone", m=2, seed=0).outlier_prob == 0.02


@pytest.mark.parametrize("name", ["tug-of-war", "gaussian-arms"])
@pytest.mark.parametrize("value", ["abc", math.nan, -3.0, True, 1.5], ids=["string", "nan", "negative", "bool", "above-one"])
def test_outlier_prob_validated_where_it_is_unused(name, value):
    with pytest.raises(ValueError, match="outlier_prob"):
        builtin_env(name, m=2, seed=0, outlier_prob=value)
    with pytest.raises(ConfigError, match="outlier_prob"):
        config_from_dict({"env": {"name": name, "outlier_prob": value}})
    assert builtin_env(name, m=2, seed=0, outlier_prob=0.3).outlier_prob == 0.0


# ---------------------------------------------------------------------------
# rollout basics


def test_rollout_rejects_bad_arguments():
    env = tug()
    prompt = [0, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        rollout_seeded(env, [prompt], [0], k_hat=0)
    with pytest.raises(ValueError):
        rollout_seeded(env, [[0, 1]], [0], k_hat=8)
    with pytest.raises(ValueError):
        rollout_seeded(env, [[0, 1, 0, 1, 9]], [0], k_hat=8)


def test_rollout_is_reproducible_per_seed():
    env = tug(noise=0.05)
    a = rollout_seeded(env, [[0, 1, 2, 3, 4]], [42], k_hat=128)[0]
    b = rollout_seeded(env, [[0, 1, 2, 3, 4]], [42], k_hat=128)[0]
    assert a.shape == (128, 2)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)
    c = rollout_seeded(env, [[0, 1, 2, 3, 4]], [43], k_hat=128)[0]
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("name", ENV_NAMES)
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 8])
def test_batched_rollout_rows_equal_single_prompt_calls(name, m, k):
    env = builtin_env(name, m=m, seed=m, outlier_prob=0.3)
    tokens = np.random.default_rng(10 * m + k).integers(0, env.vocab_size, size=(k, 5))
    seeds = [derive_seed(m, k, j) for j in range(k)]
    batch = rollout_seeded(env, tokens, seeds, 64)
    assert batch.shape == (k, 64, m)
    assert batch.dtype == np.float64
    for row, seed, rewards in zip(tokens, seeds, batch):
        assert np.array_equal(rewards, rollout_seeded(env, [row], [seed], 64)[0])
    if name == "outlier-prone":
        assert np.all(batch == OUTLIER_LATENT, axis=-1).any()


@pytest.mark.parametrize("name", ENV_NAMES)
def test_block_draws_equal_numpy_streams_and_per_step_rollouts(name):
    env = builtin_env(name, m=3, seed=2, outlier_prob=0.3)
    seeds = np.array([[5, 2**40 + 1, 7], [2**62, 0, 11]], dtype=np.uint64)
    noise, outliers = rollout_draws(env, seeds, 16)
    assert noise.shape == (2, 3, 16, 3)
    assert (outliers is None) == (name != "outlier-prone")
    tokens = np.arange(15).reshape(3, 5) % env.vocab_size
    for b, row_seeds in enumerate(seeds.tolist()):
        for j, s in enumerate(row_seeds):
            expected = Generator(PCG64(derive_seed(s, ROLE_NOISE))).standard_normal((16, 3))
            assert np.array_equal(noise[b, j], expected)
            if outliers is not None:
                mask = Generator(PCG64(derive_seed(s, ROLE_OUTLIER))).random(16) < 0.3
                assert np.array_equal(outliers[b, j], mask)
        step = (noise[b], None if outliers is None else outliers[b])
        assert np.array_equal(rollout(env, tokens, step, 16), rollout_seeded(env, tokens, row_seeds, 16))


def test_rollout_rejects_draws_of_another_shape():
    env = tug(m=2)
    draws = rollout_draws(env, [1, 2], 8)
    with pytest.raises(ValueError, match="noise"):
        rollout(env, np.zeros((3, 5), dtype=np.int64), draws, 8)
    with pytest.raises(ValueError, match="noise"):
        rollout(env, np.zeros((2, 5), dtype=np.int64), draws, 4)


def test_batched_rollout_rejects_bad_batches():
    env = tug()
    tokens = np.zeros((3, 5), dtype=np.int64)
    with pytest.raises(ValueError):
        rollout_seeded(env, tokens, [0, 1], 8)
    with pytest.raises(ValueError):
        rollout_seeded(env, np.zeros((3, 4), dtype=np.int64), [0, 1, 2], 8)
    with pytest.raises(ValueError):
        rollout_seeded(env, np.zeros((0, 5), dtype=np.int64), [], 8)
    with pytest.raises(ValueError, match=r"noise of shape \(4, 8, 2\) for 3 prompts"):
        rollout_seeded(env, tokens, [0, 1, 2, 3], 8)
    with pytest.raises(ValueError, match=r"noise of shape \(0, 8, 2\) for 1 prompts"):
        rollout_seeded(env, tokens[:1], [], 8)
    with pytest.raises(ValueError, match=r"\(k, 5\) array"):
        rollout_seeded(env, tokens[0], [0], 8)


@pytest.mark.parametrize("name", ENV_NAMES)
def test_rollout_requires_outliers_exactly_on_outlier_prone(name):
    env = builtin_env(name, m=2, seed=0, outlier_prob=0.5)
    tokens = np.zeros((3, 5), dtype=np.int64)
    noise = rollout_draws(env, [1, 2, 3], 8)[0]
    mask = np.ones((3, 8), dtype=bool)
    if name != "outlier-prone":
        with pytest.raises(ValueError, match="no outliers"):
            rollout(env, tokens, (noise, mask), 8)
        return
    # None drops every outlier; an int mask would be read as row indices.
    for bad in (None, mask.astype(np.int64), mask.astype(float), mask[:2], mask[:, :4], mask[None], mask.tolist()):
        with pytest.raises(ValueError, match="outlier mask"):
            rollout(env, tokens, (noise, bad), 8)
    assert np.all(rollout(env, tokens, (noise, mask), 8) == OUTLIER_LATENT)


def test_rollout_draws_reject_non_integer_seeds():
    env = tug()
    for bad in ([1.5], [True], ["7"], [None], np.array([1.0]), np.array([True]), 2.0):
        with pytest.raises(TypeError, match="integers"):
            rollout_draws(env, bad, 8)
    for bad in ([-1], [2**64], [0, -1, 2**63], np.array([-1]), np.array([[3, -2]], dtype=np.int8), -5):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            rollout_draws(env, bad, 8)


def test_rollout_draws_accept_every_integer_form_of_a_seed():
    env = builtin_env("outlier-prone", m=2, seed=0, outlier_prob=0.5)
    seeds = [0, 7, 2**63, 2**64 - 1]
    noise, outliers = rollout_draws(env, seeds, 8)
    for same in (np.array(seeds, dtype=np.uint64), [np.uint64(s) for s in seeds]):
        other_noise, other_outliers = rollout_draws(env, same, 8)
        assert np.array_equal(other_noise, noise) and np.array_equal(other_outliers, outliers)
    small = [[0, 7], [1, 2]]
    for dtype in (np.int8, np.int64, np.uint32):
        assert np.array_equal(rollout_draws(env, np.array(small, dtype), 8)[0], rollout_draws(env, small, 8)[0])
    assert np.array_equal(rollout_draws(env, 7, 8)[0], noise[1])


# ---------------------------------------------------------------------------
# tug-of-war structure


def test_single_axis_prompt_noise_free():
    for m in (2, 3):
        env = tug(m=m)
        rewards = rollout_seeded(env, [[0] * 5], [1], k_hat=16)[0]
        assert rewards.shape == (16, m)
        expected = np.zeros(m)
        expected[0] = 1.0
        assert np.array_equal(rewards, np.tile(expected, (16, 1)))
        rewards = rollout_seeded(env, [[1] * 5], [2], k_hat=4)[0]
        assert np.all(rewards[:, 1] == 1.0)
        assert np.all(rewards[:, 0] == 0.0)


def test_balanced_prompt_noise_free():
    env = tug(m=2, prompt_length=4)
    rewards = rollout_seeded(env, [[0, 1, 0, 1]], [3], k_hat=8)[0]
    assert rewards.tolist() == [[0.5, 0.5]] * 8


def test_vote_fraction_construction():
    env = tug(m=3)
    # tokens 0,3,6 vote axis 0; 1,4,7 axis 1; 2,5 axis 2
    rewards = rollout_seeded(env, [[0, 3, 1, 2, 2]], [4], k_hat=4)[0]
    assert rewards.shape == (4, 3)
    for row in rewards:
        assert row.tolist() == pytest.approx([0.4, 0.2, 0.4], abs=1e-15)


def test_simplex_law_exact_at_shipped_lengths():
    # Exhaustive over all vote patterns for the prompt lengths used in the
    # shipped configurations: the reward sum is exactly 1.0 at zero noise.
    for t_len in (3, 4, 5):
        for m in (2, 3):
            env = tug(m=m, prompt_length=t_len)
            for combo in itertools.combinations_with_replacement(range(m), t_len):
                rewards = rollout_seeded(env, [combo], [0], k_hat=1)[0, 0]
                assert float(rewards.sum()) == 1.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_simplex_law_general(seed, m, t_len):
    env = tug(m=m, prompt_length=t_len)
    tokens = np.random.default_rng(seed).integers(0, env.vocab_size, size=t_len)
    for row in rollout_seeded(env, [tokens], [seed], k_hat=2)[0]:
        assert abs(float(row.sum()) - 1.0) <= 1e-15


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rewards_always_in_unit_box(seed):
    env = tug(m=2, noise=0.7)
    rewards = rollout_seeded(env, [[0, 0, 0, 0, 1]], [seed], k_hat=32)[0]
    assert rewards.shape == (32, 2)
    assert rewards.dtype == np.float64
    assert rewards.min() >= 0.0
    assert rewards.max() <= 1.0
    # Independent oracle for the latents: vote fractions (0.8, 0.2) plus the
    # seed's noise stream, drawn here rather than inside the environment.
    noise = np.random.default_rng(derive_seed(seed, ROLE_NOISE)).standard_normal((32, 2))
    latents = np.array([0.8, 0.2]) + 0.7 * noise
    assert np.array_equal(rewards, np.clip(latents, 0.0, 1.0))
    # At this noise scale clamping must actually trigger somewhere.
    assert (latents != rewards).any()


# ---------------------------------------------------------------------------
# outlier-prone


def test_outlier_prob_zero_matches_tug_of_war_bitwise():
    base = tug(m=2, noise=0.05)
    out = builtin_env("outlier-prone", m=2, seed=0, noise_scale=0.05, outlier_prob=0.0)
    a = rollout_seeded(base, [[0, 1, 1, 0, 1]], [9], k_hat=64)[0]
    b = rollout_seeded(out, [[0, 1, 1, 0, 1]], [9], k_hat=64)[0]
    assert np.array_equal(a, b)


def test_outlier_replacement():
    env = builtin_env("outlier-prone", m=3, seed=0, outlier_prob=1.0)
    rewards = rollout_seeded(env, [[0, 1, 2, 0, 1]], [5], k_hat=8)[0]
    assert rewards.tolist() == [[0.95, 0.95, 0.95]] * 8


def test_outlier_rate_matches_probability():
    env = builtin_env("outlier-prone", m=2, seed=1, noise_scale=0.0, outlier_prob=0.02)
    rewards = rollout_seeded(env, [[0, 1, 0, 1, 0]], [6], k_hat=50_000)[0]
    hits = int(np.all(rewards == 0.95, axis=1).sum())
    rate = hits / 50_000
    assert abs(rate - 0.02) < 3.0 * np.sqrt(0.02 * 0.98 / 50_000)


# ---------------------------------------------------------------------------
# gaussian-arms


def test_arm_means_are_stable_and_bounded():
    env = builtin_env("gaussian-arms", m=3, seed=0, noise_scale=0.0)
    a = rollout_seeded(env, [[0, 1, 2, 3, 4]], [7], k_hat=3)[0]
    assert np.array_equal(a, np.tile(a[0], (3, 1)))
    # Frozen regression value for the platform-stable hash construction.
    assert a[0].tolist() == pytest.approx(
        [0.18563859242380432, 0.10951141452598451, 0.25718158325095924], abs=1e-15
    )
    env2 = builtin_env("gaussian-arms", m=2, seed=7, noise_scale=0.0)
    b = rollout_seeded(env2, [[5, 5, 5, 5, 5]], [8], k_hat=1)[0]
    assert b[0].tolist() == pytest.approx(
        [0.3319981484679338, 0.364899692687594], abs=1e-15
    )


def test_arm_means_depend_on_tokens_and_seed():
    env = builtin_env("gaussian-arms", m=2, seed=0, noise_scale=0.0)
    means = set()
    rng = np.random.default_rng(0)
    for _ in range(100):
        tokens = rng.integers(0, env.vocab_size, size=5)
        means.add(tuple(rollout_seeded(env, [tokens], [0], k_hat=1)[0, 0].tolist()))
    # Hash quality: collisions across distinct sequences would repeat means.
    assert len(means) >= 95
    other = builtin_env("gaussian-arms", m=2, seed=1, noise_scale=0.0)
    assert not np.array_equal(
        rollout_seeded(env, [[0, 1, 2, 3, 4]], [0], 1)[0, 0],
        rollout_seeded(other, [[0, 1, 2, 3, 4]], [0], 1)[0, 0],
    )


def reference_arm_mean(env, tokens):
    """One prompt's mean vector, hashed with the full-length derive_seed."""
    u = unit_floats(derive_seed(env.seed, ROLE_ARMS, *tokens), env.m + 1)
    exps = [-math.log(1.0 - x) for x in u[: env.m]]
    return (0.4 + 0.6 * u[env.m]) * np.array(exps) / sum(exps)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, -3, 2**64 + 5])
def test_batched_arm_means_equal_per_prompt_reference_bitwise(m, seed):
    env = builtin_env("gaussian-arms", m=m, seed=seed, noise_scale=0.0)
    tokens = np.random.default_rng(m).integers(0, env.vocab_size, size=(8, 5))
    batch = rollout_seeded(env, tokens, list(range(8)), 2)
    for row, rewards in zip(tokens.tolist(), batch):
        mean = np.clip(reference_arm_mean(env, row), 0.0, 1.0)
        assert np.array_equal(rewards, np.tile(mean, (2, 1)))


@pytest.mark.parametrize("m", [2, 3])
def test_arm_objectives_negatively_correlated(m):
    env = builtin_env("gaussian-arms", m=m, seed=2, noise_scale=0.0)
    rng = np.random.default_rng(3)
    means = []
    for _ in range(3000):
        tokens = rng.integers(0, env.vocab_size, size=5)
        means.append(rollout_seeded(env, [tokens], [0], k_hat=1)[0, 0])
    corr = np.corrcoef(np.stack(means).T)
    off_diagonal = corr[~np.eye(m, dtype=bool)]
    assert off_diagonal.max() < 0.0
