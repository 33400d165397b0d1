"""Tests for the token policy: sampling, soft-Q loss, analytic gradients.

The central check is gradient fidelity: the analytic backprop gradient must
match central finite differences of an independently written forward pass.
Because the loss treats its regression targets as constants (stop-gradient),
the finite-difference oracle freezes targets at the base parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt import policy as policy_module
from moprompt.policy import (
    PolicyConfig,
    PolicyParams,
    init_policy,
    load_checkpoint,
    param_count,
    per_objective_loss_grads,
    sample_prompts,
    save_checkpoint,
    sql_loss_and_grad,
)
from oracles import (
    oracle_loss_fixed_targets,
    oracle_soft_value,
    oracle_targets,
    oracle_unpack,
    prompt_log_probs,
    sample_seeded,
)


def small_cfg(**overrides) -> PolicyConfig:
    base = dict(vocab_size=3, prompt_length=2, hidden_dim=4, context_dim=2)
    base.update(overrides)
    return PolicyConfig(**base)


def zero_params(cfg: PolicyConfig) -> PolicyParams:
    return PolicyParams(cfg=cfg, flat=np.zeros(param_count(cfg)))


# ---------------------------------------------------------------------------
# config, init, checkpoints


def test_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(vocab_size=0)
    with pytest.raises(ValueError):
        PolicyConfig(vocab_size=4, hidden_dim=0)
    with pytest.raises(ValueError):
        PolicyConfig(vocab_size=4, temperature=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(vocab_size=4, reward_scale=-1.0)
    for bad in (float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="finite number"):
            PolicyConfig(vocab_size=4, temperature=bad)
        with pytest.raises(ValueError, match="finite number"):
            PolicyConfig(vocab_size=4, reward_scale=bad)
    for name in ("vocab_size", "prompt_length", "hidden_dim", "context_dim"):
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
                PolicyConfig(**{"vocab_size": 4, name: bad})


def test_init_is_deterministic_with_zero_biases():
    cfg = small_cfg()
    a = init_policy(cfg, seed=9)
    b = init_policy(cfg, seed=9)
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, init_policy(cfg, seed=10).flat)
    _, _, b_h, _, b_out = oracle_unpack(cfg, a.flat)
    assert np.all(b_h == 0.0)
    assert np.all(b_out == 0.0)


def test_init_respects_fan_in_bounds():
    cfg = small_cfg(hidden_dim=16)
    w_in, w_h, _, w_out, _ = oracle_unpack(cfg, init_policy(cfg, seed=0).flat)
    assert np.abs(w_in).max() <= 1.0 / np.sqrt(cfg.input_dim)
    assert np.abs(w_h).max() <= 1.0 / np.sqrt(cfg.hidden_dim)
    assert np.abs(w_out).max() <= 1.0 / np.sqrt(cfg.hidden_dim)


def test_param_count_matches_flat_length():
    cfg = small_cfg(vocab_size=5, prompt_length=3, hidden_dim=7, context_dim=4)
    assert init_policy(cfg, seed=1).flat.shape == (param_count(cfg),)
    with pytest.raises(ValueError, match="parameters, got shape"):
        PolicyParams(cfg, np.zeros(param_count(cfg) + 1))
    flat = np.zeros(param_count(cfg))
    flat[3] = np.nan
    with pytest.raises(ValueError, match="parameters must be finite"):
        PolicyParams(cfg, flat)


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg()
    params = init_policy(cfg, seed=3)
    path = tmp_path / "checkpoint_3.txt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.cfg == cfg
    assert np.array_equal(loaded.flat, params.flat)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"]["temperature"] = float("nan")
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="temperature"):
        load_checkpoint(path)


def json_dump_checkpoint(path, params):
    """The json.dump checkpoint writer, kept as the byte-level reference."""
    payload = {"config": asdict(params.cfg), "flat": params.flat.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


@pytest.mark.parametrize("seed", range(6))
def test_checkpoint_bytes_equal_json_dump(tmp_path, seed):
    rng = np.random.default_rng(seed)
    cfg = small_cfg(vocab_size=5, hidden_dim=6, temperature=0.25)
    n = param_count(cfg)
    flat = rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, size=n)
    flat[rng.integers(0, n, size=3)] = -0.0
    flat[0] = 0.0
    params = PolicyParams(cfg, flat)
    save_checkpoint(tmp_path / "fast.txt", params)
    json_dump_checkpoint(tmp_path / "json.txt", params)
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "json.txt").read_bytes()
    loaded = load_checkpoint(tmp_path / "fast.txt")
    assert loaded.cfg == cfg
    assert np.array_equal(loaded.flat, flat)
    assert np.array_equal(np.signbit(loaded.flat), np.signbit(flat))


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_per_seed():
    params = init_policy(small_cfg(), seed=0)
    ctx = np.array([0.3, -0.2])
    a_tokens, a_table = sample_seeded(params, ctx, k=4, seed=11)
    b_tokens, b_table = sample_seeded(params, ctx, k=4, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a_tokens, b_tokens))
    assert np.array_equal(prompt_log_probs(a_table, a_tokens), prompt_log_probs(b_table, b_tokens))
    c_tokens, _ = sample_seeded(params, ctx, k=4, seed=12)
    assert any(not np.array_equal(x, y) for x, y in zip(a_tokens, c_tokens))


def test_sampling_from_given_uniforms_equals_seeded_sampling():
    """k is read from the (T, k) uniforms, and row t decides token t: the
    draws equal the per-position sampler's rng.random(k) on the same seed."""
    params = init_policy(small_cfg(), seed=0)
    ctx = np.array([0.3, -0.2])
    uniforms = np.random.default_rng(11).random((2, 4))
    tokens, table = sample_prompts(params, ctx, uniforms)
    want_tokens, _, want_log_probs = per_position_sampler(params, ctx, 4, 11)
    assert tokens.shape == (4, 2)
    assert np.array_equal(tokens, want_tokens)
    assert np.allclose(prompt_log_probs(table, tokens), want_log_probs, rtol=1e-14, atol=0.0)
    for bad in (uniforms.T, uniforms[0], uniforms[:, :0], uniforms[None]):
        with pytest.raises(ValueError, match="uniforms"):
            sample_prompts(params, ctx, bad)


def per_position_sampler(params, context, k, seed):
    """The sampler as one rng.random(k) draw per position, kept as a reference."""
    cfg = params.cfg
    w_in, w_h, b_h, w_out, b_out = oracle_unpack(cfg, params.flat)
    rng = np.random.default_rng(seed)
    tokens = np.zeros((k, cfg.prompt_length), dtype=np.int64)
    all_logits = np.zeros((k, cfg.prompt_length, cfg.vocab_size))
    log_probs = np.zeros(k)
    x = np.zeros((k, cfg.input_dim))
    x[:, : cfg.context_dim] = context
    for t in range(cfg.prompt_length):
        x[:, cfg.context_dim :] = 0.0
        x[:, cfg.context_dim + t] = 1.0
        if t > 0:
            x[np.arange(k), cfg.context_dim + cfg.prompt_length + tokens[:, t - 1]] = 1.0
        logits = np.tanh(np.tanh(x @ w_in.T) @ w_h.T + b_h) @ w_out.T + b_out
        z = logits / cfg.temperature
        z = z - z.max(axis=-1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        cum = np.exp(log_p).cumsum(axis=1)
        draw = rng.random(k)
        chosen = np.minimum((draw[:, None] >= cum).sum(axis=1), cfg.vocab_size - 1)
        tokens[:, t] = chosen
        all_logits[:, t, :] = logits
        log_probs += log_p[np.arange(k), chosen]
    return tokens, all_logits, log_probs


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("seed", range(4))
def test_sampling_matches_per_position_draws_bitwise(k, seed):
    cfg = small_cfg(vocab_size=5, prompt_length=4, temperature=0.5)
    params = init_policy(cfg, seed=seed)
    ctx = np.random.default_rng(seed).normal(size=2)
    tokens, table = sample_seeded(params, ctx, k=k, seed=seed + 20)
    log_probs = prompt_log_probs(table, tokens)
    want_tokens, want_logits, want_log_probs = per_position_sampler(params, ctx, k, seed + 20)
    assert tokens.shape == (k, 4) and tokens.dtype == np.int64
    assert log_probs.shape == (k,)
    assert np.array_equal(tokens, want_tokens)
    # The table's one (T*V, d) product and the reference's (k, d) product
    # per position can take different gemm paths: logits and log
    # probabilities agree to a few ulps, the draws exactly.
    logits = table.logits[table.rows(tokens)]
    assert logits.shape == (k, 4, 5)
    assert np.abs(logits - want_logits).max() <= 2e-15 * np.abs(want_logits).max()
    assert np.all(np.abs(log_probs - want_log_probs) <= 2e-15 * np.abs(want_log_probs))


def row_lookup_sampler(table, uniforms):
    """The sampler as one table row lookup per position, kept as a reference."""
    v = table.params.cfg.vocab_size
    tokens = np.empty(uniforms.T.shape, dtype=np.int64)
    rows = np.zeros(uniforms.shape[1], dtype=np.int64)
    for t, draw in enumerate(uniforms):
        if t > 0:
            rows = tokens[:, t - 1] + t * v
        tokens[:, t] = np.minimum((draw[:, None] >= table.cum[rows]).sum(axis=1), v - 1)
    return tokens


@pytest.mark.parametrize("v", [2, 3, 8, 16])
@pytest.mark.parametrize("temperature", [0.25, 1.0, 4.0])
def test_sampling_chain_equals_row_lookups(v, temperature):
    cfg = PolicyConfig(vocab_size=v, prompt_length=5, hidden_dim=8, context_dim=3, temperature=temperature)
    rng = np.random.default_rng(v)
    for k in range(1, 40):
        params = init_policy(cfg, seed=k)
        ctx = rng.normal(size=3)
        uniforms = rng.random((5, k))
        _, table = sample_prompts(params, ctx, uniforms)
        # Every third draw of position t is set equal to a cumulative
        # probability of the row it is compared with, so the comparison
        # ties; rows at t depend only on the draws before t. A draw of 1.0
        # checks the clamp to V - 1.
        for t in range(5):
            rows = table.rows(row_lookup_sampler(table, uniforms))[::3, t]
            uniforms[t, ::3] = table.cum[rows, rng.integers(0, v, rows.shape)]
        uniforms[-1, -1] = 1.0
        tokens, table = sample_prompts(params, ctx, uniforms)
        assert np.array_equal(tokens, row_lookup_sampler(table, uniforms))


def oracle_table_inputs(cfg):
    """(row id, position, previous token or None) for every table row; the
    V rows of position 0 all hold its one input."""
    out = []
    for t in range(cfg.prompt_length):
        for prev in range(cfg.vocab_size):
            out.append((len(out), t, prev if t > 0 else None))
    return out


@pytest.mark.parametrize("trial", range(12))
def test_table_rows_equal_oracle_forward(trial):
    rng = np.random.default_rng(700 + trial)
    cfg = PolicyConfig(
        vocab_size=int(rng.integers(2, 9)),
        prompt_length=int(rng.integers(1, 6)),
        hidden_dim=int(rng.integers(2, 9)),
        context_dim=3,
        temperature=float(rng.uniform(0.2, 2.0)),
    )
    params = init_policy(cfg, seed=trial)
    ctx = rng.normal(size=3)
    tokens, table = sample_seeded(params, ctx, k=16, seed=trial)
    inputs = oracle_table_inputs(cfg)
    assert table.logits.shape == (cfg.prompt_length * cfg.vocab_size, cfg.vocab_size)
    assert len(inputs) == table.logits.shape[0]

    w_in, w_h, b_h, w_out, b_out = oracle_unpack(cfg, params.flat)
    row_of = {}
    for r, t, prev in inputs:
        row_of.setdefault((t, prev), r)
        x = np.zeros(cfg.input_dim)
        x[: cfg.context_dim] = ctx
        x[cfg.context_dim + t] = 1.0
        if prev is not None:
            x[cfg.context_dim + cfg.prompt_length + prev] = 1.0
        h0 = np.tanh(w_in @ x)
        h1 = np.tanh(w_h @ h0 + b_h)
        logits = w_out @ h1 + b_out
        z = logits / cfg.temperature
        log_p = z - z.max() - math.log(np.exp(z - z.max()).sum())
        assert np.array_equal(table.inputs[r], x)
        assert np.abs(table.h0[r] - h0).max() < 1e-12
        assert np.abs(table.h1[r] - h1).max() < 1e-12
        assert np.abs(table.logits[r] - logits).max() < 1e-12
        assert np.abs(table.log_p[r] - log_p).max() < 1e-12
        assert np.abs(table.cum[r] - np.cumsum(np.exp(log_p))).max() < 1e-12
        assert table.values[r] == pytest.approx(oracle_soft_value(logits, cfg.temperature), abs=1e-12)

    ids = table.rows(tokens)
    for j, sample_tokens in enumerate(tokens):
        for t in range(cfg.prompt_length):
            assert ids[j, t] == row_of[(t, None if t == 0 else sample_tokens[t - 1])]


def test_sampling_rejects_bad_arguments():
    params = init_policy(small_cfg(), seed=0)
    with pytest.raises(ValueError):
        sample_prompts(params, np.zeros(3), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        sample_prompts(params, np.zeros(2), np.zeros((2, 0)))


def test_zero_weights_sample_uniformly():
    cfg = PolicyConfig(vocab_size=4, prompt_length=2, hidden_dim=4, context_dim=2)
    tokens, _ = sample_seeded(zero_params(cfg), np.zeros(2), k=100_000, seed=5)
    # 3 sigma for a fair four-way split over 1e5 draws.
    bound = 3.0 * math.sqrt(0.25 * 0.75 / 100_000)
    for t in range(cfg.prompt_length):
        freq = np.bincount(tokens[:, t], minlength=4) / 100_000
        assert np.abs(freq - 0.25).max() < bound


def test_head_bias_dominates_sampling():
    cfg = PolicyConfig(vocab_size=4, prompt_length=2, hidden_dim=4, context_dim=2)
    flat = np.zeros(param_count(cfg))
    flat[-4] = 10.0  # output bias of token 0
    tokens, _ = sample_seeded(PolicyParams(cfg, flat), np.zeros(2), k=5000, seed=6)
    assert (tokens == 0).mean() > 0.99


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_log_prob_matches_recomputation(seed):
    cfg = small_cfg(vocab_size=5, prompt_length=3)
    params = init_policy(cfg, seed=seed % 1000)
    ctx = np.random.default_rng(seed).normal(size=2)
    tokens, table = sample_seeded(params, ctx, k=3, seed=seed)
    logits = table.logits[table.rows(tokens)]
    for sample_tokens, sample_logits, log_prob in zip(tokens, logits, prompt_log_probs(table, tokens)):
        total = 0.0
        for t in range(cfg.prompt_length):
            z = sample_logits[t] / cfg.temperature
            probs = np.exp(z - z.max())
            probs /= probs.sum()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            total += math.log(probs[sample_tokens[t]])
        assert total == pytest.approx(log_prob, abs=1e-12)


# ---------------------------------------------------------------------------
# loss values


def test_zero_policy_zero_reward_closed_form():
    # vocab 2, two positions, temperature 1: interior target is log 2 and the
    # terminal target is 0, so the loss is ((log 2)^2 + 0) / 4 regardless of
    # which tokens were sampled.
    cfg = PolicyConfig(vocab_size=2, prompt_length=2, hidden_dim=3, context_dim=2)
    params = zero_params(cfg)
    tokens, table = sample_seeded(params, np.zeros(2), k=4, seed=0)
    loss, grad = sql_loss_and_grad(table, tokens, np.zeros(4))
    assert loss == pytest.approx(math.log(2.0) ** 2 / 4.0, abs=1e-12)
    assert grad.shape == (param_count(cfg),)


def test_loss_is_nonnegative_and_matches_oracle():
    cfg = small_cfg()
    params = init_policy(cfg, seed=2)
    ctx = np.array([0.1, 0.4])
    tokens, table = sample_seeded(params, ctx, k=5, seed=3)
    rewards = np.linspace(0.0, 1.0, 5)
    loss, _ = sql_loss_and_grad(table, tokens, rewards)
    targets = oracle_targets(cfg, params.flat, ctx, tokens, rewards)
    assert loss >= 0.0
    assert loss == pytest.approx(
        oracle_loss_fixed_targets(cfg, params.flat, ctx, tokens, targets), abs=1e-12
    )


def test_loss_rejects_misaligned_rewards():
    params = init_policy(small_cfg(), seed=0)
    tokens, table = sample_seeded(params, np.zeros(2), k=3, seed=0)
    with pytest.raises(ValueError):
        sql_loss_and_grad(table, tokens, [0.5, 0.5])
    with pytest.raises(ValueError):
        sql_loss_and_grad(table, tokens, [0.5, np.nan, 0.5])
    with pytest.raises(ValueError):
        sql_loss_and_grad(table, np.zeros((0, 2), dtype=np.int64), [])


# ---------------------------------------------------------------------------
# gradient fidelity


def relative_errors(analytic, numeric):
    return np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-6)


@pytest.mark.parametrize("trial", range(6))
def test_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    cfg = PolicyConfig(
        vocab_size=int(rng.integers(2, 5)),
        prompt_length=int(rng.integers(1, 4)),
        hidden_dim=int(rng.integers(2, 5)),
        context_dim=2,
        temperature=float(rng.uniform(0.5, 2.0)),
    )
    params = init_policy(cfg, seed=trial)
    ctx = rng.normal(size=2)
    tokens, table = sample_seeded(params, ctx, k=3, seed=trial + 50)
    rewards = rng.uniform(0.0, 1.0, size=3)

    _, analytic = sql_loss_and_grad(table, tokens, rewards)
    targets = oracle_targets(cfg, params.flat, ctx, tokens, rewards)

    eps = 1e-4
    numeric = np.zeros_like(analytic)
    for idx in range(params.flat.size):
        up = params.flat.copy()
        up[idx] += eps
        down = params.flat.copy()
        down[idx] -= eps
        hi = oracle_loss_fixed_targets(cfg, up, ctx, tokens, targets)
        lo = oracle_loss_fixed_targets(cfg, down, ctx, tokens, targets)
        numeric[idx] = (hi - lo) / (2.0 * eps)
    assert relative_errors(analytic, numeric).max() < 1e-4


# ---------------------------------------------------------------------------
# per-objective gradients


def test_per_objective_matches_single_objective_bitwise():
    cfg = small_cfg(vocab_size=4, prompt_length=3)
    params = init_policy(cfg, seed=7)
    ctx = np.array([0.2, -0.3])
    tokens, table = sample_seeded(params, ctx, k=6, seed=8)
    rv = np.random.default_rng(9).uniform(0.0, 1.0, size=(6, 3))
    losses, grads = per_objective_loss_grads(table, tokens, rv)
    for i in range(3):
        loss_i, grad_i = sql_loss_and_grad(table, tokens, rv[:, i])
        assert losses[i] == loss_i
        assert np.array_equal(grads[i], grad_i)


def per_column_loss_grads(table, tokens, reward_vectors):
    """Reference: one soft-value pass and one 2-D backward per reward column,
    over the table rows the sampled positions read."""
    cfg = table.params.cfg
    w_in, w_h, _, w_out, _ = policy_module._views(cfg, table.params.flat)
    n, t_len = tokens.shape
    nt = n * t_len
    ids = table.rows(tokens).reshape(nt)
    rows, h0, h1, logits = table.inputs[ids], table.h0[ids], table.h1[ids], table.logits[ids]
    flat_tokens = tokens.reshape(nt)
    chosen_q = logits[np.arange(nt), flat_tokens]
    losses, grads = [], []
    for col in np.asarray(reward_vectors, float).T:
        z = logits / cfg.temperature
        z_max = z.max(axis=1)
        values = cfg.temperature * (np.log(np.exp(z - z_max[:, None]).sum(axis=1)) + z_max)
        values = values.reshape(n, t_len)
        targets = np.empty((n, t_len))
        targets[:, :-1] = values[:, 1:]
        targets[:, -1] = cfg.reward_scale * col
        residual = chosen_q - targets.reshape(nt)
        losses.append(0.5 * float(residual @ residual) / nt)
        d_logits = np.zeros_like(logits)
        d_logits[np.arange(nt), flat_tokens] = residual / nt
        d_h1 = (d_logits @ w_out) * (1.0 - h1 * h1)
        d_h0 = (d_h1 @ w_h) * (1.0 - h0 * h0)
        parts = (d_h0.T @ rows, d_h1.T @ h0, d_h1.sum(axis=0), d_logits.T @ h1, d_logits.sum(axis=0))
        grads.append(np.concatenate([g.ravel() for g in parts]))
    return np.array(losses), np.array(grads)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("trial", range(3))
def test_stacked_backward_rows_equal_per_column_reference_bitwise(m, k, trial):
    rng = np.random.default_rng(100 * m + 10 * k + trial)
    cfg = PolicyConfig(vocab_size=8, prompt_length=5, temperature=float(rng.uniform(0.2, 2.0)))
    params = init_policy(cfg, seed=trial)
    ctx = rng.normal(size=cfg.context_dim)
    tokens, table = sample_seeded(params, ctx, k=k, seed=trial)
    rv = rng.uniform(0.0, 1.0, size=(k, m))
    losses, grads = per_objective_loss_grads(table, tokens, rv)
    ref_losses, ref_grads = per_column_loss_grads(table, tokens, rv)
    assert grads.shape == (m, param_count(cfg))
    assert np.array_equal(losses, ref_losses)
    assert np.array_equal(grads, ref_grads)
    loss0, grad0 = sql_loss_and_grad(table, tokens, rv[:, 0])
    assert loss0 == losses[0]
    assert np.array_equal(grad0, grads[0])


def test_identical_objectives_give_identical_gradients():
    params = init_policy(small_cfg(), seed=1)
    tokens, table = sample_seeded(params, np.zeros(2), k=4, seed=2)
    col = np.random.default_rng(3).uniform(0.0, 1.0, size=4)
    rv = np.stack([col, col, col], axis=1)
    _, grads = per_objective_loss_grads(table, tokens, rv)
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(grads[0], grads[2])


def test_per_objective_single_column_equals_sql_loss():
    params = init_policy(small_cfg(), seed=4)
    tokens, table = sample_seeded(params, np.zeros(2), k=3, seed=5)
    col = np.array([0.1, 0.9, 0.4])
    losses, grads = per_objective_loss_grads(table, tokens, col[:, None])
    loss, grad = sql_loss_and_grad(table, tokens, col)
    assert losses[0] == loss
    assert np.array_equal(grads[0], grad)


def test_per_objective_rejects_bad_shapes():
    params = init_policy(small_cfg(), seed=0)
    tokens, table = sample_seeded(params, np.zeros(2), k=3, seed=0)
    with pytest.raises(ValueError):
        per_objective_loss_grads(table, tokens, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        per_objective_loss_grads(table, tokens, np.zeros((3, 0)))
    with pytest.raises(ValueError, match="token id out of range"):
        per_objective_loss_grads(table, np.full_like(tokens, small_cfg().vocab_size), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# smoke convergence


def test_bandit_smoke_convergence():
    # Single-position bandit: reward 1 for token 3, else 0. Plain gradient
    # descent on the soft-Q loss must concentrate the policy on token 3.
    cfg = PolicyConfig(vocab_size=8, prompt_length=1, hidden_dim=16, context_dim=2)
    params = init_policy(cfg, seed=0)
    ctx = np.zeros(2)
    flat = params.flat
    for step in range(500):
        current = PolicyParams(cfg, flat)
        tokens, table = sample_seeded(current, ctx, k=16, seed=1000 + step)
        rewards = np.array([1.0 if row[0] == 3 else 0.0 for row in tokens])
        _, grad = sql_loss_and_grad(table, tokens, rewards)
        flat = flat - 0.1 * grad
    probe_tokens, probe_table = sample_seeded(PolicyParams(cfg, flat), ctx, k=1, seed=0)
    probe_logits = probe_table.logits[probe_table.rows(probe_tokens)]
    z = probe_logits[0][0] / cfg.temperature
    probs = np.exp(z - z.max())
    probs /= probs.sum()
    assert probs[3] > 0.9
