"""Test oracles and seeded helpers, kept apart from the code they check.

`dominates` is the pairwise Pareto relation and `hypervolume_mc` a seeded
Monte-Carlo hypervolume estimate. Neither shares code with the exact path.

`simplex_grid_norm_sq` is the min-norm oracle: the smallest λᵀGλ over a
grid on the simplex of 2 or 3 weights, by exhaustive search.

The soft-Q oracle is a loop-based forward pass written apart from the
policy's vectorized one: `oracle_unpack` slices the flat parameters,
`oracle_logits` runs one sample position by position, `oracle_soft_value`
is the soft maximum of a logit row, and `oracle_targets` with
`oracle_loss_fixed_targets` give the soft-Q loss with its regression
targets frozen at the base parameters, as the analytic gradient treats
them (stop-gradient).

`sample_seeded` and `rollout_seeded` run one policy call on the draws of a
seed: the (T, k) uniforms np.random.default_rng(seed).random((T, k)) for
`sample_prompts`, and `rollout_draws` of one seed per prompt for
`rollout`. `prompt_log_probs` reads each sampled prompt's log probability
from its policy table.
"""

from __future__ import annotations

import math

import numpy as np

from moprompt.envs import rollout, rollout_draws
from moprompt.policy import sample_prompts


def sample_seeded(params, context, k: int, seed: int):
    """(tokens, table) of k prompts sampled on seed's (T, k) uniforms."""
    uniforms = np.random.default_rng(seed).random((params.cfg.prompt_length, k))
    return sample_prompts(params, context, uniforms)


def rollout_seeded(env, tokens, seeds, k_hat: int) -> np.ndarray:
    """The (k, k_hat, m) rewards of k prompts on the draws of their k seeds."""
    return rollout(env, tokens, rollout_draws(env, seeds, k_hat), k_hat)


def prompt_log_probs(table, tokens) -> np.ndarray:
    """(k,) log probability of each (k, T) prompt under its sampling table."""
    return table.log_p[table.rows(tokens), tokens].sum(axis=1)


def dominates(a, b) -> bool:
    """True iff `a` is >= `b` in every objective and > in at least one.

    Raises:
        ValueError: if the two vectors differ in dimension.
    """
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return bool(np.all(av >= bv) and np.any(av > bv))


# Elements of the sample-versus-point comparison in one `hypervolume_mc` chunk.
_MC_ELEMENTS = 1 << 22


def hypervolume_mc(points, ref, n_samples: int, seed: int) -> float:
    """Monte-Carlo hypervolume estimate, the oracle for the exact routine.

    Samples uniformly inside the bounding box [ref, componentwise max of the
    set] and scales the dominated fraction by the box volume. Unbiased, and
    deterministic for a fixed seed.

    Args:
        points: (n, m) array-like of reward vectors.
        ref: length-m reference point.
        n_samples: number of uniform samples; must be positive.
        seed: RNG seed.

    Raises:
        ValueError: if n_samples is not positive, or on dimension mismatch.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    r = np.asarray(ref, dtype=float).ravel()
    if pts.ndim != 2 or pts.shape[1] != len(r):
        raise ValueError(f"points of shape {pts.shape} against a reference of length {len(r)}")
    extent = np.maximum(pts.max(axis=0), r) - r
    box_volume = float(np.prod(extent))
    if box_volume == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    # The generator draws doubles in sequence, so the chunking, which bounds
    # the (chunk, n, m) comparison temporary, does not change the samples.
    max_chunk = max(1, _MC_ELEMENTS // pts.size)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        chunk = min(remaining, max_chunk)
        q = r + rng.random((chunk, len(r))) * extent
        dominated = (q[:, None, :] <= pts[None, :, :]).all(axis=2).any(axis=1)
        hits += int(dominated.sum())
        remaining -= chunk
    return box_volume * hits / n_samples


def simplex_grid_norm_sq(gram, resolution: float = 1e-3) -> float:
    """min λᵀ gram λ over the simplex grid of step `resolution`, for m in {2, 3}."""
    m = gram.shape[0]
    t = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    if m == 2:
        lams = np.stack([1.0 - t, t], axis=1)
    elif m == 3:
        aa, bb = np.meshgrid(t, t, indexing="ij")
        mask = aa + bb <= 1.0 + 1e-12
        aa, bb = aa[mask], bb[mask]
        lams = np.stack([aa, bb, 1.0 - aa - bb], axis=1)
    else:
        raise ValueError(f"the grid covers m in {{2, 3}}, got {m}")
    values = np.einsum("ki,ij,kj->k", lams, gram, lams)
    return float(values.min())


def oracle_unpack(cfg, flat):
    h, v, d = cfg.hidden_dim, cfg.vocab_size, cfg.input_dim
    i = 0
    w_in = np.array(flat[i : i + h * d]).reshape(h, d)
    i += h * d
    w_h = np.array(flat[i : i + h * h]).reshape(h, h)
    i += h * h
    b_h = np.array(flat[i : i + h])
    i += h
    w_out = np.array(flat[i : i + v * h]).reshape(v, h)
    i += v * h
    b_out = np.array(flat[i : i + v])
    return w_in, w_h, b_h, w_out, b_out


def oracle_logits(cfg, flat, context, tokens):
    """Per-position logit rows for one sample, built with explicit loops."""
    w_in, w_h, b_h, w_out, b_out = oracle_unpack(cfg, flat)
    rows = []
    for t in range(cfg.prompt_length):
        x = np.zeros(cfg.input_dim)
        x[: cfg.context_dim] = context
        x[cfg.context_dim + t] = 1.0
        if t > 0:
            x[cfg.context_dim + cfg.prompt_length + tokens[t - 1]] = 1.0
        h0 = np.tanh(w_in @ x)
        h1 = np.tanh(w_h @ h0 + b_h)
        rows.append(w_out @ h1 + b_out)
    return np.array(rows)


def oracle_soft_value(row, temperature):
    z = row / temperature
    zmax = z.max()
    return temperature * (math.log(np.exp(z - zmax).sum()) + zmax)


def oracle_targets(cfg, flat, context, tokens, rewards):
    """Targets at the base parameters, to be held fixed under perturbation."""
    out = []
    for sample_tokens, reward in zip(tokens, rewards):
        rows = oracle_logits(cfg, flat, context, sample_tokens)
        tgt = np.zeros(cfg.prompt_length)
        for t in range(cfg.prompt_length - 1):
            tgt[t] = oracle_soft_value(rows[t + 1], cfg.temperature)
        tgt[-1] = cfg.reward_scale * reward
        out.append(tgt)
    return out


def oracle_loss_fixed_targets(cfg, flat, context, tokens, targets):
    total = 0.0
    count = 0
    for sample_tokens, tgt in zip(tokens, targets):
        rows = oracle_logits(cfg, flat, context, sample_tokens)
        for t in range(cfg.prompt_length):
            total += 0.5 * (rows[t][sample_tokens[t]] - tgt[t]) ** 2
            count += 1
    return total / count
