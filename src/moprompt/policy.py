"""A small differentiable policy over fixed-length discrete token sequences.

The policy scores tokens position by position with a two-layer tanh MLP on
top of a fixed per-input context embedding: the input at position t is the
concatenation of the context vector, a one-hot position indicator, and the
one-hot of the previously chosen token (zeros at t = 0). Sampling draws
tokens autoregressively from softmax(logits / temperature). A step's k
prompts for one input are one (k, T) token array from sampling to loss;
the losses take that array and the one context vector it was drawn for.

Training minimizes the on-policy soft-Q loss: each chosen token's logit is
regressed onto a stop-gradient target, which is the soft state value
V = temperature * logsumexp(logits / temperature) of the next position at
interior steps and the (scaled) terminal reward at the last step. Gradients
are computed analytically by backpropagation and validated against finite
differences in the test suite. The m per-objective gradients that MGDA
needs share one forward pass and one backward pass over the stacked
(m, k*T, V) logit gradients.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "PolicyConfig",
    "PolicyParams",
    "init_policy",
    "sample_prompts",
    "sql_loss_and_grad",
    "per_objective_loss_grads",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture and loss constants for the token policy.

    Attributes:
        vocab_size: number of distinct tokens.
        prompt_length: tokens sampled per prompt.
        hidden_dim: width of both hidden layers.
        context_dim: dimension of the per-input context embedding.
        temperature: soft-value temperature; also used when sampling.
        reward_scale: terminal rewards are multiplied by this inside the
            loss so targets are commensurate with logit magnitudes.
    """

    vocab_size: int
    prompt_length: int = 5
    hidden_dim: int = 32
    context_dim: int = 8
    temperature: float = 1.0
    reward_scale: float = 10.0

    def __post_init__(self):
        for name in ("vocab_size", "prompt_length", "hidden_dim", "context_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.reward_scale <= 0.0:
            raise ValueError("reward_scale must be positive")

    @property
    def input_dim(self) -> int:
        return self.context_dim + self.prompt_length + self.vocab_size


@dataclass(frozen=True)
class PolicyParams:
    """Flat parameter vector with a fixed layout determined by the config.

    Layout order: input projection, hidden matrix, hidden bias, output
    head, output bias.
    """

    cfg: PolicyConfig
    flat: np.ndarray

    def __post_init__(self):
        expected = param_count(self.cfg)
        if self.flat.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got shape {self.flat.shape}")
        if not np.isfinite(self.flat).all():
            raise ValueError("parameters must be finite")


def param_count(cfg: PolicyConfig) -> int:
    h, v = cfg.hidden_dim, cfg.vocab_size
    return h * cfg.input_dim + h * h + h + v * h + v


def _views(cfg: PolicyConfig, flat: np.ndarray):
    """Slice the flat vector into weight matrices without copying."""
    h, v, d = cfg.hidden_dim, cfg.vocab_size, cfg.input_dim
    bounds = np.cumsum([h * d, h * h, h, v * h, v])
    w_in = flat[: bounds[0]].reshape(h, d)
    w_h = flat[bounds[0] : bounds[1]].reshape(h, h)
    b_h = flat[bounds[1] : bounds[2]]
    w_out = flat[bounds[2] : bounds[3]].reshape(v, h)
    b_out = flat[bounds[3] : bounds[4]]
    return w_in, w_h, b_h, w_out, b_out


def init_policy(cfg: PolicyConfig, seed: int) -> PolicyParams:
    """Weights i.i.d. uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero."""
    rng = np.random.default_rng(seed)
    h, v, d = cfg.hidden_dim, cfg.vocab_size, cfg.input_dim
    parts = [
        rng.uniform(-1.0, 1.0, h * d) / np.sqrt(d),
        rng.uniform(-1.0, 1.0, h * h) / np.sqrt(h),
        np.zeros(h),
        rng.uniform(-1.0, 1.0, v * h) / np.sqrt(h),
        np.zeros(v),
    ]
    return PolicyParams(cfg=cfg, flat=np.concatenate(parts))


def _forward(cfg: PolicyConfig, flat: np.ndarray, context: np.ndarray, tokens: np.ndarray):
    """Shared forward pass over a batch of complete prompts for one input.

    Args:
        context: (context_dim,) context vector, shared by every sample.
        tokens: (n, T) integer token ids per sample.

    Returns:
        (inputs, h0, h1, logits), each with a leading (n, T) block flattened
        to rows, in token order within each sample.
    """
    w_in, w_h, b_h, w_out, b_out = _views(cfg, flat)
    n, t_len = tokens.shape
    x = np.zeros((n, t_len, cfg.input_dim))
    x[:, :, : cfg.context_dim] = context
    for t in range(t_len):
        x[:, t, cfg.context_dim + t] = 1.0
        if t > 0:
            x[np.arange(n), t, cfg.context_dim + cfg.prompt_length + tokens[:, t - 1]] = 1.0
    rows = x.reshape(n * t_len, cfg.input_dim)
    h0 = np.tanh(rows @ w_in.T)
    h1 = np.tanh(h0 @ w_h.T + b_h)
    logits = h1 @ w_out.T + b_out
    return rows, h0, h1, logits


def _log_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _check_context(cfg: PolicyConfig, context) -> np.ndarray:
    ctx = np.asarray(context, dtype=float).ravel()
    if ctx.shape[0] != cfg.context_dim:
        raise ValueError(f"context has dimension {ctx.shape[0]}, expected {cfg.context_dim}")
    return ctx


def sample_prompts(params: PolicyParams, context, k: int, seed: int):
    """Draw k prompts autoregressively for one context; deterministic per seed.

    Returns:
        (tokens, logits, log_probs): the (k, T) int64 token ids, the
        (k, T, V) logits each token was drawn from, and the (k,) log
        probability of each prompt under the sampling distribution.

    Raises:
        ValueError: if k is not positive or the context dimension is wrong.
    """
    cfg = params.cfg
    ctx = _check_context(cfg, context)
    if k <= 0:
        raise ValueError("k must be positive")
    w_in, w_h, b_h, w_out, b_out = _views(cfg, params.flat)
    # Row t is the stream a per-position rng.random(k) would draw.
    draws = np.random.default_rng(seed).random((cfg.prompt_length, k))
    rows = np.arange(k)

    tokens = np.zeros((k, cfg.prompt_length), dtype=np.int64)
    all_logits = np.zeros((k, cfg.prompt_length, cfg.vocab_size))
    log_probs = np.zeros(k)
    x = np.zeros((k, cfg.input_dim))
    x[:, : cfg.context_dim] = ctx
    for t in range(cfg.prompt_length):
        x[:, cfg.context_dim :] = 0.0
        x[:, cfg.context_dim + t] = 1.0
        if t > 0:
            x[rows, cfg.context_dim + cfg.prompt_length + tokens[:, t - 1]] = 1.0
        h1 = np.tanh(np.tanh(x @ w_in.T) @ w_h.T + b_h)
        logits = h1 @ w_out.T + b_out
        log_p = _log_softmax(logits, cfg.temperature)
        cum = np.exp(log_p).cumsum(axis=1)
        chosen = np.minimum((draws[t][:, None] >= cum).sum(axis=1), cfg.vocab_size - 1)
        tokens[:, t] = chosen
        all_logits[:, t, :] = logits
        log_probs += log_p[rows, chosen]
    return tokens, all_logits, log_probs


def _check_batch(cfg: PolicyConfig, tokens, context, n_rewards: int):
    """Validate a (k, T) token batch for one context against its rewards."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] == 0 or tokens.shape[1] != cfg.prompt_length:
        raise ValueError(f"expected (k >= 1, {cfg.prompt_length}) tokens, got shape {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if n_rewards != tokens.shape[0]:
        raise ValueError("one reward per sample is required")
    return tokens, _check_context(cfg, context)


def _loss_targets(cfg: PolicyConfig, logits: np.ndarray, rewards: np.ndarray, n: int):
    """Per-position regression targets, treated as constants: (m, n, T), one
    (n, T) block per column of the (n, m) rewards.

    Interior positions target the next position's soft value, shared by all
    m columns; the final position targets the scaled terminal reward.
    """
    t_len = cfg.prompt_length
    z = logits / cfg.temperature
    z_max = z.max(axis=1)
    values = cfg.temperature * (np.log(np.exp(z - z_max[:, None]).sum(axis=1)) + z_max)
    values = values.reshape(n, t_len)
    targets = np.empty((rewards.shape[1], n, t_len))
    targets[:, :, :-1] = values[:, 1:]
    targets[:, :, -1] = cfg.reward_scale * rewards.T
    return targets


def _backward(cfg: PolicyConfig, flat: np.ndarray, rows, h0, h1, d_logits) -> np.ndarray:
    """Backpropagate an (m, n, V) stack of logit gradients to (m, n_params).

    Each stacked matmul runs the same 2-D product per slice, so row i is
    bit-identical to backpropagating d_logits[i] alone.
    """
    w_in, w_h, _, w_out, _ = _views(cfg, flat)
    d_w_out = d_logits.transpose(0, 2, 1) @ h1
    d_b_out = d_logits.sum(axis=1)
    d_h1 = (d_logits @ w_out) * (1.0 - h1 * h1)
    d_w_h = d_h1.transpose(0, 2, 1) @ h0
    d_b_h = d_h1.sum(axis=1)
    d_h0 = (d_h1 @ w_h) * (1.0 - h0 * h0)
    d_w_in = d_h0.transpose(0, 2, 1) @ rows
    m = d_logits.shape[0]
    return np.concatenate(
        [g.reshape(m, -1) for g in (d_w_in, d_w_h, d_b_h, d_w_out, d_b_out)], axis=1
    )


def sql_loss_and_grad(params: PolicyParams, tokens, context, rewards):
    """On-policy soft-Q loss and its analytic parameter gradient.

    Args:
        tokens: (k, T) token ids, as returned by sample_prompts.
        context: the one context vector all k prompts were drawn for.
        rewards: (k,) terminal reward per prompt.

    Returns:
        (loss, grad) with grad flat in the parameter layout.

    Raises:
        ValueError: if rewards are misaligned with samples or non-finite.
    """
    rewards = np.asarray(rewards, dtype=float).ravel()
    losses, grads = per_objective_loss_grads(params, tokens, context, rewards[:, None])
    return float(losses[0]), grads[0]


def per_objective_loss_grads(params: PolicyParams, tokens, context, reward_vectors):
    """One soft-Q loss gradient per objective, sharing one forward and one
    backward pass: the soft values are computed once and the m logit
    gradients are backpropagated as one stack.

    Args:
        tokens, context: as for sql_loss_and_grad.
        reward_vectors: (k, m) array-like, one reward vector per sample.

    Returns:
        (losses, grads): arrays of shape (m,) and (m, n_params). Row i is
        the soft-Q loss and gradient for the i-th reward column alone.

    Raises:
        ValueError: if rewards are misaligned with samples or non-finite.
    """
    cfg = params.cfg
    rv = np.asarray(reward_vectors, dtype=float)
    if rv.ndim != 2 or rv.shape[1] == 0:
        raise ValueError("reward_vectors must be (n_samples, m) with m >= 1")
    tokens, ctx = _check_batch(cfg, tokens, context, rv.shape[0])
    if not np.isfinite(rv).all():
        raise ValueError("rewards must be finite")
    n, t_len = tokens.shape
    m, nt = rv.shape[1], n * t_len
    rows, h0, h1, logits = _forward(cfg, params.flat, ctx, tokens)
    flat_tokens = tokens.reshape(nt)
    chosen_q = logits[np.arange(nt), flat_tokens]

    residual = chosen_q - _loss_targets(cfg, logits, rv, n).reshape(m, nt)
    losses = np.array([0.5 * float(r @ r) / nt for r in residual])
    d_logits = np.zeros((m, nt, cfg.vocab_size))
    d_logits[:, np.arange(nt), flat_tokens] = residual / nt
    return losses, _backward(cfg, params.flat, rows, h0, h1, d_logits)


def save_checkpoint(path, params: PolicyParams) -> None:
    """Write a self-describing text checkpoint (config plus flat weights).

    The bytes are those of json.dump(payload, fh, indent=1) plus a newline,
    written in one pass: json's indented encoder is pure Python, while a
    finite float's repr is exactly the token json writes for it.
    """
    head = json.dumps({"config": asdict(params.cfg)}, indent=1)[: -len("\n}")]
    flat = repr(params.flat.tolist())[1:-1].replace(", ", ",\n  ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n "flat": [\n  {flat}\n ]\n}}\n')


def load_checkpoint(path) -> PolicyParams:
    """Inverse of save_checkpoint; float round-trip is exact."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    cfg = PolicyConfig(**payload["config"])
    return PolicyParams(cfg=cfg, flat=np.asarray(payload["flat"], dtype=float))
