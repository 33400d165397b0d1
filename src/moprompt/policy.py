"""A small differentiable policy over fixed-length discrete token sequences.

The policy scores tokens position by position with a two-layer tanh MLP on
top of a fixed per-input context embedding: the input at position t is the
concatenation of the context vector, a one-hot position indicator, and the
one-hot of the previously chosen token (zeros at t = 0). Sampling draws
tokens autoregressively from softmax(logits / temperature), deciding
position t of all k prompts with row t of a (T, k) array of uniforms that
the caller draws, such as one step's slice of a block of steps.

For one context the input is fixed by (t, previous token), so the policy
is evaluated once per (parameters, context), as a PolicyTable over every
such input. Sampling compares the uniforms with every row's cumulative
probabilities at once and follows each prompt's chain from position 0 by
T - 1 integer gathers: the comparisons of row lookups, made in one. The losses
gather the sampled rows' activations and soft values from the same table:
a step's k prompts are one (k, T) token array plus that table from
sampling to loss, with no second forward pass.

Training minimizes the on-policy soft-Q loss: each chosen token's logit is
regressed onto a stop-gradient target, which is the soft state value
V = temperature * logsumexp(logits / temperature) of the next position at
interior steps and the (scaled) terminal reward at the last step. Gradients
are computed analytically by backpropagation and validated against finite
differences in the test suite. The m per-objective gradients that MGDA
needs share the table and one backward pass over the stacked (m, k*T, V)
logit gradients.

Cost model: the table evaluates T*V rows and holds T*V**2 logits, where
evaluating only the sampled positions, once to sample and once for the
loss, takes 2*k*T rows of V logits. At k = 8, T = 5 and h = 32 (timeit,
best of 7, 2-vCPU VM) sampling plus the soft-Q loss took 165-218 us
against the per-sample passes' 285-294 us at V = 8, about the same at
V = 32 (277-336 against 316-354 us), and 2.2 to 2.7 times as long at
V = 48 and V = 64: the table stops paying between V = 32 and V = 48.
builtin_env defaults to V = 8, and no profile, benchmark workload or test
uses more.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .envs import check_finite_reals, is_integer

__all__ = [
    "PolicyConfig",
    "PolicyParams",
    "PolicyTable",
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
            value = getattr(self, name)
            if not is_integer(value) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        check_finite_reals(ValueError, temperature=self.temperature, reward_scale=self.reward_scale)
        if self.temperature <= 0.0 or self.reward_scale <= 0.0:
            raise ValueError("temperature and reward_scale must be positive")

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
    b0, b1 = h * d, h * d + h * h
    b2, b3 = b1 + h, b1 + h + v * h
    w_in = flat[:b0].reshape(h, d)
    w_h = flat[b0:b1].reshape(h, h)
    b_h = flat[b1:b2]
    w_out = flat[b2:b3].reshape(v, h)
    b_out = flat[b3 : b3 + v]
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


@dataclass(frozen=True)
class PolicyTable:
    """The policy evaluated once on every input of one context.

    Row t * V + v is position t after token v. Position 0 has no previous
    token, so its V rows hold one input and row 0 is the one read. They
    are kept because a BLAS may pick its kernel by matrix size (OpenBLAS's
    small-matrix path): with T * V rows the table rounds its products as a
    per-sample batch of k * T rows does at k = V, which keeps training at
    k = V = 8 bit-identical to evaluating the sampled rows directly; the
    1 + (T - 1) * V distinct rows alone did not.

    Attributes:
        params: the parameters the table was evaluated with.
        inputs, h0, h1: per row, the input vector and both hidden layers.
        logits, log_p, cum: (T * V, V) logits, log-softmax of
            logits / temperature, and the cumulative probabilities that
            sampling compares its draws against.
        values: (T * V,) soft state values
            temperature * logsumexp(logits / temperature).
    """

    params: PolicyParams
    inputs: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    logits: np.ndarray
    log_p: np.ndarray
    cum: np.ndarray
    values: np.ndarray

    def rows(self, tokens: np.ndarray) -> np.ndarray:
        """The (k, T) row ids of the inputs a (k, T) token batch was drawn from."""
        v = self.params.cfg.vocab_size
        ids = np.zeros(tokens.shape, dtype=np.int64)
        ids[:, 1:] = tokens[:, :-1] + v * np.arange(1, tokens.shape[1])
        return ids


def _build_table(params: PolicyParams, context: np.ndarray) -> PolicyTable:
    """One batched forward pass over the context's T * V inputs."""
    cfg = params.cfg
    c, t_len, v = cfg.context_dim, cfg.prompt_length, cfg.vocab_size
    r = np.arange(t_len * v)
    x = np.zeros((t_len * v, cfg.input_dim))
    x[:, :c] = context
    x[r, c + r // v] = 1.0
    x[r[v:], c + t_len + r[v:] % v] = 1.0
    w_in, w_h, b_h, w_out, b_out = _views(cfg, params.flat)
    h0 = np.tanh(x @ w_in.T)
    h1 = np.tanh(h0 @ w_h.T + b_h)
    logits = h1 @ w_out.T + b_out
    z = logits / cfg.temperature
    z_max = z.max(axis=1, keepdims=True)
    z = z - z_max
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_p = z - lse
    values = cfg.temperature * (lse + z_max)[:, 0]
    return PolicyTable(params, x, h0, h1, logits, log_p, np.exp(log_p).cumsum(axis=1), values)


def _check_context(cfg: PolicyConfig, context) -> np.ndarray:
    ctx = np.asarray(context, dtype=float).ravel()
    if ctx.shape[0] != cfg.context_dim:
        raise ValueError(f"context has dimension {ctx.shape[0]}, expected {cfg.context_dim}")
    return ctx


def sample_prompts(params: PolicyParams, context, uniforms):
    """Draw k prompts autoregressively for one context, token t of every
    prompt decided by row t of the (T, k) uniforms.

    Returns:
        (tokens, table): the (k, T) int64 token ids and the context's
        PolicyTable, which the losses train from. Token t of prompt j was
        drawn from row table.rows(tokens)[j, t], with that row's logits
        and log_p.

    Raises:
        ValueError: if the context dimension is wrong or uniforms is not
            a (T, k) array with k >= 1.
    """
    cfg = params.cfg
    ctx = _check_context(cfg, context)
    uniforms = np.asarray(uniforms)
    if uniforms.ndim != 2 or uniforms.shape[0] != cfg.prompt_length or uniforms.shape[1] == 0:
        raise ValueError(f"uniforms must be ({cfg.prompt_length}, k >= 1), got {uniforms.shape}")
    k = uniforms.shape[1]
    table = _build_table(params, ctx)
    v = cfg.vocab_size
    # nxt[t, p, j]: token t of prompt j if token t - 1 was p.
    nxt = np.minimum((uniforms[:, None, :, None] >= table.cum.reshape(-1, v, 1, v)).sum(axis=3), v - 1)
    tokens = np.empty((k, cfg.prompt_length), dtype=np.int64)
    tokens[:, 0] = nxt[0, 0]
    for t in range(1, cfg.prompt_length):
        tokens[:, t] = nxt[t, tokens[:, t - 1], np.arange(k)]
    return tokens, table


def _check_tokens(cfg: PolicyConfig, tokens, n_rewards: int) -> np.ndarray:
    """Validate a (k, T) token batch against its rewards."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] == 0 or tokens.shape[1] != cfg.prompt_length:
        raise ValueError(f"expected (k >= 1, {cfg.prompt_length}) tokens, got shape {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if n_rewards != tokens.shape[0]:
        raise ValueError("one reward per sample is required")
    return tokens


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


def sql_loss_and_grad(table: PolicyTable, tokens, rewards):
    """On-policy soft-Q loss and its analytic parameter gradient.

    Args:
        table: the PolicyTable sample_prompts returned with the tokens.
        tokens: (k, T) token ids, as returned by sample_prompts.
        rewards: (k,) terminal reward per prompt.

    Returns:
        (loss, grad) with grad flat in the parameter layout.

    Raises:
        ValueError: if rewards are misaligned with samples or non-finite.
    """
    rewards = np.asarray(rewards, dtype=float).ravel()
    losses, grads = per_objective_loss_grads(table, tokens, rewards[:, None])
    return float(losses[0]), grads[0]


def per_objective_loss_grads(table: PolicyTable, tokens, reward_vectors):
    """One soft-Q loss gradient per objective, from the sampled rows of the
    table: the m logit gradients are backpropagated as one stack.

    Each position regresses its chosen logit onto a constant target: the
    next position's soft value at interior positions, shared by all m
    columns, and the scaled terminal reward at the last.

    Args:
        table, tokens: as for sql_loss_and_grad.
        reward_vectors: (k, m) array-like, one reward vector per sample.

    Returns:
        (losses, grads): arrays of shape (m,) and (m, n_params). Row i is
        the soft-Q loss and gradient for the i-th reward column alone.

    Raises:
        ValueError: if rewards are misaligned with samples or non-finite.
    """
    cfg = table.params.cfg
    rv = np.asarray(reward_vectors, dtype=float)
    if rv.ndim != 2 or rv.shape[1] == 0:
        raise ValueError("reward_vectors must be (n_samples, m) with m >= 1")
    tokens = _check_tokens(cfg, tokens, rv.shape[0])
    if not np.isfinite(rv).all():
        raise ValueError("rewards must be finite")
    n, t_len = tokens.shape
    m, nt = rv.shape[1], n * t_len
    ids = table.rows(tokens)
    flat_ids = ids.reshape(nt)
    flat_tokens = tokens.reshape(nt)
    chosen_q = table.logits[flat_ids, flat_tokens]

    targets = np.empty((m, n, t_len))
    targets[:, :, :-1] = table.values[ids[:, 1:]]
    targets[:, :, -1] = cfg.reward_scale * rv.T
    residual = chosen_q - targets.reshape(m, nt)
    losses = np.array([0.5 * float(r @ r) / nt for r in residual])
    d_logits = np.zeros((m, nt, cfg.vocab_size))
    d_logits[:, np.arange(nt), flat_tokens] = residual / nt
    gathered = (table.inputs[flat_ids], table.h0[flat_ids], table.h1[flat_ids])
    return losses, _backward(cfg, table.params.flat, *gathered, d_logits)


def save_checkpoint(path, params: PolicyParams) -> None:
    """Write a self-describing text checkpoint (config plus flat weights).

    The bytes are those of json.dump(payload, fh, indent=1) plus a newline,
    written in one pass: json's indented encoder is pure Python, while a
    finite float's repr is exactly the token json writes for it. A config
    field given as a numpy integer is written as a plain int.
    """
    head = json.dumps({"config": asdict(params.cfg)}, indent=1, default=int)[: -len("\n}")]
    flat = repr(params.flat.tolist())[1:-1].replace(", ", ",\n  ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n "flat": [\n  {flat}\n ]\n}}\n')


def load_checkpoint(path) -> PolicyParams:
    """Inverse of save_checkpoint; float round-trip is exact."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    cfg = PolicyConfig(**payload["config"])
    return PolicyParams(cfg=cfg, flat=np.asarray(payload["flat"], dtype=float))
