"""End-to-end training orchestration for the four compared update rules.

One training step mirrors the batched rollout structure of the volume-based
and MGDA-based loops: pick the next environment input round-robin, sample k
prompts from the policy, roll out k_hat outputs per prompt, score them, and
take one Adam step. The step's k prompts travel as arrays: one (k, T) token
array and the context's policy table from `sample_prompts`, one
(k, k_hat, m) reward array from `rollout`. The policy is evaluated once
per step, into that table; the loss trains from its rows. The methods
differ only in how the reward array becomes a training signal:

* average / product / hvi: one aggregator call collapses each prompt's
  batch to one scalar (mean of means, expected product, or hypervolume),
  that prompt's terminal reward in the soft-Q loss.
* mgda: each objective keeps its own per-prompt mean reward and its own
  loss gradient; the update direction is the negated min-norm point of
  those gradients.

Evaluation runs on a dedicated RNG stream with no step component, so two
evaluations of identical parameters see identical held-out batches. All
randomness derives from (seed, step, role) keys; nothing reads global RNG
state. No draw depends on tokens or parameters, so the step loop draws
each eval interval's sampling uniforms, noise and outlier decisions as one
block before the interval's steps run, and hands each step its slice:
`sample_prompts` takes its uniforms and `rollout` its draws. A block's
seeds are derived as uint64 arrays and its streams built by
`draw_streams`, bit-identical to drawing step by step.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np
from numpy.random import Generator

from .envs import EnvSpec, builtin_env, check_finite_reals, is_integer, rollout, rollout_draws
from .mgda import min_norm_point
from .policy import (
    PolicyConfig,
    PolicyParams,
    init_policy,
    per_objective_loss_grads,
    sample_prompts,
    save_checkpoint,
    sql_loss_and_grad,
)
from .rewards import (
    aggregate_average,
    aggregate_hvi,
    aggregate_product,
    evaluation_metrics,
)
from .seeding import (
    ROLE_EVAL,
    ROLE_INIT,
    ROLE_PROMPTS,
    ROLE_ROLLOUT,
    derive_seed,
    derive_seeds,
    draw_streams,
)

__all__ = [
    "ConfigError",
    "TrainConfig",
    "MetricsRecord",
    "TrainResult",
    "METHODS",
    "PROFILES",
    "config_from_dict",
    "train",
    "compare_methods",
    "emit_scatter",
    "write_metrics_csv",
    "read_metrics_csv",
]

METHODS = ("average", "product", "hvi", "mgda")

# Read-only, so that no caller can change the defaults of every later config.
PROFILES = MappingProxyType(
    {
        "desk": MappingProxyType(
            {"steps": 2000, "k_hat": 32, "eval_every": 100, "learning_rate": 0.01, "temperature": 0.25}
        ),
        "paper": MappingProxyType({"steps": 12000, "k_hat": 128, "eval_every": 200, "learning_rate": 1e-4}),
    }
)


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or missing section."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, environment included."""

    method: str
    env: EnvSpec
    # The run scale has no defaults here; `config_from_dict` takes it from a profile.
    k_hat: int
    steps: int
    learning_rate: float
    eval_every: int
    seeds: tuple = (0, 1, 2)
    k: int = 8
    eval_total_samples: int = 128
    hidden_dim: int = PolicyConfig.hidden_dim
    temperature: float = PolicyConfig.temperature
    reward_scale: float = PolicyConfig.reward_scale
    out_dir: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not all(map(is_integer, self.seeds)):
            raise ConfigError(f"seeds must be integers, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            # A repeated seed would train twice, duplicate its metrics rows
            # and overwrite its own checkpoint.
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        for name in ("k", "k_hat", "steps", "eval_every", "eval_total_samples"):
            value = getattr(self, name)
            if not is_integer(value) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        n_inputs = len(self.env.inputs)
        if self.eval_total_samples % n_inputs:
            # Every input is evaluated on the same number of samples.
            raise ConfigError(f"eval_total_samples must be a multiple of env.n_inputs = {n_inputs}")
        check_finite_reals(ConfigError, learning_rate=self.learning_rate)
        # learning_rate 0 is allowed: it turns training into a no-op probe.
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be nonnegative")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path, got {self.out_dir!r}")
        try:
            self.policy  # PolicyConfig checks hidden_dim, temperature and reward_scale.
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def policy(self) -> PolicyConfig:
        """The policy's architecture and loss constants, sized by the env."""
        return PolicyConfig(
            vocab_size=self.env.vocab_size,
            prompt_length=self.env.prompt_length,
            hidden_dim=self.hidden_dim,
            context_dim=self.env.context_dim,
            temperature=self.temperature,
            reward_scale=self.reward_scale,
        )


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation snapshot; it carries no timing, so identical runs
    serialize byte-identically."""

    step: int
    seed: int
    method: str
    per_objective_means: tuple
    mean_of_means: float
    expected_product: float
    hvi: float
    mgda_norm_sq: float | None = None


@dataclass
class TrainResult:
    records: list = field(default_factory=list)
    aborts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# configuration parsing


# Each section's keys; the root of the nested config format holds the sections and "method".
_SECTIONS = MappingProxyType(
    {
        "env": frozenset(
            {"name", "m", "seed", "noise_scale", "outlier_prob"}
            | {"vocab_size", "prompt_length", "n_inputs", "context_dim"}
        ),
        "run": frozenset({"k", "k_hat", "steps", "eval_every", "eval_total_samples", "seeds", "out_dir"}),
        "optimizer": frozenset({"learning_rate"}),
        "policy": frozenset({"hidden_dim", "temperature", "reward_scale"}),
    }
)


def _mapping(name: str, value, keys) -> dict:
    """A root or section of the nested config format, None read as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    unknown = value.keys() - keys
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    return value


def config_from_dict(data: dict | None, profile: str = "desk", overrides: dict | None = None) -> TrainConfig:
    """Build a TrainConfig from the nested config format, failing closed.

    `data` (a config file) and `overrides` (the command-line flags) are
    each a mapping of an optional "method" and the sections of
    `_SECTIONS`; None stands for an empty root or section. Each value
    resolves to its last setting among the defaults of `TrainConfig` and
    `builtin_env`, the profile, `data` and `overrides`.

    Raises:
        ConfigError: on an unknown profile, section or key, a root or
            section that is not a mapping, or an invalid value, the
            environment's and the policy's included.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    fields = {"method": "average", **PROFILES[profile]}
    env_args = {"name": "tug-of-war", "m": 2, "seed": 0}
    for layer in (data, overrides):
        for section, values in _mapping("config", layer, {"method", *_SECTIONS}).items():
            if section == "method":
                fields["method"] = values
            else:
                # The run, optimizer and policy keys are TrainConfig fields.
                values = _mapping(section, values, _SECTIONS[section])
                (env_args if section == "env" else fields).update(values)
    try:
        fields["env"] = builtin_env(**env_args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if "seeds" in fields:
        try:
            fields["seeds"] = tuple(fields["seeds"])
        except TypeError as exc:
            raise ConfigError(f"seeds must be a list of integers: {exc}") from exc
    return TrainConfig(**fields)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected Adam at the defaults of Kingma & Ba (ICLR 2015), which
    no run changes; epsilon sits outside the square root."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, dim: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# training


def _prompt_scalars(method: str, batch: np.ndarray) -> np.ndarray:
    """The (k,) terminal rewards of a (k, k_hat, m) step batch."""
    if method == "hvi":
        return aggregate_hvi(batch)
    return aggregate_average(batch) if method == "average" else aggregate_product(batch)


def _draw(env: EnvSpec, prompt_seeds, rollout_seeds, k: int, k_hat: int):
    """The (uniforms, noise, outliers) draws of B policy calls: for each of
    the (B,) prompt_seeds s, default_rng(s).random((T, k)), and the
    `rollout_draws` of rollout_seeds."""
    uniforms = draw_streams(prompt_seeds, Generator.random, (env.prompt_length, k))
    return (uniforms, *rollout_draws(env, rollout_seeds, k_hat))


def _block_draws(cfg: TrainConfig, seed: int, steps: np.ndarray):
    """The draws of a block of training steps, one leading entry per step.

    Randomness is keyed by (seed, step, role), never by tokens or
    parameters, so a block is drawn before its steps run, each step's
    slice bit-identical to the draws of that step alone.
    """
    grid = np.stack(np.meshgrid(steps, np.arange(cfg.k), indexing="ij"), axis=-1)
    prompt_seeds = derive_seeds((seed, ROLE_PROMPTS), steps[:, None])
    return _draw(cfg.env, prompt_seeds, derive_seeds((seed, ROLE_ROLLOUT), grid), cfg.k, cfg.k_hat)


def _eval_draws(cfg: TrainConfig, seed: int):
    """The draws of a seed's evaluations: one prompt per input.

    The eval streams have no step component, so they are drawn once and
    every evaluation of the seed sees the same held-out draws.
    """
    n_inputs = len(cfg.env.inputs)
    grid = np.stack(np.meshgrid(np.arange(n_inputs), np.arange(2), indexing="ij"), axis=-1)
    prompt_seeds, rollout_seeds = derive_seeds((seed, ROLE_EVAL), grid).T
    return _draw(cfg.env, prompt_seeds, rollout_seeds, 1, cfg.eval_total_samples // n_inputs)


def _record(cfg, step, seed, params, norm_sq, eval_draws) -> MetricsRecord:
    """Held-out metrics: one fresh prompt per input, on a seed's `_eval_draws`."""
    env = cfg.env
    uniforms, noise, outliers = eval_draws
    # Each input has its own context and so its own policy table.
    rows = [sample_prompts(params, context, u)[0] for context, u in zip(env.inputs, uniforms)]
    batch = rollout(env, np.vstack(rows), (noise, outliers), noise.shape[1])
    metrics = evaluation_metrics(batch.reshape(-1, env.m))
    return MetricsRecord(step, seed, cfg.method, **metrics, mgda_norm_sq=norm_sq)


def _train_one_seed(cfg: TrainConfig, seed: int, result: TrainResult) -> PolicyParams:
    env = cfg.env
    params = init_policy(cfg.policy, derive_seed(seed, ROLE_INIT))
    adam = Adam(params.flat.shape[0], cfg.learning_rate)
    norm_sq: float | None = None

    eval_draws = _eval_draws(cfg, seed)
    result.records.append(_record(cfg, 0, seed, params, norm_sq, eval_draws))
    for step in range(1, cfg.steps + 1):
        b = (step - 1) % cfg.eval_every
        if b == 0:
            # One block of draws per eval interval: its steps up to the next
            # evaluation or the end of the run.
            block = np.arange(step, min(step + cfg.eval_every, cfg.steps + 1))
            uniforms, noise, outliers = _block_draws(cfg, seed, block)
        context = env.inputs[(step - 1) % len(env.inputs)]
        tokens, table = sample_prompts(params, context, uniforms[b])
        batch = rollout(env, tokens, (noise[b], None if outliers is None else outliers[b]), cfg.k_hat)

        if cfg.method == "mgda":
            losses, grads = per_objective_loss_grads(table, tokens, batch.mean(axis=1))
            healthy = bool(np.isfinite(losses).all())
            if healthy:
                try:
                    solution = min_norm_point(grads)
                except ValueError:
                    # Non-finite gradients, or finite ones whose Gram matrix overflows.
                    healthy = False
                else:
                    norm_sq = solution.combined_norm_sq
                    grad = -solution.direction
                    healthy = bool(np.isfinite(grad).all())
        else:
            scalars = _prompt_scalars(cfg.method, batch)
            loss, grad = sql_loss_and_grad(table, tokens, scalars)
            healthy = bool(np.isfinite(loss) and np.isfinite(grad).all())

        if not healthy:
            result.aborts.append(
                {"seed": seed, "step": step, "method": cfg.method, "reason": "non-finite loss or gradient"}
            )
            return params
        params = PolicyParams(params.cfg, adam.update(params.flat, grad))
        if step % cfg.eval_every == 0:
            result.records.append(_record(cfg, step, seed, params, norm_sq, eval_draws))
    return params


def train(cfg: TrainConfig) -> TrainResult:
    """Run every seed; write metrics.csv and final checkpoints if out_dir set.

    A non-finite loss or gradient aborts that seed with a diagnostic entry
    in `aborts` and leaves the other seeds untouched.
    """
    if cfg.out_dir is not None:
        # An unusable directory fails before the first step, not after the last.
        os.makedirs(cfg.out_dir, exist_ok=True)
    result = TrainResult()
    finals = {}
    for seed in cfg.seeds:
        finals[seed] = _train_one_seed(cfg, seed, result)
    if cfg.out_dir is not None:
        write_metrics_csv(result.records, os.path.join(cfg.out_dir, "metrics.csv"))
        for seed, params in finals.items():
            save_checkpoint(os.path.join(cfg.out_dir, f"checkpoint_{seed}.txt"), params)
    return result


# ---------------------------------------------------------------------------
# comparison table


def compare_methods(cfg_base: TrainConfig) -> TrainResult:
    """Train all four methods on identical seeds and environment.

    Writes metrics.csv and table1_analog.csv (see `comparison_table`) when
    out_dir is set.
    """
    if cfg_base.out_dir is not None:
        os.makedirs(cfg_base.out_dir, exist_ok=True)
    combined = TrainResult()
    for method in METHODS:
        cfg = replace(cfg_base, method=method, out_dir=None)
        part = train(cfg)
        combined.records.extend(part.records)
        combined.aborts.extend(part.aborts)
    if cfg_base.out_dir is not None:
        write_metrics_csv(combined.records, os.path.join(cfg_base.out_dir, "metrics.csv"))
        rows = comparison_table(combined.records)
        _write_rows(rows, os.path.join(cfg_base.out_dir, "table1_analog.csv"))
    return combined


def runs(records: list) -> dict:
    """The records grouped by (method, seed), in that order, each run in step order."""
    grouped: dict = {}
    for r in sorted(records, key=lambda r: (r.method, r.seed, r.step)):
        grouped.setdefault((r.method, r.seed), []).append(r)
    return grouped


def select_best_records(records: list, method: str) -> list:
    """Per seed, the record with the highest expected product (first on tie)."""
    by_run = runs(records).items()
    return [max(run, key=lambda r: r.expected_product) for (name, _), run in by_run if name == method]


def comparison_table(records: list) -> list:
    """The comparison table as rows of strings: a header, then one row per
    method that has records; m is read from the first record.

    For each method and seed, the evaluation checkpoint with the highest
    expected product is selected; a row averages those checkpoints across
    seeds and reports values scaled by 100, shortest round-trip formatted.
    """
    m = len(records[0].per_objective_means)
    rows = [["method"] + [f"objective_{i}" for i in range(m)] + ["product", "average"]]
    for method in METHODS:
        best = select_best_records(records, method)
        if not best:
            continue
        means = np.mean([r.per_objective_means for r in best], axis=0)
        product = float(np.mean([r.expected_product for r in best]))
        average = float(np.mean([r.mean_of_means for r in best]))
        cells = [method]
        cells += [repr(float(x) * 100.0) for x in means]
        cells += [repr(product * 100.0), repr(average * 100.0)]
        rows.append(cells)
    return rows


# ---------------------------------------------------------------------------
# artifacts


def _metrics_header(m: int) -> list:
    """The metrics.csv columns of a run with m objectives."""
    means = [f"mean_{i}" for i in range(m)]
    return ["step", "seed", "method", *means, "mean_of_means", "expected_product", "hvi", "mgda_norm_sq"]


def write_metrics_csv(records: list, path) -> None:
    """Fixed column order, shortest-round-trip float formatting."""
    if not records:
        raise ValueError("no records to write")
    rows = [_metrics_header(len(records[0].per_objective_means))]
    for r in records:
        row = [str(r.step), str(r.seed), r.method]
        row += [repr(float(x)) for x in r.per_objective_means]
        row += [repr(float(r.mean_of_means)), repr(float(r.expected_product)), repr(float(r.hvi))]
        row.append("" if r.mgda_norm_sq is None else repr(float(r.mgda_norm_sq)))
        rows.append(row)
    _write_rows(rows, path)


def _write_rows(rows: list, path) -> None:
    """One comma-separated line per row of strings; no cell holds a comma,
    a quote or a newline, so none is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(",".join(row) + "\n" for row in rows))


def read_metrics_csv(path) -> list:
    """Inverse of write_metrics_csv, for the scatter and inspect subcommands.

    Raises:
        ValueError: if the header is not write_metrics_csv's for any m >= 1,
            or a row does not have one cell per column.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    m = len(header) - len(_metrics_header(0))
    if m < 1 or header != _metrics_header(m):
        raise ValueError(f"{path} does not start with a metrics.csv header")
    records = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path} line {line}: {len(row)} cells, expected {len(header)}")
        step, seed, method, *means, mean_of_means, product, hvi, norm_sq = row
        values = (float(mean_of_means), float(product), float(hvi), float(norm_sq) if norm_sq else None)
        records.append(MetricsRecord(int(step), int(seed), method, tuple(map(float, means)), *values))
    return records


def emit_scatter(records: list, out_dir) -> list:
    """One JSONL per objective pair: a (mean_i, mean_j) point per eval batch.

    Returns the written paths.

    Raises:
        ValueError: if records is empty.
    """
    if not records:
        raise ValueError("no evaluation records to scatter")
    m = len(records[0].per_objective_means)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(m):
        for j in range(i + 1, m):
            path = os.path.join(out_dir, f"scatter_{i}_{j}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for r in records:
                    point = {
                        "method": r.method,
                        "seed": r.seed,
                        "step": r.step,
                        "x": r.per_objective_means[i],
                        "y": r.per_objective_means[j],
                    }
                    fh.write(json.dumps(point) + "\n")
            paths.append(path)
    return paths
