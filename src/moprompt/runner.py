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
import io
import json
import os
from dataclasses import dataclass, field, replace

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

PROFILES = {
    "desk": {
        "steps": 2000,
        "k_hat": 32,
        "eval_every": 100,
        "learning_rate": 0.01,
        "temperature": 0.25,
    },
    "paper": {"steps": 12000, "k_hat": 128, "eval_every": 200, "learning_rate": 1e-4},
}


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or missing section."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, environment included."""

    method: str
    env: EnvSpec
    seeds: tuple = (0, 1, 2)
    k: int = 8
    k_hat: int = 128
    steps: int = 12000
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int = 200
    eval_total_samples: int = 128
    hidden_dim: int = 32
    temperature: float = 1.0
    reward_scale: float = 10.0
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
        for name in ("k", "k_hat", "steps", "eval_every", "eval_total_samples", "hidden_dim"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        check_finite_reals(
            ConfigError,
            learning_rate=self.learning_rate,
            adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2,
            adam_eps=self.adam_eps,
            temperature=self.temperature,
            reward_scale=self.reward_scale,
        )
        # learning_rate 0 is allowed: it turns training into a no-op probe.
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be nonnegative")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise ConfigError("adam_eps must be positive")
        if self.temperature <= 0.0 or self.reward_scale <= 0.0:
            raise ConfigError("temperature and reward_scale must be positive")


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


_ENV_KEYS = {
    "name",
    "m",
    "seed",
    "noise_scale",
    "outlier_prob",
    "vocab_size",
    "prompt_length",
    "n_inputs",
    "context_dim",
}
_RUN_KEYS = {"k", "k_hat", "steps", "eval_every", "eval_total_samples", "seeds", "out_dir"}
_OPTIMIZER_KEYS = {"learning_rate", "adam_beta1", "adam_beta2", "adam_eps"}
_POLICY_KEYS = {"hidden_dim", "temperature", "reward_scale"}
_SECTIONS = {"method", "env", "run", "optimizer", "policy"}


def _check_keys(section: str, got: dict, allowed: set) -> None:
    unknown = set(got) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")


def config_from_dict(data: dict, profile: str = "desk") -> TrainConfig:
    """Build a TrainConfig from nested sections, failing closed.

    Precedence: explicit values in `data` override the profile, which
    overrides the dataclass defaults.

    Raises:
        ConfigError: on unknown profile, section, or key, or invalid values.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys("config", data, _SECTIONS)
    env_section = dict(data.get("env") or {})
    run_section = dict(data.get("run") or {})
    optimizer_section = dict(data.get("optimizer") or {})
    policy_section = dict(data.get("policy") or {})
    _check_keys("env", env_section, _ENV_KEYS)
    _check_keys("run", run_section, _RUN_KEYS)
    _check_keys("optimizer", optimizer_section, _OPTIMIZER_KEYS)
    _check_keys("policy", policy_section, _POLICY_KEYS)

    env_args = {"name": "tug-of-war", "m": 2, "seed": 0}
    env_args.update(env_section)
    name = env_args.pop("name")
    m = env_args.pop("m")
    env_seed = env_args.pop("seed")
    try:
        env = builtin_env(name, m=m, seed=env_seed, **env_args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    fields: dict = {"method": data.get("method", "average"), "env": env}
    fields.update(PROFILES[profile])
    for section in (run_section, optimizer_section, policy_section):
        fields.update(section)
    if "seeds" in fields:
        try:
            fields["seeds"] = tuple(fields["seeds"])
        except TypeError as exc:
            raise ConfigError(f"seeds must be a list of integers: {exc}") from exc
    try:
        return TrainConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard bias-corrected Adam; epsilon sits outside the square root."""

    def __init__(self, dim: int, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def _policy_config(cfg: TrainConfig) -> PolicyConfig:
    return PolicyConfig(
        vocab_size=cfg.env.vocab_size,
        prompt_length=cfg.env.prompt_length,
        hidden_dim=cfg.hidden_dim,
        context_dim=cfg.env.context_dim,
        temperature=cfg.temperature,
        reward_scale=cfg.reward_scale,
    )


def _prompt_scalars(method: str, batch: np.ndarray, m: int) -> np.ndarray:
    """The (k,) terminal rewards of a (k, k_hat, m) step batch."""
    if method == "hvi":
        return aggregate_hvi(batch, np.zeros(m))
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
    n_inputs = cfg.env.inputs.shape[0]
    k_hat_eval = max(1, cfg.eval_total_samples // n_inputs)
    inputs = np.arange(n_inputs)[:, None]
    prompt_seeds = derive_seeds((seed, ROLE_EVAL), np.hstack([inputs, np.zeros_like(inputs)]))
    rollout_seeds = derive_seeds((seed, ROLE_EVAL), np.hstack([inputs, np.ones_like(inputs)]))
    return _draw(cfg.env, prompt_seeds, rollout_seeds, 1, k_hat_eval)


def _evaluate(cfg: TrainConfig, params: PolicyParams, eval_draws):
    """Held-out metrics: one fresh prompt per input, on a seed's `_eval_draws`."""
    env = cfg.env
    uniforms, noise, outliers = eval_draws
    # Each input has its own context and so its own policy table.
    rows = [sample_prompts(params, context, u)[0] for context, u in zip(env.inputs, uniforms)]
    batch = rollout(env, np.vstack(rows), (noise, outliers), noise.shape[1])
    return evaluation_metrics(batch.reshape(-1, env.m), np.zeros(env.m))


def _record(cfg, step, seed, params, norm_sq, eval_draws) -> MetricsRecord:
    metrics = _evaluate(cfg, params, eval_draws)
    return MetricsRecord(
        step=step,
        seed=seed,
        method=cfg.method,
        per_objective_means=tuple(float(x) for x in metrics.per_objective_means),
        mean_of_means=metrics.mean_of_means,
        expected_product=metrics.expected_product,
        hvi=metrics.hvi,
        mgda_norm_sq=norm_sq,
    )


def _train_one_seed(cfg: TrainConfig, seed: int, result: TrainResult) -> PolicyParams:
    env = cfg.env
    pcfg = _policy_config(cfg)
    flat = init_policy(pcfg, derive_seed(seed, ROLE_INIT)).flat
    adam = Adam(flat.shape[0], cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    n_inputs = env.inputs.shape[0]
    norm_sq: float | None = None

    params = PolicyParams(pcfg, flat)
    eval_draws = _eval_draws(cfg, seed)
    result.records.append(_record(cfg, 0, seed, params, norm_sq, eval_draws))
    for step in range(1, cfg.steps + 1):
        b = (step - 1) % cfg.eval_every
        if b == 0:
            # One block of draws per eval interval: its steps up to the next
            # evaluation or the end of the run.
            block = np.arange(step, min(step + cfg.eval_every, cfg.steps + 1))
            uniforms, noise, outliers = _block_draws(cfg, seed, block)
        context = env.inputs[(step - 1) % n_inputs]
        tokens, table = sample_prompts(params, context, uniforms[b])
        batch = rollout(env, tokens, (noise[b], None if outliers is None else outliers[b]), cfg.k_hat)

        if cfg.method == "mgda":
            losses, grads = per_objective_loss_grads(table, tokens, batch.mean(axis=1))
            healthy = bool(np.isfinite(losses).all() and np.isfinite(grads).all())
            if healthy:
                try:
                    solution = min_norm_point(grads)
                except ValueError:
                    # Finite gradients can still overflow their Gram matrix.
                    healthy = False
                else:
                    norm_sq = solution.combined_norm_sq
                    grad = -solution.direction
                    healthy = bool(np.isfinite(grad).all())
        else:
            scalars = _prompt_scalars(cfg.method, batch, env.m)
            loss, grad = sql_loss_and_grad(table, tokens, scalars)
            healthy = bool(np.isfinite(loss) and np.isfinite(grad).all())

        if not healthy:
            result.aborts.append(
                {"seed": seed, "step": step, "method": cfg.method, "reason": "non-finite loss or gradient"}
            )
            return params
        flat = adam.update(flat, grad)
        params = PolicyParams(pcfg, flat)
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
        rows = comparison_table(combined.records, cfg_base.env.m)
        table_path = os.path.join(cfg_base.out_dir, "table1_analog.csv")
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(row) + "\n" for row in rows))
    return combined


def select_best_records(records: list, method: str) -> list:
    """Per seed, the record with the highest expected product (first on tie)."""
    chosen = []
    seeds = sorted({r.seed for r in records if r.method == method})
    for seed in seeds:
        run = [r for r in records if r.method == method and r.seed == seed]
        run.sort(key=lambda r: r.step)
        best = max(run, key=lambda r: r.expected_product)
        chosen.append(best)
    return chosen


def comparison_table(records: list, m: int) -> list:
    """The comparison table as rows of strings: a header, then one row per
    method that has records.

    For each method and seed, the evaluation checkpoint with the highest
    expected product is selected; a row averages those checkpoints across
    seeds and reports values scaled by 100, shortest round-trip formatted.
    """
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


def write_metrics_csv(records: list, path) -> None:
    """Fixed column order, shortest-round-trip float formatting."""
    if not records:
        raise ValueError("no records to write")
    m = len(records[0].per_objective_means)
    header = (
        ["step", "seed", "method"]
        + [f"mean_{i}" for i in range(m)]
        + ["mean_of_means", "expected_product", "hvi", "mgda_norm_sq"]
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for r in records:
        row = [str(r.step), str(r.seed), r.method]
        row += [repr(float(x)) for x in r.per_objective_means]
        row += [repr(float(r.mean_of_means)), repr(float(r.expected_product)), repr(float(r.hvi))]
        row.append("" if r.mgda_norm_sq is None else repr(float(r.mgda_norm_sq)))
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())


def read_metrics_csv(path) -> list:
    """Inverse of write_metrics_csv, for the scatter and inspect subcommands."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        mean_cols = [c for c in reader.fieldnames or [] if c.startswith("mean_") and c != "mean_of_means"]
        for row in reader:
            records.append(
                MetricsRecord(
                    step=int(row["step"]),
                    seed=int(row["seed"]),
                    method=row["method"],
                    per_objective_means=tuple(float(row[c]) for c in mean_cols),
                    mean_of_means=float(row["mean_of_means"]),
                    expected_product=float(row["expected_product"]),
                    hvi=float(row["hvi"]),
                    mgda_norm_sq=float(row["mgda_norm_sq"]) if row["mgda_norm_sq"] else None,
                )
            )
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
