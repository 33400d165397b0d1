"""Multi-objective prompt optimization on synthetic conflicting rewards.

The package trains a small token-sequence policy against vector-valued
reward environments and compares four update rules: averaged rewards,
expected product of rewards, hypervolume improvement, and multiple
gradient descent on the per-objective losses.
"""

from .envs import EnvSpec, builtin_env, rollout, rollout_draws
from .geometry import hypervolume, pareto_front
from .mgda import DescentResult, min_norm_point
from .policy import (
    PolicyConfig,
    PolicyParams,
    init_policy,
    load_checkpoint,
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
from .runner import (
    ConfigError,
    MetricsRecord,
    TrainConfig,
    TrainResult,
    compare_methods,
    config_from_dict,
    emit_scatter,
    read_metrics_csv,
    train,
    write_metrics_csv,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "EnvSpec",
    "builtin_env",
    "rollout",
    "rollout_draws",
    "hypervolume",
    "pareto_front",
    "DescentResult",
    "min_norm_point",
    "PolicyConfig",
    "PolicyParams",
    "init_policy",
    "load_checkpoint",
    "per_objective_loss_grads",
    "sample_prompts",
    "save_checkpoint",
    "sql_loss_and_grad",
    "aggregate_average",
    "aggregate_hvi",
    "aggregate_product",
    "evaluation_metrics",
    "ConfigError",
    "MetricsRecord",
    "TrainConfig",
    "TrainResult",
    "compare_methods",
    "config_from_dict",
    "emit_scatter",
    "read_metrics_csv",
    "train",
    "write_metrics_csv",
    "derive_seed",
    "__version__",
]
