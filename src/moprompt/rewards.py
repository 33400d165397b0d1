"""Batch reward aggregation: the scalar training signals for each method.

A reward batch is one (n, m) array: a row of m objective scores per
generated output. Each aggregator collapses it to the float that becomes
the prompt's terminal reward in the soft-Q loss: the grand mean, the
expected product, or the hypervolume of the batch as a point set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import hypervolume

__all__ = [
    "EvaluationMetrics",
    "aggregate_average",
    "aggregate_product",
    "aggregate_hvi",
    "evaluation_metrics",
]


@dataclass(frozen=True)
class EvaluationMetrics:
    """The reported batch metrics, all on the raw [0, 1] reward scale."""

    per_objective_means: np.ndarray
    mean_of_means: float
    expected_product: float
    hvi: float


def _as_batch(batch) -> np.ndarray:
    arr = np.asarray(batch, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"expected a nonempty (n, m) reward batch, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("reward batch must be finite")
    return arr


def aggregate_average(batch) -> float:
    """The grand mean: mean over samples of each sample's mean objective.

    Raises:
        ValueError: on an empty or non-finite batch.
    """
    return float(_as_batch(batch).mean(axis=1).mean())


def aggregate_product(batch) -> float:
    """The expected product: mean over samples of the product of objectives.

    Raises:
        ValueError: on an empty batch or any negative reward.
    """
    arr = _as_batch(batch)
    if (arr < 0.0).any():
        raise ValueError("product aggregation requires nonnegative rewards")
    return float(arr.prod(axis=1).mean())


def aggregate_hvi(batch, ref) -> float:
    """Hypervolume of the batch as a point set above ref.

    Dominated samples add nothing; the volume has no canonical per-sample
    decomposition, so the batch yields one scalar.

    Raises:
        ValueError: on an empty batch or a reference point of wrong dimension.
    """
    return hypervolume(_as_batch(batch), ref)


def evaluation_metrics(batch, ref) -> EvaluationMetrics:
    """All reported metrics for one evaluation batch.

    Raises:
        ValueError: on an empty batch.
    """
    arr = _as_batch(batch)
    per_objective = arr.mean(axis=0)
    return EvaluationMetrics(
        per_objective_means=per_objective,
        mean_of_means=float(per_objective.mean()),
        expected_product=float(arr.prod(axis=1).mean()),
        hvi=hypervolume(arr, ref),
    )
