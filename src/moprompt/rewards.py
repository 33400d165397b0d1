"""Batch reward aggregation: the scalar training signals for each method.

A reward batch is one (n, m) array: a row of m objective scores per
generated output. Each aggregator collapses it to the float that becomes
the prompt's terminal reward in the soft-Q loss: the grand mean, the
expected product, or the hypervolume of the batch as a point set. A
training step's (k, n, m) stack of batches, one per prompt, collapses in
one call to the (k,) array of those floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import hypervolume

__all__ = [
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


def _as_batch(batch, ndims=(2, 3)) -> np.ndarray:
    arr = np.asarray(batch, dtype=float)
    if arr.ndim not in ndims or 0 in arr.shape:
        raise ValueError(f"expected a nonempty batch with ndim in {ndims}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("reward batch must be finite")
    return arr


def aggregate_average(batch):
    """The grand mean: mean over samples of each sample's mean objective.

    Raises:
        ValueError: on an empty or non-finite batch.
    """
    arr = _as_batch(batch)
    out = arr.mean(axis=-1).mean(axis=-1)
    return float(out) if arr.ndim == 2 else out


def aggregate_product(batch):
    """The expected product: mean over samples of the product of objectives.

    Raises:
        ValueError: on an empty batch or any negative reward.
    """
    arr = _as_batch(batch)
    if (arr < 0.0).any():
        raise ValueError("product aggregation requires nonnegative rewards")
    out = arr.prod(axis=-1).mean(axis=-1)
    return float(out) if arr.ndim == 2 else out


def aggregate_hvi(batch, ref):
    """Hypervolume of the batch as a point set above ref.

    Dominated samples add nothing; the volume has no canonical per-sample
    decomposition, so each (n, m) batch yields one scalar, from one
    hypervolume call.

    Raises:
        ValueError: on an empty batch or a reference point of wrong dimension.
    """
    arr = _as_batch(batch)
    if arr.ndim == 2:
        return hypervolume(arr, ref)
    return np.array([hypervolume(b, ref) for b in arr])


def evaluation_metrics(batch, ref) -> EvaluationMetrics:
    """All reported metrics for one evaluation batch.

    Raises:
        ValueError: on an empty batch.
    """
    arr = _as_batch(batch, ndims=(2,))
    per_objective = arr.mean(axis=0)
    return EvaluationMetrics(
        per_objective_means=per_objective,
        mean_of_means=float(per_objective.mean()),
        expected_product=float(arr.prod(axis=1).mean()),
        hvi=hypervolume(arr, ref),
    )
