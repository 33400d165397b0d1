"""Batch reward aggregation: the scalar training signals for each method.

A reward batch is one (n, m) array: a row of m objective scores per
generated output. Each aggregator takes a training step's (k, n, m) stack
of batches, one per prompt, and collapses each batch to the float that
becomes the prompt's terminal reward in the soft-Q loss: the grand mean,
the expected product, or the hypervolume of the batch as a point set. The
result is the (k,) array of those floats. An evaluation batch is one (n, m)
array; `evaluation_metrics` reports it as `runner.MetricsRecord`'s metrics.

Hypervolumes are measured from the origin: `rollout` clips rewards to
[0, 1]^m, so the origin is the lower corner of every reward's box.
"""

from __future__ import annotations

import numpy as np

from .geometry import hypervolume, hypervolumes

__all__ = [
    "aggregate_average",
    "aggregate_product",
    "aggregate_hvi",
    "evaluation_metrics",
]


def _as_batch(batch, ndim: int) -> np.ndarray:
    arr = np.asarray(batch, dtype=float)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"expected a nonempty {ndim}-d batch, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("reward batch must be finite")
    return arr


def aggregate_average(batch) -> np.ndarray:
    """Per batch, the grand mean: mean over samples of each sample's mean
    objective.

    Raises:
        ValueError: on an empty or non-finite stack.
    """
    return _as_batch(batch, 3).mean(axis=-1).mean(axis=-1)


def aggregate_product(batch) -> np.ndarray:
    """Per batch, the expected product: mean over samples of the product of
    objectives.

    Raises:
        ValueError: on an empty stack or any negative reward.
    """
    arr = _as_batch(batch, 3)
    if (arr < 0.0).any():
        raise ValueError("product aggregation requires nonnegative rewards")
    return arr.prod(axis=-1).mean(axis=-1)


def aggregate_hvi(batch) -> np.ndarray:
    """Per batch, the hypervolume of the batch as a point set above the origin.

    Dominated samples add nothing; the volume has no canonical per-sample
    decomposition, so each (n, m) batch yields one scalar; the whole stack
    is one `hypervolumes` call.

    Raises:
        ValueError: on an empty or non-finite stack.
    """
    arr = _as_batch(batch, 3)
    return hypervolumes(arr, np.zeros(arr.shape[2]))


def evaluation_metrics(batch) -> dict:
    """All reported metrics for one evaluation batch, on the raw [0, 1]
    reward scale, keyed by the metric fields of `runner.MetricsRecord`.

    Raises:
        ValueError: on an empty or non-finite batch.
    """
    arr = _as_batch(batch, 2)
    per_objective = arr.mean(axis=0)
    return {
        "per_objective_means": tuple(per_objective.tolist()),
        "mean_of_means": float(per_objective.mean()),
        "expected_product": float(arr.prod(axis=1).mean()),
        "hvi": hypervolume(arr, np.zeros(arr.shape[1])),
    }
