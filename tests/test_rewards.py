"""Tests for batch reward aggregation against brute-force loop oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt.rewards import (
    aggregate_average,
    aggregate_hvi,
    aggregate_product,
    evaluation_metrics,
)
from moprompt.runner import MetricsRecord


def random_batch(seed: int, n: int, m: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, m))


def loop_average(batch):
    per = [sum(row) / len(row) for row in batch]
    return sum(per) / len(per)


def loop_product(batch):
    per = [math.prod(row) for row in batch]
    return sum(per) / len(per)


# ---------------------------------------------------------------------------
# frozen examples


def test_average_examples():
    out = aggregate_average([[[0.5, 0.5]]])
    assert type(out) is np.ndarray
    assert out.dtype == np.float64
    assert out.tolist() == [0.5]

    assert aggregate_average([[[0.5, 0.5], [1.0, 0.0]]]).tolist() == [0.5]
    assert aggregate_average([[[1.0, 1.0, 1.0]]]).tolist() == [1.0]
    assert aggregate_average([[[0.5, 0.5], [1.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]]).tolist() == [0.5, 1.0]


def test_product_examples():
    out = aggregate_product([[[0.5, 0.5], [1.0, 0.0]]])
    assert type(out) is np.ndarray
    assert out.dtype == np.float64
    assert out.tolist() == [0.125]

    assert aggregate_product([[[1.0, 1.0]]]).tolist() == [1.0]
    assert aggregate_product([[[0.6, 0.3]]])[0] == pytest.approx(0.18, abs=1e-15)


def test_hvi_examples():
    out = aggregate_hvi([[[0.6, 0.3], [0.2, 0.8]]])
    assert type(out) is np.ndarray
    assert out.dtype == np.float64
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.28, abs=1e-12)

    assert aggregate_hvi([[[0.6, 0.3]]])[0] == pytest.approx(0.18, abs=1e-12)


def test_hvi_dominant_outlier():
    # One large point swamps the volume of a cloud near the origin.
    batch = [[0.1, 0.12], [0.11, 0.1], [0.9, 0.9], [0.08, 0.09]]
    assert aggregate_hvi([batch])[0] >= 0.81


def test_evaluation_metrics_example():
    out = evaluation_metrics([[0.2, 0.8], [0.6, 0.4]])
    assert out["per_objective_means"] == pytest.approx([0.4, 0.6], abs=1e-15)
    assert out["mean_of_means"] == pytest.approx(0.5, abs=1e-15)
    assert out["expected_product"] == pytest.approx(0.20, abs=1e-15)
    # Exactly the metric fields of the record an evaluation becomes.
    record_fields = {f.name for f in dataclasses.fields(MetricsRecord)}
    assert set(out) == record_fields - {"step", "seed", "method", "mgda_norm_sq"}


def test_evaluation_metrics_degenerate():
    out = evaluation_metrics([[1.0, 1.0]])
    assert out["mean_of_means"] == 1.0
    assert out["expected_product"] == 1.0
    assert out["hvi"] == 1.0


# ---------------------------------------------------------------------------
# errors


def test_empty_batch_rejected():
    for fn in (aggregate_average, aggregate_product):
        with pytest.raises(ValueError):
            fn([])
        with pytest.raises(ValueError):
            fn(np.zeros((1, 0, 2)))
    with pytest.raises(ValueError):
        aggregate_hvi([])
    with pytest.raises(ValueError):
        aggregate_hvi(np.zeros((1, 0, 2)))
    with pytest.raises(ValueError):
        evaluation_metrics([])


def test_product_rejects_negative_rewards():
    with pytest.raises(ValueError):
        aggregate_product([[[0.5, -0.1]]])


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_average_and_product_match_loop_oracle(seed, n, m):
    batch = random_batch(seed, n, m)
    assert aggregate_average(batch[None])[0] == pytest.approx(loop_average(batch.tolist()), abs=1e-12)
    assert aggregate_product(batch[None])[0] == pytest.approx(loop_product(batch.tolist()), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_aggregators_are_permutation_invariant(seed, n, m):
    batch = random_batch(seed, n, m)
    perm = np.random.default_rng(seed + 1).permutation(n)
    shuffled = batch[perm][None]
    assert aggregate_average(shuffled)[0] == pytest.approx(aggregate_average(batch[None])[0], abs=1e-12)
    assert aggregate_product(shuffled)[0] == pytest.approx(aggregate_product(batch[None])[0], abs=1e-12)
    assert aggregate_hvi(shuffled)[0] == pytest.approx(
        aggregate_hvi(batch[None])[0], abs=1e-12
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 40), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_stacked_batches_equal_per_batch_calls(seed, k, n, m):
    stack = np.random.default_rng(seed).uniform(0.0, 1.0, size=(k, n, m))
    for fn in (aggregate_average, aggregate_product, aggregate_hvi):
        out = fn(stack)
        assert out.shape == (k,)
        assert out.dtype == np.float64
        assert out.tolist() == [fn(batch[None])[0] for batch in stack]


def test_stacked_batch_errors():
    for fn in (aggregate_average, aggregate_product, aggregate_hvi):
        with pytest.raises(ValueError, match="3-d"):
            fn(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        aggregate_average(np.zeros((2, 0, 3)))
    with pytest.raises(ValueError):
        aggregate_product(np.full((2, 3, 2), -0.5))
    with pytest.raises(ValueError):
        aggregate_hvi(np.full((2, 3, 2), np.nan))
    with pytest.raises(ValueError):
        evaluation_metrics(np.zeros((2, 3, 2)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_product_below_mean_of_means_on_unit_interval(seed, n, m):
    # AM-GM per sample, then averaging over the batch.
    batch = random_batch(seed, n, m)
    metrics = evaluation_metrics(batch)
    assert metrics["expected_product"] <= metrics["mean_of_means"] + 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_hvi_dominated_sample_no_op(seed, n, m):
    batch = random_batch(seed, n, m)
    out = aggregate_hvi(batch[None])[0]
    # A sample dominated by an existing one never moves the HVI scalar.
    dominated = batch[0] * 0.5
    grown = np.vstack([batch, dominated])
    assert aggregate_hvi(grown[None])[0] == pytest.approx(out, abs=1e-12)
