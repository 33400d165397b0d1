"""Tests for the min-norm solver against a brute-force simplex grid search
and a face-enumeration oracle."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt import mgda
from moprompt.mgda import min_norm_point
from oracles import simplex_grid_norm_sq


def random_gradients(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, n))


def face_enumeration_norm_sq(g: np.ndarray) -> float:
    """Oracle for any m: the smallest squared norm over the affine minimizers
    of every support that have nonnegative weights.

    The affine minimizer of a support projects the origin onto the affine
    hull of its gradients, solved as least squares in gradient space.
    """
    best = np.inf
    for k in range(1, len(g) + 1):
        for support in combinations(range(len(g)), k):
            base, rest = g[support[0]], g[list(support[1:])]
            y = np.linalg.lstsq((rest - base).T, -base, rcond=None)[0]
            weights = np.concatenate([[1.0 - y.sum()], y])
            if weights.min() >= 0.0:
                point = weights @ g[list(support)]
                best = min(best, float(point @ point))
    return best


# ---------------------------------------------------------------------------
# frozen examples


def test_orthogonal_pair():
    res = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
    assert res.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.combined_norm_sq == pytest.approx(0.5, abs=1e-9)
    assert res.direction == pytest.approx([-0.5, -0.5], abs=1e-9)
    assert res.converged


def test_identical_gradients():
    v = np.array([0.3, -0.7, 0.2])
    res = min_norm_point([v, v])
    assert res.combined_norm_sq == pytest.approx(float(v @ v), abs=1e-12)
    assert res.weights.min() >= 0.0
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.direction == pytest.approx(-v, abs=1e-12)


def test_collinear_pair_picks_shorter():
    res = min_norm_point([[2.0, 0.0], [1.0, 0.0]])
    assert res.weights == pytest.approx([0.0, 1.0], abs=1e-9)
    assert res.combined_norm_sq == pytest.approx(1.0, abs=1e-9)


def test_single_gradient_is_exact_passthrough():
    g = np.array([[0.125, -2.5, 3.75]])
    res = min_norm_point(g)
    assert res.weights.tolist() == [1.0]
    assert np.array_equal(res.direction, -g[0])
    assert res.converged
    assert res.iterations == 0
    assert res.gap >= 0.0
    assert res.combined_norm_sq == float(g[0] @ g[0])


def test_opposed_gradients_are_pareto_stationary():
    v = np.array([0.8, -0.6, 0.1])
    res = min_norm_point([v, -v])
    assert res.combined_norm_sq <= 1e-9
    assert np.abs(res.direction).max() <= 1e-4


# ---------------------------------------------------------------------------
# errors and flags


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        min_norm_point([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        min_norm_point(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        # Finite gradients whose Gram matrix overflows.
        min_norm_point([[1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError):
        # The same overflow from a single gradient.
        min_norm_point([[1e200, 1e200]])


def test_max_iter_exhaustion_sets_flag(monkeypatch):
    monkeypatch.setattr(mgda, "_MAX_ITER", 1)
    g = random_gradients(0, 4, 6)
    res = min_norm_point(g)
    assert not res.converged
    assert res.iterations == 1
    # The gap is recomputed at the returned weights, so it still certifies them.
    u = -res.direction
    assert float((g @ u).min()) >= res.combined_norm_sq - res.gap - 1e-12


# ---------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize("m", [2, 3])
def test_matches_grid_search(m):
    for trial in range(100):
        g = random_gradients(1000 * m + trial, m, 1 + trial % 5)
        res = min_norm_point(g)
        oracle = simplex_grid_norm_sq(g @ g.T)
        assert res.combined_norm_sq == pytest.approx(oracle, abs=1e-4)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_weights_on_simplex_and_direction_consistent(seed, m, n):
    g = random_gradients(seed, m, n)
    res = min_norm_point(g)
    assert res.weights.shape == (m,)
    assert res.weights.min() >= 0.0
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.direction, -(res.weights @ g), atol=1e-12)
    assert res.combined_norm_sq == pytest.approx(float(res.direction @ res.direction), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_descent_direction_improves_every_loss(seed, m, n):
    g = random_gradients(seed, m, n)
    res = min_norm_point(g)
    # The returned gap certifies the descent property whether or not the
    # solver hit its tolerance: g_i . u >= ||u||^2 - gap for every i.
    slack = 1e-9 * (1.0 + res.combined_norm_sq)
    u = -res.direction
    for gi in g:
        assert float(gi @ u) >= res.combined_norm_sq - res.gap - slack
    if res.converged:
        assert res.gap <= 1e-7 + slack


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_scale_covariance(seed, m, n):
    g = random_gradients(seed, m, n)
    c = 7.5
    base = min_norm_point(g)
    scaled = min_norm_point(c * g)
    # Squared norms scale by c^2, within the solvers' own gap certificates.
    tol_value = 2.0 * (c**2 * base.gap + scaled.gap) + 1e-9
    assert abs(scaled.combined_norm_sq - c**2 * base.combined_norm_sq) <= tol_value
    if m == 2 and base.combined_norm_sq > 1e-8:
        # Two distinct gradients have a unique minimizer, so weights match
        # tightly.
        assert scaled.weights == pytest.approx(base.weights, abs=1e-9)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(1, 6),
    st.sampled_from(["plain", "duplicate", "opposed", "rounded", "scaled", "clustered"]),
)
@settings(max_examples=200, deadline=None)
def test_matches_face_enumeration_oracle(seed, m, n, kind):
    g = random_gradients(seed, m, n)
    if kind == "duplicate":
        g[-1] = g[0]
    elif kind == "opposed":
        g[-1] = -g[0]
    elif kind == "rounded":
        g = np.round(g, 1)
    elif kind == "scaled":
        g = 1e3 * g
    elif kind == "clustered":
        # Nearly parallel gradients spread orthogonally around their mean c:
        # the minimizer is interior, with vertex gaps that are tiny but far
        # above rounding, so a loose stopping rule shows.
        c = g.mean(axis=0)
        spread = g - c
        g = c + 1e-3 * (spread - np.outer(spread @ c / (c @ c), c))
    res = min_norm_point(g)
    dust = 1e-12 * (1.0 + float(np.abs(g @ g.T).max()))
    assert abs(res.combined_norm_sq - face_enumeration_norm_sq(g)) <= dust
    assert res.gap <= dust
    assert res.converged
    u = -res.direction
    assert float((g @ u).min()) >= res.combined_norm_sq - res.gap - dust


# ---------------------------------------------------------------------------
# one descent step x + eta * direction


def test_step_single_objective_is_plain_gradient_descent():
    params = np.array([0.5, -1.5, 2.0, 0.25])
    g = np.array([[1.0, -2.0, 0.5, 4.0]])
    step = params + 0.1 * min_norm_point(g).direction
    assert np.array_equal(step, params - 0.1 * g[0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_step_decreases_quadratic_losses(seed):
    # Losses L_i(x) = 0.5 ||x - c_i||^2 with distinct anchors: away from the
    # Pareto set, one MGDA step with small eta must decrease every loss.
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(-1.0, 1.0, size=(3, 4))
    x = rng.uniform(2.0, 3.0, size=4)
    g = x[None, :] - anchors
    res = min_norm_point(g)
    if res.combined_norm_sq <= 1e-10:
        return
    eta = 1e-3
    x_next = x + eta * res.direction
    for c in anchors:
        before = 0.5 * float((x - c) @ (x - c))
        after = 0.5 * float((x_next - c) @ (x_next - c))
        assert after < before
