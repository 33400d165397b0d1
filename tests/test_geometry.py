"""Tests for dominance, Pareto fronts, and hypervolume.

The exact hypervolume routine is checked against two independent oracles:
an inclusion-exclusion sum over all nonempty subsets (exact, exponential in
the number of points), defined here, and a seeded Monte-Carlo estimate from
the `oracles` helper module. A test-local copy of the earlier per-point
Pareto filter and slicing recursion pins the exact floating-point output:
the vectorized filter and the 3-d sweep must not move a single bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from moprompt import geometry
from moprompt.geometry import hypervolume, hypervolumes, pareto_front
from oracles import dominates, hypervolume_mc


def hv_inclusion_exclusion(points, ref) -> float:
    """Oracle: measure of a union of boxes via inclusion-exclusion."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    clamped = np.maximum(pts, ref) - ref
    total = 0.0
    for size in range(1, len(clamped) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(range(len(clamped)), size):
            total += sign * float(np.prod(clamped[list(subset)].min(axis=0)))
    return total


def reference_front(points) -> np.ndarray:
    """Reference: the per-point Pareto filter, one numpy pass per distinct row."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = []
    for i, p in enumerate(pts):
        ge = np.all(pts >= p, axis=1)
        gt = np.any(pts > p, axis=1)
        if not np.any(ge & gt):
            keep.append(i)
    return pts[keep]


def reference_hypervolume(points, ref) -> float:
    """Reference: filter every set, then sweep (m = 2) or slice (m >= 3)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return 0.0
    r = np.asarray(ref, dtype=float)
    shifted = np.maximum(pts, r) - r
    shifted = shifted[np.all(shifted > 0.0, axis=1)]
    if len(shifted) == 0:
        return 0.0
    return _reference_hv(reference_front(shifted))


def _reference_hv(pts: np.ndarray) -> float:
    m = pts.shape[1]
    if m == 1:
        return float(pts.max())
    if m == 2:
        order = np.lexsort((-pts[:, 1], -pts[:, 0]))
        area = 0.0
        best_y = 0.0
        for x, y in pts[order]:
            if y > best_y:
                area += x * (y - best_y)
                best_y = y
        return float(area)
    keys = tuple(-pts[:, j] for j in range(m - 1, -1, -1))
    pts = pts[np.lexsort(keys)]
    xs = pts[:, 0]
    total = 0.0
    for i in range(len(pts)):
        lower = xs[i + 1] if i + 1 < len(pts) else 0.0
        width = xs[i] - lower
        if width == 0.0:
            continue
        total += width * _reference_hv(reference_front(pts[: i + 1, 1:]))
    return total


def random_points(seed: int, n: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Mix in coordinates below the reference point so clamping is exercised.
    return rng.uniform(-0.25, 1.0, size=(n, m))


# ---------------------------------------------------------------------------
# dominates


def test_dominates_basic():
    assert dominates([1.0, 1.0], [0.5, 0.5])
    assert dominates([1.0, 0.5], [0.5, 0.5])
    assert not dominates([0.5, 0.5], [0.5, 0.5])
    assert not dominates([1.0, 0.0], [0.0, 1.0])
    assert not dominates([0.0, 1.0], [1.0, 0.0])


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates([1.0, 2.0], [1.0, 2.0, 3.0])


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_dominates_is_strict_partial_order(seed, m):
    pts = random_points(seed, 6, m)
    for a in pts:
        assert not dominates(a, a)
    for a, b in itertools.permutations(pts, 2):
        if dominates(a, b):
            assert not dominates(b, a)
    for a, b, c in itertools.permutations(pts, 3):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


# ---------------------------------------------------------------------------
# pareto_front


def test_pareto_front_drops_dominated_and_duplicates():
    pts = [
        [0.6, 0.3],
        [0.2, 0.8],
        [0.2, 0.3],  # dominated by both
        [0.6, 0.3],  # duplicate
    ]
    front = pareto_front(pts)
    assert front.shape == (2, 2)
    assert {tuple(p) for p in front} == {(0.6, 0.3), (0.2, 0.8)}


def test_pareto_front_empty():
    assert pareto_front([]).shape[0] == 0


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2)])
def test_pareto_front_rejects_empty_arrays_of_wrong_rank(shape):
    with pytest.raises(ValueError, match="2-d array"):
        pareto_front(np.zeros(shape))


def test_pareto_front_rejects_bad_input():
    with pytest.raises(ValueError, match="2-d array"):
        pareto_front(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        pareto_front([[0.5, 0.5], [np.nan, 0.2]])


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4))
def test_pareto_front_is_nondominated_and_sufficient(seed, n, m):
    pts = random_points(seed, n, m)
    front = pareto_front(pts)
    assert 1 <= len(front) <= n
    for a, b in itertools.permutations(front, 2):
        assert not dominates(a, b)
    # Every input point is matched or beaten by some front member.
    for p in pts:
        assert any(np.all(f >= p) for f in front)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pareto_front_across_block_boundaries(m):
    # More rows than two blocks of the vectorized filter, with front members
    # in every block: half the distinct rows lie on the simplex (mutually
    # nondominated unless rounding ties them), half are uniform below it, so
    # that some are dominated only by rows in a later block.
    rng = np.random.default_rng(m)
    n = 2 * geometry._BLOCK + 3
    on_simplex = rng.dirichlet(np.ones(m), size=n // 2)
    below = rng.uniform(0.0, 1.0 / m, size=(n // 2, m))
    distinct = np.round(np.vstack([on_simplex, below]), 3)
    pts = np.vstack([distinct, distinct[rng.integers(0, len(distinct), size=n - len(distinct))]])
    pts = pts[rng.permutation(n)]
    expected = reference_front(pts)
    assert len(expected) > geometry._BLOCK // 2
    assert np.array_equal(pareto_front(pts), expected)


# ---------------------------------------------------------------------------
# hypervolume, frozen values


def test_hypervolume_two_point_example():
    # By hand: 0.6*0.3 + 0.2*(0.8-0.3) = 0.18 + 0.10 = 0.28.
    pts = [[0.6, 0.3], [0.2, 0.8]]
    assert hypervolume(pts, [0.0, 0.0]) == pytest.approx(0.28, abs=1e-12)


def test_hypervolume_ignores_dominated_point():
    pts = [[0.6, 0.3], [0.2, 0.8], [0.2, 0.3]]
    assert hypervolume(pts, [0.0, 0.0]) == pytest.approx(0.28, abs=1e-12)


def test_hypervolume_single_box():
    assert hypervolume([[0.5, 0.4]], [0.0, 0.0]) == pytest.approx(0.2, abs=1e-12)
    assert hypervolume([[0.5, 0.4, 0.9]], [0.0] * 3) == pytest.approx(0.18, abs=1e-12)


def test_hypervolume_three_dim_pair():
    # Union of two boxes: 0.18 + 0.084 - overlap 0.5*0.4*0.2 = 0.224.
    pts = [[0.5, 0.4, 0.9], [0.6, 0.7, 0.2]]
    assert hypervolume(pts, [0.0] * 3) == pytest.approx(0.224, abs=1e-12)


def test_hypervolume_one_dim():
    assert hypervolume([[0.3], [0.9], [0.1]], [0.0]) == pytest.approx(0.9, abs=1e-12)


def test_hypervolume_empty_and_degenerate():
    assert hypervolume([], [0.0, 0.0]) == 0.0
    # Points at or below the reference contribute nothing.
    assert hypervolume([[0.0, 0.5], [-1.0, -1.0]], [0.0, 0.0]) == 0.0


def test_hypervolume_clamps_below_reference():
    # (-0.5, 0.8) clamps to (0, 0.8): zero area; (0.6, -0.1) clamps to (0.6, 0).
    pts = [[0.6, 0.3], [-0.5, 0.8], [0.6, -0.1]]
    assert hypervolume(pts, [0.0, 0.0]) == pytest.approx(0.18, abs=1e-12)


def test_hypervolume_nonzero_reference():
    # Shifting points and reference together leaves the volume unchanged.
    pts = np.array([[0.6, 0.3], [0.2, 0.8]])
    assert hypervolume(pts + 2.0, [2.0, 2.0]) == pytest.approx(0.28, abs=1e-12)


def test_hypervolume_rejects_bad_input():
    with pytest.raises(ValueError):
        hypervolume([[0.5, 0.5]], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        hypervolume([[np.nan, 0.5]], [0.0, 0.0])
    with pytest.raises(ValueError):
        hypervolume_mc([[0.5, 0.5]], [0.0, 0.0], 0, seed=1)
    for bad in ([0.5, 0.5], [[[0.5, 0.5]]], 0.5):
        with pytest.raises(ValueError):
            hypervolume(bad, [0.0, 0.0])
    for bad in ([[0.5, 0.5]], np.zeros((1, 2, 0)), [[[np.inf, 0.5]]]):
        with pytest.raises(ValueError):
            hypervolumes(bad, [0.0, 0.0])


@pytest.mark.parametrize("bad_ref", [[0.0], [np.nan, 0.0, 0.0]])
def test_empty_point_set_still_checks_reference(bad_ref):
    # An empty (0, m) set has a dimension, so the reference point is
    # checked against it; only the dimensionless [] skips the check.
    with pytest.raises(ValueError, match="reference point"):
        hypervolume(np.empty((0, 3)), bad_ref)
    with pytest.raises(ValueError, match="reference point"):
        hypervolumes(np.empty((2, 0, 3)), bad_ref)
    assert hypervolume(np.empty((0, 3)), np.zeros(3)) == 0.0
    assert np.array_equal(hypervolumes(np.empty((2, 0, 3)), np.zeros(3)), np.zeros(2))


# ---------------------------------------------------------------------------
# hypervolume vs oracles


@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 5))
@settings(max_examples=75, deadline=None)
def test_hypervolume_matches_inclusion_exclusion(seed, n, m):
    # The environments accept any m >= 2; at m = 5 the oracle's 2^n subsets
    # are kept small.
    n = min(n, 7) if m == 5 else n
    pts = random_points(seed, n, m)
    exact = hypervolume(pts, np.zeros(m))
    oracle = hv_inclusion_exclusion(pts, np.zeros(m))
    assert exact == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed,n,m", [(7, 12, 2), (11, 10, 3), (13, 8, 4)])
def test_hypervolume_matches_monte_carlo(seed, n, m):
    pts = random_points(seed, n, m)
    exact = hypervolume(pts, np.zeros(m))
    est = hypervolume_mc(pts, np.zeros(m), n_samples=200_000, seed=seed + 1)
    assert est == pytest.approx(exact, abs=0.01)


def test_hypervolume_mc_chunks_match_one_draw(monkeypatch):
    # A small element budget forces many chunks, the last one partial.
    pts = random_points(5, 16, 4)
    ref = np.zeros(4)
    n_samples = 5_001
    rng = np.random.default_rng(3)
    extent = pts.max(axis=0) - ref
    q = ref + rng.random((n_samples, 4)) * extent
    hits = int((q[:, None, :] <= pts[None, :, :]).all(axis=2).any(axis=1).sum())
    one_draw = float(np.prod(extent)) * hits / n_samples
    monkeypatch.setattr(oracles, "_MC_ELEMENTS", 16 * 4 * 97)
    assert hypervolume_mc(pts, ref, n_samples, seed=3) == one_draw


@st.composite
def tied_point_sets(draw, m, n=None):
    """Point sets with rounded ties, repeated rows and points below `ref`.

    Half the sets start on the simplex, where every point is nondominated,
    so that large fronts and deep slicing recursions are common. `n` fixes
    the number of rows.
    """
    n = n or draw(st.sampled_from(range(1, 21)))
    distinct = n - draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.dirichlet(np.ones(m), size=distinct)
    else:
        pool = rng.uniform(-0.25, 1.0, size=(distinct, m))
    decimals = draw(st.sampled_from([None, 1, 2]))
    if decimals is not None:
        pool = np.round(pool, decimals)
    pts = np.vstack([pool, pool[rng.integers(0, distinct, size=n - distinct)]])
    pts = pts[rng.permutation(n)]
    ref = np.zeros(m) if draw(st.booleans()) else np.round(rng.uniform(-0.2, 0.2, size=m), 1)
    return pts, ref


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hypervolume_bit_identical_to_reference(m, data):
    pts, ref = data.draw(tied_point_sets(m))
    assert hypervolume(pts, ref) == reference_hypervolume(pts, ref)
    assert np.array_equal(pareto_front(pts), reference_front(pts))


@st.composite
def tied_point_stacks(draw, m):
    """(k, n, m) stacks of `tied_point_sets` under the first set's `ref`.

    About a quarter of the batches lie wholly at or below `ref`: every row
    is moved onto it, or 0.1 below it, in one random coordinate.
    """
    n = draw(st.integers(1, 20))
    sets = [draw(tied_point_sets(m, n)) for _ in range(draw(st.integers(1, 5)))]
    stack, ref = np.stack([pts for pts, _ in sets]), sets[0][1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    below = rng.random(len(stack)) < 0.25
    for b in np.flatnonzero(below):
        cols = rng.integers(0, m, size=n)
        stack[b, np.arange(n), cols] = ref[cols] - rng.choice([0.0, 0.1], size=n)
    return stack, ref, below


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_hypervolumes_bit_identical_per_batch(m, data):
    stack, ref, below = data.draw(tied_point_stacks(m))
    volumes = hypervolumes(stack, ref)
    assert volumes.shape == (len(stack),) and volumes.dtype == float
    for pts, volume, is_below in zip(stack, volumes, below):
        assert volume == hypervolume(pts, ref) == reference_hypervolume(pts, ref)
        if is_below:
            assert volume == 0.0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sweep_3d_independent_of_order_within_equal_first_coordinates(data):
    pts, _ = data.draw(tied_point_sets(3))
    pts = np.abs(pts) + 0.01
    pts[:, 0] = np.round(pts[:, 0], 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lex = np.lexsort((-pts[:, 2], -pts[:, 1], -pts[:, 0]))
    want = geometry._sweep_3d(*pts[lex].T.tolist())
    for _ in range(3):
        shuffled = np.lexsort((rng.random(len(pts)), -pts[:, 0]))
        assert geometry._sweep_3d(*pts[shuffled].T.tolist()) == want
    assert want == hypervolume(pts, np.zeros(3)) == reference_hypervolume(pts, np.zeros(3))


def batch_scale_point_sets(m: int, n_max: int, count: int):
    """Seeded (points, ref) pairs of up to `n_max` rows, the size of a rollout batch.

    The kinds cycle: simplex fronts (every distinct row nondominated, so the
    staircase grows long and each new row splices out a run of steps),
    simplex fronts whose first coordinate is rounded (many equal x, so
    zero-width slabs), rounded coordinates half on and half below the
    simplex, and coarse uniform draws with points below the reference.
    Every set repeats some rows.
    """
    rng = np.random.default_rng(1000 + m)
    for t in range(count):
        n = int(rng.integers(n_max // 2, n_max + 1))
        distinct = n - int(rng.integers(1, n // 4 + 1))
        kind = t % 4
        if kind in (0, 1):
            pool = rng.dirichlet(np.ones(m), size=distinct)
            if kind == 1:
                pool[:, 0] = np.round(pool[:, 0], 1)
        elif kind == 2:
            half = distinct // 2
            pool = np.vstack(
                [
                    rng.dirichlet(np.ones(m), size=half),
                    rng.uniform(0.0, 1.0 / m, size=(distinct - half, m)),
                ]
            )
            pool = np.round(pool, 2)
        else:
            pool = np.round(rng.uniform(-0.25, 1.0, size=(distinct, m)), 1)
        pts = np.vstack([pool, pool[rng.integers(0, distinct, size=n - distinct)]])
        pts = pts[rng.permutation(n)]
        ref = np.zeros(m) if t % 2 == 0 else np.round(rng.uniform(-0.2, 0.2, size=m), 1)
        yield pts, ref


@pytest.mark.parametrize("m,n_max,count", [(3, 150, 40), (4, 64, 16)])
def test_hypervolume_bit_identical_at_batch_scale(m, n_max, count):
    for pts, ref in batch_scale_point_sets(m, n_max, count):
        assert hypervolume(pts, ref) == reference_hypervolume(pts, ref)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_hypervolume_returns_builtin_float(m):
    pts = random_points(m, 12, m)
    assert type(hypervolume(pts, np.zeros(m))) is float


# ---------------------------------------------------------------------------
# hypervolume properties


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hypervolume_invariant_to_order_and_duplicates(seed, n, m):
    pts = random_points(seed, n, m)
    ref = np.zeros(m)
    base = hypervolume(pts, ref)
    rng = np.random.default_rng(seed)
    shuffled = pts[rng.permutation(n)]
    assert hypervolume(shuffled, ref) == base
    assert hypervolume(np.vstack([pts, pts[:1]]), ref) == base


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hypervolume_monotone_under_union(seed, n, m):
    pts = random_points(seed, n + 1, m)
    ref = np.zeros(m)
    assert hypervolume(pts, ref) >= hypervolume(pts[:-1], ref) - 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_hypervolume_front_is_sufficient(seed, n, m):
    pts = np.abs(random_points(seed, n, m))
    ref = np.zeros(m)
    assert hypervolume(pareto_front(pts), ref) == pytest.approx(
        hypervolume(pts, ref), abs=1e-12
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_hypervolume_scales_by_power_of_dimension(seed, n, m):
    pts = random_points(seed, n, m)
    ref = np.zeros(m)
    scale = 3.0
    assert hypervolume(scale * pts, ref) == pytest.approx(
        scale**m * hypervolume(pts, ref), rel=1e-9, abs=1e-12
    )
