"""Dominance relations, Pareto fronts, and hypervolume over reward point sets.

All routines treat objectives as maximization targets: a point is better when
every coordinate is at least as large and some coordinate is strictly larger.
The hypervolume of a set is the Lebesgue measure of the union of axis-aligned
boxes spanned between a reference point and each set member. Points falling
below the reference point in some coordinate are clamped to it, so they simply
contribute a degenerate box instead of raising.

The exact computation uses a dimension sweep for two objectives and recursive
slicing on the first coordinate for three or more; `hypervolume_mc` provides
an independent Monte-Carlo estimate used to validate the exact path.

The nondominated filter is vectorized: after collapsing duplicates it builds
the "at least as large in every coordinate" relation one block of candidate
columns at a time, so memory stays O(n * block) rather than O(n^2 * m). Only
sets that are about to be sliced are filtered, because their slab boundaries
must come from nondominated points alone. Two-objective sets, including the
2-d cross sections of a 3-d slice, go to the sweep unfiltered: dominated and
duplicate points never raise its running maximum, so the sweep performs the
same floating-point operations, in the same order, as on the filtered front.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dominates", "pareto_front", "hypervolume", "hypervolume_mc"]


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def _as_ref(ref, m: int) -> np.ndarray:
    r = np.asarray(ref, dtype=float).ravel()
    if r.shape[0] != m:
        raise ValueError(f"reference point has dimension {r.shape[0]}, points have {m}")
    if not np.isfinite(r).all():
        raise ValueError("reference point must be finite")
    return r


def dominates(a, b) -> bool:
    """True iff `a` is >= `b` in every objective and > in at least one.

    Raises:
        ValueError: if the two vectors differ in dimension.
    """
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return bool(np.all(av >= bv) and np.any(av > bv))


def pareto_front(points) -> np.ndarray:
    """Return the nondominated subset of `points` with duplicates collapsed.

    Args:
        points: (n, m) array-like of reward vectors; the empty set is valid.

    Returns:
        (k, m) array of the distinct nondominated points, in sorted order.
    """
    pts = _as_points(points)
    if len(pts) == 0:
        return pts
    return _nondominated(pts)


# Candidate columns per block of the dominance relation in `_nondominated`.
_BLOCK = 128


def _nondominated(pts: np.ndarray) -> np.ndarray:
    # np.unique sorts the distinct rows lexicographically, so a row can only be
    # dominated by a later one: rows before a block are skipped. Among distinct
    # rows, ">= in every column" off the diagonal is strict dominance.
    pts = np.unique(pts, axis=0)
    n = len(pts)
    dominated = np.empty(n, dtype=bool)
    for s in range(0, n, _BLOCK):
        blk = pts[s : s + _BLOCK]
        rows = pts[s:]
        ge = rows[:, 0, None] >= blk[None, :, 0]
        for k in range(1, pts.shape[1]):
            ge &= rows[:, k, None] >= blk[None, :, k]
        diag = np.arange(len(blk))
        ge[diag, diag] = False
        dominated[s : s + len(blk)] = ge.any(axis=0)
    return pts[~dominated]


def hypervolume(points, ref) -> float:
    """Exact hypervolume of `points` with respect to reference point `ref`.

    Measures the union of boxes [ref, p] for p in the set, after clamping
    each point to be >= ref componentwise. Invariant to point order and to
    duplication; the empty set has volume 0.

    Args:
        points: (n, m) array-like of reward vectors.
        ref: length-m reference point (the lower corner of every box).

    Returns:
        Nonnegative dominated volume.

    Raises:
        ValueError: on dimension mismatch or non-finite input.
    """
    pts = _as_points(points)
    if len(pts) == 0:
        return 0.0
    r = _as_ref(ref, pts.shape[1])
    shifted = np.maximum(pts, r) - r
    shifted = shifted[np.all(shifted > 0.0, axis=1)]
    if len(shifted) == 0:
        return 0.0
    return _hv(shifted)


# Elements of the sample-versus-point comparison in one `hypervolume_mc` chunk.
_MC_ELEMENTS = 1 << 22


def hypervolume_mc(points, ref, n_samples: int, seed: int) -> float:
    """Monte-Carlo hypervolume estimate, the oracle for the exact routine.

    Samples uniformly inside the bounding box [ref, componentwise max of the
    set] and scales the dominated fraction by the box volume. Unbiased, and
    deterministic for a fixed seed.

    Args:
        points: (n, m) array-like of reward vectors.
        ref: length-m reference point.
        n_samples: number of uniform samples; must be positive.
        seed: RNG seed.

    Raises:
        ValueError: if n_samples is not positive, or on dimension mismatch.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    pts = _as_points(points)
    if len(pts) == 0:
        return 0.0
    r = _as_ref(ref, pts.shape[1])
    extent = np.maximum(pts.max(axis=0), r) - r
    box_volume = float(np.prod(extent))
    if box_volume == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    # The generator draws doubles in sequence, so the chunking, which bounds
    # the (chunk, n, m) comparison temporary, does not change the samples.
    max_chunk = max(1, _MC_ELEMENTS // pts.size)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        chunk = min(remaining, max_chunk)
        q = r + rng.random((chunk, len(r))) * extent
        dominated = (q[:, None, :] <= pts[None, :, :]).all(axis=2).any(axis=1)
        hits += int(dominated.sum())
        remaining -= chunk
    return box_volume * hits / n_samples


def _hv(pts: np.ndarray) -> float:
    # pts: strictly positive coordinates, measured against the origin; may
    # hold dominated and duplicate points.
    m = pts.shape[1]
    if m == 1:
        return float(pts.max())
    if m == 2:
        return _hv_sweep_2d(pts)
    return _hv_slice(_nondominated(pts))


def _hv_sweep_2d(pts: np.ndarray) -> float:
    # Descending sweep over x; a point adds area only where its y exceeds
    # the running maximum. Ties broken by the second coordinate, so a
    # dominated or repeated point always follows one that bounds its y.
    # Python floats are IEEE doubles, as numpy's float64 scalars are, and
    # iterate faster.
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    area = 0.0
    best_y = 0.0
    for x, y in pts[order].tolist():
        if y > best_y:
            area += x * (y - best_y)
            best_y = y
    return float(area)


def _hv_slice(pts: np.ndarray) -> float:
    # Integrate (m-1)-dimensional cross sections along the first coordinate
    # of a nondominated set. The slab between consecutive sorted first
    # coordinates is covered exactly by the points at or above its upper face.
    keys = tuple(-pts[:, j] for j in range(pts.shape[1] - 1, -1, -1))
    pts = pts[np.lexsort(keys)]
    xs = pts[:, 0]
    total = 0.0
    for i in range(len(pts)):
        lower = xs[i + 1] if i + 1 < len(pts) else 0.0
        width = xs[i] - lower
        if width == 0.0:
            continue
        total += width * _hv(pts[: i + 1, 1:])
    return total
