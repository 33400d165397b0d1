"""Pareto fronts and hypervolume over reward point sets.

All routines treat objectives as maximization targets: a point is better when
every coordinate is at least as large and some coordinate is strictly larger.
The hypervolume of a set is the Lebesgue measure of the union of axis-aligned
boxes spanned between a reference point and each set member. Points falling
below the reference point in some coordinate are clamped to it, so they simply
contribute a degenerate box instead of raising.

The exact computation sweeps: a 2-d sweep over the first coordinate for two
objectives, a 3-d sweep for three, and recursive slicing on the first
coordinate for four or more. Every path performs the same floating-point
operations, in the same order, as slicing the distinct nondominated points
in descending lexicographic order and sweeping each slab's 2-d section.

Two-objective sets, including the 2-d sections of the slabs, go to the 2-d
sweep unfiltered: dominated and duplicate points never raise its running
maximum, so it adds exactly the terms it would add on the filtered front.

The 3-d sweep (after Kung, Luccio & Preparata, JACM 1975, and HV3D of
Fonseca, Paquete & Lopez-Ibanez, CEC 2006) sorts the points once, on the
first coordinate alone, descending. It keeps a staircase: the distinct
nondominated (y, z) projections of the points seen so far, y ascending and
z descending.

- A row is skipped when some step is at least as large in both y and z:
  every earlier row is at least as large in x, so such a step comes from a
  point that dominates or repeats it. No separate filter runs. Any other
  row replaces the steps it covers.
- Within a group of rows with equal x every slab width is 0, so no area is
  added whatever their order, and the staircase after the group, the
  maximal (y, z) projections of all rows so far, does not depend on it. So
  the additions match descending lexicographic order's term for term.
- The slab below a front point is covered by the front points before it.
  The 2-d sweep of the slab's section adds area only at the distinct
  nondominated (y, z) points among them, in descending y, and those are the
  staircase's steps. Walking the staircase from the top therefore repeats
  the sweep's additions term by term, and the slab sum keeps slicing's order
  and its zero-width skips.

`hypervolumes` validates, clamps and masks a (k, n, m) stack once; at m = 3
one argsort orders every set, with masked rows keyed +inf so that they sort
last and a per-set count cuts them off.

The nondominated filter for four or more objectives and for `pareto_front`
is vectorized: after collapsing duplicates it builds the "at least as large
in every coordinate" relation one block of candidate columns at a time, so
memory stays O(n * block) rather than O(n^2 * m).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

__all__ = ["pareto_front", "hypervolume", "hypervolumes"]


def _as_ref(ref, m: int) -> np.ndarray:
    r = np.asarray(ref, dtype=float).ravel()
    if r.shape[0] != m:
        raise ValueError(f"reference point has dimension {r.shape[0]}, points have {m}")
    if not np.isfinite(r).all():
        raise ValueError("reference point must be finite")
    return r


def pareto_front(points) -> np.ndarray:
    """Return the nondominated subset of `points` with duplicates collapsed.

    Args:
        points: (n, m) array-like of reward vectors; the empty set is valid.

    Returns:
        (k, m) array of the distinct nondominated points, in sorted order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0 and pts.ndim <= 2:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d array of points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
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
    pts = np.asarray(points, dtype=float)
    if pts.size == 0 and pts.shape[-1] == 0:
        return 0.0  # no dimension to check ref against, as for []
    return float(hypervolumes(pts[None], ref)[0])


def hypervolumes(stack, ref) -> np.ndarray:
    """`hypervolume` of each (n, m) set of a (k, n, m) stack, as a (k,) array.

    Raises:
        ValueError: as `hypervolume` does, and on a stack not (k, n, m >= 1).
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3 or arr.shape[2] == 0:
        raise ValueError(f"expected a (k, n, m >= 1) stack of point sets, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    r = _as_ref(ref, arr.shape[2])
    shifted = np.maximum(arr, r) - r
    keep = (shifted > 0.0).all(axis=2)
    if arr.shape[2] != 3:
        return np.array([_hv(s[kp]) if kp.any() else 0.0 for s, kp in zip(shifted, keep)])
    order = np.where(keep, -shifted[:, :, 0], np.inf).argsort(axis=1)
    cols = np.take_along_axis(shifted.transpose(0, 2, 1), order[:, None, :], axis=2).tolist()
    counts = keep.sum(axis=1).tolist()
    return np.array([_sweep_3d(*(c[:n] for c in xyz)) if n else 0.0 for xyz, n in zip(cols, counts)])


def _hv(pts: np.ndarray) -> float:
    # pts: strictly positive coordinates, measured against the origin; may
    # hold dominated and duplicate points.
    m = pts.shape[1]
    if m == 1:
        return float(pts.max())
    if m == 2:
        return _hv_sweep_2d(pts)
    if m == 3:  # three column lists iterate faster than n row lists
        return _sweep_3d(*pts[np.argsort(-pts[:, 0])].T.tolist())
    return _hv_slice(_nondominated(pts)[::-1])  # descending lexicographic order


def _hv_sweep_2d(pts: np.ndarray) -> float:
    # Descending sweep over x; a point adds area only where its y exceeds
    # the running maximum. Ties broken by descending y, so a tied x adds its
    # area in one term rather than in parts that round differently. Python
    # floats are IEEE doubles, as numpy's float64 scalars are, and iterate faster.
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    area = 0.0
    best_y = 0.0
    for x, y in pts[order].tolist():
        if y > best_y:
            area += x * (y - best_y)
            best_y = y
    return float(area)


def _sweep_3d(*cols: list) -> float:
    # One pass in descending x over a (y, z) staircase; see the module
    # docstring for why it matches slicing the filtered front.
    ys: list[float] = []
    zs: list[float] = []
    total = 0.0
    x_prev = cols[0][0]
    for x, y, z in zip(*cols):
        i = bisect_left(ys, y)
        if i < len(ys) and zs[i] >= z:
            continue  # dominated, or a repeat
        width = x_prev - x
        if width != 0.0:
            total += width * _staircase_area(ys, zs)
        x_prev = x
        # Replace the steps this point covers: y no larger, z no larger.
        j = bisect_right(ys, y)
        k = i
        while k > 0 and zs[k - 1] <= z:
            k -= 1
        ys[k:j] = [y]
        zs[k:j] = [z]
    # The last slab reaches down to the origin.
    return total + x_prev * _staircase_area(ys, zs)


def _staircase_area(ys: list[float], zs: list[float]) -> float:
    # The 2-d sweep's sum over the staircase, in descending y.
    area = 0.0
    best_z = 0.0
    for y, z in zip(reversed(ys), reversed(zs)):
        area += y * (z - best_z)
        best_z = z
    return area


def _hv_slice(pts: np.ndarray) -> float:
    # Integrate (m-1)-dimensional cross sections along the first coordinate
    # of a distinct nondominated set in descending lexicographic order. The
    # slab between consecutive first coordinates is covered exactly by the
    # points at or above its upper face.
    xs = pts[:, 0].tolist()
    total = 0.0
    for i in range(len(pts)):
        lower = xs[i + 1] if i + 1 < len(pts) else 0.0
        width = xs[i] - lower
        if width == 0.0:
            continue
        total += width * _hv(pts[: i + 1, 1:])
    return total
