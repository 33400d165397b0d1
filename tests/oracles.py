"""Test oracles for `moprompt.geometry`, kept apart from the code they check.

`dominates` is the pairwise Pareto relation and `hypervolume_mc` a seeded
Monte-Carlo hypervolume estimate. Neither shares code with the exact path.
"""

from __future__ import annotations

import numpy as np


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
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    r = np.asarray(ref, dtype=float).ravel()
    if pts.ndim != 2 or pts.shape[1] != len(r):
        raise ValueError(f"points of shape {pts.shape} against a reference of length {len(r)}")
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
