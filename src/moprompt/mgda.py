"""Multiple-gradient descent: the min-norm point of a set of loss gradients.

The common-descent direction for m objectives is d = -(sum_i lambda_i g_i),
where lambda minimizes ||sum_i lambda_i g_i||^2 over the probability simplex.
That quadratic is solved in its dual form with Frank-Wolfe: at each iteration
the linear subproblem picks the gradient with the smallest inner product
against the current combination (ties broken by lowest index), and an exact
line search moves toward it. The duality gap gives a certified stopping rule.

Plain Frank-Wolfe converges only sublinearly when the optimum sits on a
face of the simplex, so for m <= 3 the minimizer is also computed exactly
(segment projection for pairs, face enumeration for triples) and returned
after a consistency check against the Frank-Wolfe path.

When the min-norm point is nonzero, every loss has directional derivative
<= -||u||^2 + tol along d, so a small enough step decreases all objectives;
when it is (near) zero the parameters are Pareto-stationary and the step
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["DescentResult", "min_norm_point"]

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 250


@dataclass(frozen=True)
class DescentResult:
    """Solution of the min-norm problem over the gradient hull.

    Attributes:
        weights: simplex weights lambda (nonnegative, summing to one).
        direction: the update direction, -(sum_i lambda_i g_i).
        combined_norm_sq: squared norm of the weighted gradient combination.
        gap: duality gap at the returned weights; certifies that every
            gradient satisfies g_i . (-direction) >= combined_norm_sq - gap.
        converged: whether the duality gap reached tolerance within max_iter.
        iterations: Frank-Wolfe line-search steps performed.
    """

    weights: np.ndarray
    direction: np.ndarray
    combined_norm_sq: float
    gap: float
    converged: bool
    iterations: int


def _as_gradients(gradients) -> np.ndarray:
    g = np.asarray(gradients, dtype=float)
    if g.ndim != 2 or g.shape[0] == 0 or g.shape[1] == 0:
        raise ValueError(f"expected a nonempty (m, n) gradient matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("gradients must be finite")
    return g


def min_norm_point(gradients, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> DescentResult:
    """Minimize ||sum_i lambda_i g_i||^2 over simplex weights lambda.

    Args:
        gradients: (m, n) matrix, one loss gradient per row.
        tol: duality-gap stopping tolerance; must be positive.
        max_iter: Frank-Wolfe iteration cap; exhaustion is reported via the
            `converged` flag, not an error.

    Returns:
        DescentResult with the best iterate found.

    Raises:
        ValueError: on empty or non-finite gradients, or bad tol/max_iter.
        RuntimeError: if the exact small-m solution and the Frank-Wolfe
            path disagree beyond tolerance (internal consistency check).
    """
    g = _as_gradients(gradients)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")

    m = g.shape[0]
    if m == 1:
        # Single objective: plain gradient descent, bit for bit.
        return DescentResult(
            weights=np.ones(1),
            direction=-g[0],
            combined_norm_sq=float(g[0] @ g[0]),
            gap=0.0,
            converged=True,
            iterations=0,
        )

    gram = g @ g.T
    lam, converged, iterations = _frank_wolfe(gram, tol, max_iter)[:3]

    if m <= 3:
        lam_exact = _pair_weights(gram) if m == 2 else _face_weights(gram)
        value_exact = float(lam_exact @ gram @ lam_exact)
        value_fw = float(lam @ gram @ lam)
        # The exact solution bounds Frank-Wolfe from below, while convexity
        # bounds a converged run by twice the gap tolerance above the
        # optimum. Rounding scales with the Gram entries, not the value.
        dust = 1e-12 * (1.0 + float(np.abs(gram).max()))
        too_low = value_fw < value_exact - dust
        too_high = converged and value_fw > value_exact + 2.0 * tol + dust
        if too_low or too_high:
            raise RuntimeError(
                "Frank-Wolfe disagrees with the closed-form small-m solution"
            )
        lam = lam_exact

    combined = lam @ g
    norm_sq = float(combined @ combined)
    # Recompute the gap at the weights actually returned so the certificate
    # in the docstring holds for this exact object.
    gap = max(0.0, norm_sq - float((gram @ lam).min()))
    return DescentResult(
        weights=lam,
        direction=-combined,
        combined_norm_sq=norm_sq,
        gap=gap,
        converged=converged,
        iterations=iterations,
    )


def _frank_wolfe(gram: np.ndarray, tol: float, max_iter: int):
    """Frank-Wolfe on f(lam) = lam' M lam over the simplex.

    Returns (best weights, converged, iterations, per-iterate f history).
    """
    m = gram.shape[0]
    lam = np.full(m, 1.0 / m)
    best_lam = lam
    best_f = np.inf
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(max_iter + 1):
        grad = gram @ lam
        f = float(lam @ grad)
        history.append(f)
        if f < best_f:
            best_f = f
            best_lam = lam
        j = int(np.argmin(grad))
        gap = f - float(grad[j])
        if gap <= tol:
            # Prefer the certified iterate; with exact line search it can
            # trail the best f seen only by rounding dust.
            converged = True
            best_lam = lam
            break
        if iterations == max_iter:
            break
        # Exact line search toward vertex j for this quadratic.
        denom = f - 2.0 * float(grad[j]) + float(gram[j, j])
        step = 1.0 if denom <= 0.0 else min(1.0, gap / denom)
        lam = (1.0 - step) * lam
        lam[j] += step
    best_lam = np.maximum(best_lam, 0.0)
    best_lam /= best_lam.sum()
    return best_lam, converged, iterations, history


def _pair_weights(gram: np.ndarray) -> np.ndarray:
    """Closed-form minimizer for two gradients: project the segment minimum."""
    denom = gram[0, 0] - 2.0 * gram[0, 1] + gram[1, 1]
    if denom <= 0.0:
        # ||g0 - g1||^2 = 0: the gradients coincide and every lam is optimal.
        return np.array([0.5, 0.5])
    t = min(1.0, max(0.0, (gram[0, 0] - gram[0, 1]) / denom))
    return np.array([1.0 - t, t])


def _face_weights(gram: np.ndarray) -> np.ndarray:
    """Exact minimizer for three gradients by enumerating simplex faces.

    The minimum is attained at a vertex, on an edge (the clamped segment
    projection solves those exactly, degenerate cases included), or at an
    interior stationary point found by the equality-constrained KKT
    system. A singular KKT system means the reduced Hessian has a null
    direction inside the constraint plane, so the minimizer set is a line
    that reaches the boundary and the edge candidates already carry the
    minimal value.
    """
    m = gram.shape[0]
    candidates = list(np.eye(m))
    for i, j in combinations(range(m), 2):
        pair = _pair_weights(gram[np.ix_([i, j], [i, j])])
        lam = np.zeros(m)
        lam[i], lam[j] = pair[0], pair[1]
        candidates.append(lam)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * gram
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        interior = np.linalg.solve(kkt, rhs)[:m]
    except np.linalg.LinAlgError:
        interior = None
    if interior is not None and np.isfinite(interior).all() and interior.min() >= -1e-12:
        lam = np.maximum(interior, 0.0)
        candidates.append(lam / lam.sum())
    values = [float(lam @ gram @ lam) for lam in candidates]
    return candidates[int(np.argmin(values))]
