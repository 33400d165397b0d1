"""Multiple-gradient descent: the min-norm point of a set of loss gradients.

The common-descent direction for m objectives is d = -(sum_i lambda_i g_i),
where lambda minimizes ||sum_i lambda_i g_i||^2 over the probability simplex.
That quadratic is solved exactly, for every m, by Wolfe's minimum-norm-point
algorithm (P. Wolfe, "Finding the nearest point in a polytope", Math.
Programming 1976) on the m x m Gram matrix. It keeps a corral, an affinely
independent set of gradients whose convex hull holds the current point. A
major cycle adds the gradient with the smallest inner product against the
current point; a minor cycle moves to the corral's affine minimizer, first
stepping toward it and dropping a gradient while that minimizer has a
nonpositive weight. It stops once the duality gap is rounding dust and
terminates in finitely many corral solves.

When the min-norm point is nonzero, every loss has directional derivative
<= -||u||^2 + gap along d, so a small enough step decreases all objectives;
when it is (near) zero the parameters are Pareto-stationary and the step
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DescentResult", "min_norm_point"]

DEFAULT_TOL = 1e-7
# Wolfe's algorithm terminates finitely in exact arithmetic; the cap only
# guards against cycling caused by rounding.
_MAX_ITER = 100


@dataclass(frozen=True)
class DescentResult:
    """Solution of the min-norm problem over the gradient hull.

    Attributes:
        weights: simplex weights lambda (nonnegative, summing to one).
        direction: the update direction, -(sum_i lambda_i g_i).
        combined_norm_sq: squared norm of the weighted gradient combination.
        gap: duality gap at the returned weights; certifies that every
            gradient satisfies g_i . (-direction) >= combined_norm_sq - gap.
        converged: whether that gap is at most DEFAULT_TOL.
        iterations: corral solves of Wolfe's algorithm.
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


def min_norm_point(gradients) -> DescentResult:
    """Minimize ||sum_i lambda_i g_i||^2 over simplex weights lambda.

    Args:
        gradients: (m, n) matrix, one loss gradient per row.

    Returns:
        DescentResult at the exact minimizer, up to rounding.

    Raises:
        ValueError: on empty or non-finite gradients, or when their Gram
            matrix overflows.
    """
    g = _as_gradients(gradients)
    if g.shape[0] == 1:
        # Single objective: plain gradient descent, bit for bit.
        return DescentResult(
            weights=np.ones(1),
            direction=-g[0],
            combined_norm_sq=float(g[0] @ g[0]),
            gap=0.0,
            converged=True,
            iterations=0,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        gram = g @ g.T
    if not np.isfinite(gram).all():
        raise ValueError("the Gram matrix of the gradients overflows")
    lam, iterations = _wolfe(gram)

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
        converged=gap <= DEFAULT_TOL,
        iterations=iterations,
    )


def _wolfe(gram: np.ndarray):
    """Wolfe's algorithm on f(lam) = lam' G lam over the simplex.

    Returns (weights, corral solves).
    """
    m = gram.shape[0]
    # Rounding in the Gram products scales with their entries, not with f.
    dust = 1e-12 * (1.0 + float(np.abs(gram).max()))
    start = int(np.argmin(np.diag(gram)))
    corral = [start]
    lam = np.zeros(m)
    lam[start] = 1.0
    iterations = 0
    while iterations < _MAX_ITER:
        grad = gram @ lam
        j = int(np.argmin(grad))
        if float(lam @ grad) - float(grad[j]) <= dust or j in corral:
            break
        corral.append(j)
        while iterations < _MAX_ITER:
            iterations += 1
            alpha = _affine_minimizer(gram[np.ix_(corral, corral)])
            if alpha.min() > 0.0:
                lam = np.zeros(m)
                lam[corral] = alpha
                break
            # Step from the current point toward the affine minimizer until
            # the first weight reaches zero, and drop that gradient.
            beta = lam[corral]
            out = alpha <= 0.0
            ratios = beta[out] / np.maximum(beta[out] - alpha[out], np.finfo(float).tiny)
            step = float(ratios.min())
            beta = beta + step * (alpha - beta)
            beta[np.flatnonzero(out)[int(np.argmin(ratios))]] = 0.0
            lam = np.zeros(m)
            lam[corral] = np.maximum(beta, 0.0)
            corral = [i for i in corral if lam[i] > 0.0]
    return lam, iterations


def _affine_minimizer(gram_s: np.ndarray) -> np.ndarray:
    """Weights summing to one that minimize alpha' G_S alpha.

    Solves the bordered system [[G_S, 1], [1', 0]] by least squares, which
    stays defined when rounding leaves the corral nearly affinely dependent.
    """
    k = gram_s.shape[0]
    bordered = np.ones((k + 1, k + 1))
    bordered[:k, :k] = gram_s
    bordered[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.lstsq(bordered, rhs, rcond=None)[0][:k]
