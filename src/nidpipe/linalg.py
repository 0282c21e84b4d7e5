"""Dense linear algebra helpers: condition/rank estimates and the
Newton correction solve, all in double precision."""

from __future__ import annotations

import numpy as np

SINGULARITY_TOL = 1e-8


def condition_and_rank(J, tol: float = SINGULARITY_TOL, scale=None):
    """Condition estimate and numerical rank from singular values, of
    one matrix (m, n) as floats or of each of a stack (..., m, n) as
    arrays, from one stacked SVD.

    Rank counts singular values above ``tol`` times ``scale`` (per
    matrix when given as an array).  The default scale, the largest
    singular value, makes the rank invariant under uniform row or
    column scaling; a caller that knows how large the entries would be
    without cancellation passes that size instead.  A matrix that is
    not finite is measured as zero: condition inf and rank 0; a zero
    singular value also gives condition inf.
    """
    J = np.asarray(J, dtype=np.complex128)
    if 0 in J.shape[-2:]:
        raise ValueError("empty matrix")
    finite = np.isfinite(J).all(axis=(-2, -1))  # any other is measured as zero
    s = np.linalg.svd(np.where(finite[..., None, None], J, 0.0), compute_uv=False)
    smax, smin = s[..., 0], s[..., -1]
    rank = (s > tol * np.asarray(smax if scale is None else scale)[..., None]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smin > 0.0, smax / smin, np.inf)
    return (float(cond), int(rank)) if J.ndim == 2 else (cond, rank)


def newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J dx = -r; least squares when J is singular or rectangular.

    The minimum-norm solution keeps Newton stable near rank-deficient
    Jacobians (it moves transversally to a solution set instead of
    blowing up along near-null directions).
    """
    n, m = J.shape
    if n == m:
        try:
            dx = np.linalg.solve(J, -r)
            if np.all(np.isfinite(dx.view(np.float64))):
                return dx
        except np.linalg.LinAlgError:
            pass
    dx, *_ = np.linalg.lstsq(J, -r, rcond=1e-14)
    return dx

