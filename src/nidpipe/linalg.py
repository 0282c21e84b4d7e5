"""Dense linear algebra helpers: condition/rank estimates and the
Newton correction solve, all in double precision."""

from __future__ import annotations

import numpy as np

SINGULARITY_TOL = 1e-8


def condition_and_rank(J, tol: float = SINGULARITY_TOL, scale: float | None = None) -> tuple[float, int]:
    """Condition estimate and numerical rank from singular values.

    Rank counts singular values above ``tol`` times ``scale``.  The
    default scale, the largest singular value, makes the rank invariant
    under uniform row or column scaling; a caller that knows how large
    the entries would be without cancellation passes that size instead.
    """
    J = np.asarray(J, dtype=np.complex128)
    if J.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(J.view(np.float64))):
        return float("inf"), 0
    s = np.linalg.svd(J, compute_uv=False)
    smax = float(s[0])
    if smax == 0.0:
        return float("inf"), 0
    rank = int(np.sum(s > tol * (smax if scale is None else scale)))
    smin = float(s[min(J.shape) - 1])
    cond = float("inf") if smin == 0.0 else smax / smin
    return cond, rank


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

