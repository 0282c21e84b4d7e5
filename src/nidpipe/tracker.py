"""Predictor-corrector path tracking for polynomial homotopies.

``track_paths`` advances a batch of P paths together.  Each path keeps
its own t, step size, previous point, endgame flag and step count in
arrays; one stepping loop runs the secant predictor and the Newton
corrector on the paths still active, evaluating them as one stacked
call and solving their (P, n, n) Jacobians with one ``np.linalg.solve``.
Step control, the noise-floor tolerance and the endpoint classification
are decided path by path, as for a single path.  Every operation on a
path's data is elementwise, per row or per matrix, so a path's result
is bit-identical whether it is tracked alone, in a chunk or in the full
batch: reports do not depend on how the paths of a stage are split
among workers.

The corrector is the accuracy authority (a step is accepted only when
it converges within its iteration budget).  Endpoints are polished at
t=1 with a damped least-squares Newton so that paths running into
singular endpoints still return usable solutions.

Paths are always tracked in double.  ``refine_dd`` is the one
double-double code path: mixed-precision Newton on the target system
h(., 1), with the residual evaluated in double-double, the correction
solved in double and the point accumulated in double-double.  It
polishes ill-conditioned endpoints (condition above 1e4) and, in
double-double precision, every endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from .dd import cdd_add
from .linalg import SINGULARITY_TOL, condition_and_rank, newton_step
from .polynomials import PolySystem, _StackedEvaluator, jacobian

# residuals are meaningful only down to the cancellation noise of the
# evaluation; 50 ulps of the absolute-term scale is the practical floor
_NOISE_ULPS = 50.0 * 2.220446049250313e-16

REGULAR = "regular"
SINGULAR = "singular"

CONVERGED = "converged"
AT_INFINITY = "at_infinity"
SINGULAR_ENDPOINT = "singular_endpoint"
FAILED = "failed"

ZERO_SLACK = "zero_slack"
NONZERO_SLACK = "nonzero_slack"
NOT_APPLICABLE = "not_applicable"

ZERO_SLACK_TOL = 1e-8
CONVERGED_RESIDUAL = 1e-8

# a double-double Newton correction this far below the point's size
# is past the working precision: the iteration has converged
DD_CORRECTION_TOL = 2.0**-100


class Homotopy(Protocol):
    """h(x, t) at P points x of shape (P, n), each at its own t of shape (P,);
    ``target`` is the system h(., 1)."""

    dim: int
    target: PolySystem

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class LinearHomotopy:
    """h(x,t) = (1-t) * gamma * start(x) + t * target(x), row by row.

    With gamma a random unit-modulus constant this is the usual path
    deformation between two systems of the same shape; with
    start == target on all but one row it expresses homotopies where
    only designated coefficients move (cascade and membership steps).
    """

    start: PolySystem
    target: PolySystem
    gamma: complex = 1.0 + 0j

    def __post_init__(self):
        if self.start.nvars != self.target.nvars or len(self.start.polys) != len(
            self.target.polys
        ):
            raise ValueError("start and target systems must have the same shape")

    @property
    def dim(self) -> int:
        return self.start.nvars

    @cached_property
    def _stacked(self) -> tuple[_StackedEvaluator, ...]:
        """Value, Jacobian and magnitude evaluators with the rows of start
        followed by those of target: one call evaluates both systems."""
        s, g = self.start, self.target
        return (
            _StackedEvaluator.stack(s._evaluator(), g._evaluator()),
            _StackedEvaluator.stack(s._jac_evaluator(), g._jac_evaluator()),
            _StackedEvaluator.stack(s._abs_evaluator(), g._abs_evaluator()),
        )

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self._stacked[0](x).reshape(len(x), 2, -1)
        return ((1.0 - t) * self.gamma)[:, None] * v[:, 0] + t[:, None] * v[:, 1]

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self._stacked[1](x).reshape(len(x), 2, len(self.start.polys), self.dim)
        return ((1.0 - t) * self.gamma)[:, None, None] * v[:, 0] + t[:, None, None] * v[:, 1]

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Largest row sum of absolute term values of each system, blended
        like the values: the scale against which cancellation noise in
        eval must be judged."""
        v = self._stacked[2](np.abs(x).astype(np.complex128)).real.reshape(len(x), 2, -1)
        return (1.0 - t) * v[:, 0].max(axis=1) + t * v[:, 1].max(axis=1)


@dataclass(frozen=True)
class TrackParams:
    """Step control knobs; the defaults are the blackbox settings."""

    initial_step: float = 0.1
    min_step: float = 1e-8
    max_step: float = 0.2
    corrector_tol: float = 1e-10
    max_corrector_iters: int = 4
    max_steps: int = 2000
    infinity_threshold: float = 1e8
    endgame_start: float = 0.9
    endgame_contraction: float = 0.5
    # endpoint handling
    snap_remaining: float = 2e-8  # jump to t=1 once this close
    final_newton_iters: int = 40
    soft_infinity: float = 1e4  # failed final polish + coords above this => at infinity
    precision: str = "double"  # "double" | "double_double" (double-double endpoint polish)

    def __post_init__(self):
        if not (self.min_step < self.initial_step <= self.max_step):
            raise ValueError("need min_step < initial_step <= max_step")
        for name in ("corrector_tol", "min_step", "infinity_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Solution:
    """A solution point with its numerical quality measures."""

    coordinates: np.ndarray
    residual: float
    condition: float
    regularity: str = REGULAR
    slack_class: str = NOT_APPLICABLE

    def __post_init__(self):
        object.__setattr__(
            self, "coordinates", np.asarray(self.coordinates, dtype=np.complex128)
        )

    @property
    def is_regular(self) -> bool:
        return self.regularity == REGULAR


@dataclass(frozen=True)
class PathResult:
    status: str
    endpoint: Solution | None
    steps_used: int
    t_reached: float

    @property
    def succeeded(self) -> bool:
        return self.status in (CONVERGED, SINGULAR_ENDPOINT)


def _finite(x: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(x.view(np.float64))))


def _res_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _row_max_abs(v: np.ndarray) -> np.ndarray:
    """Infinity norm of each row of a (P, m) array."""
    return np.max(np.abs(v), axis=1)


# single-point evaluation through the batched interface (P = 1)


def _eval1(h: Homotopy, x: np.ndarray, t: float) -> np.ndarray:
    return h.eval(x[None], np.array([t]))[0]


def _jac1(h: Homotopy, x: np.ndarray, t: float) -> np.ndarray:
    return h.jac(x[None], np.array([t]))[0]


def _effective_tol(h: Homotopy, x: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    return np.fmax(tol, _NOISE_ULPS * h.eval_scale(x, t))


def _newton_steps(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton corrections -J^{-1} r for a stack of P systems: one stacked
    solve; a row whose solve fails or is not finite falls back to
    ``newton_step`` (least squares) on its own."""
    try:
        dx = np.linalg.solve(J, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([newton_step(Ji, ri) for Ji, ri in zip(J, r)])
    for i in np.flatnonzero(~np.isfinite(dx).all(axis=1)):
        dx[i] = newton_step(J[i], r[i])
    return dx


def _correct(h: Homotopy, x: np.ndarray, t: np.ndarray, tol: float, iters: int):
    """Newton iteration of each row of x (P, n) at its own fixed t (P,).

    Returns arrays (x, residual, iterations, ok).  A row stops once it
    converges or turns non-finite; only the rows still iterating are
    evaluated.  Convergence is judged against the larger of the
    requested tolerance and the evaluation noise floor at the row's
    point; an absolute tolerance alone stalls as soon as coordinates
    grow.
    """
    x = x.copy()
    r = h.eval(x, t)
    resid = _row_max_abs(r)
    tol_eff = _effective_tol(h, x, t, tol)
    its = np.full(len(x), iters)
    ok = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for it in range(iters):
        rl = resid[live]
        bad = ~np.isfinite(rl)
        good = ~bad & (rl <= tol_eff[live])
        stop = bad | good
        its[live[stop]] = it
        ok[live[good]] = True
        live = live[~stop]
        if not live.size:
            break
        xl, tl = x[live], t[live]
        xl = xl + _newton_steps(h.jac(xl, tl), r[live])
        x[live] = xl
        blown = ~np.isfinite(xl).all(axis=1)
        resid[live[blown]] = np.inf
        its[live[blown]] = it + 1
        live, xl, tl = live[~blown], xl[~blown], tl[~blown]
        if live.size:
            r[live] = h.eval(xl, tl)
            resid[live] = _row_max_abs(r[live])
    if live.size:  # out of iterations
        ok[live] = resid[live] <= _effective_tol(h, x[live], t[live], tol)
    return x, resid, its, ok


def _damped_newton(h: Homotopy, x: np.ndarray, t: float, tol: float, iters: int):
    """Damped Newton on one point that never accepts a residual increase.

    Uses least-squares steps so rank-deficient Jacobians (singular
    endpoints, points on positive dimensional sets) stay tame.
    """
    r = _eval1(h, x, t)
    resid = _res_norm(r)
    done = 0
    for _ in range(iters):
        if not np.isfinite(resid) or resid <= tol:
            break
        dx = newton_step(_jac1(h, x, t), r)
        lam = 1.0
        improved = False
        for _ in range(8):
            x_try = x + lam * dx
            r_try = _eval1(h, x_try, t)
            res_try = _res_norm(r_try)
            if np.isfinite(res_try) and res_try < resid:
                x, r, resid = x_try, r_try, res_try
                improved = True
                break
            lam *= 0.5
        done += 1
        if not improved:
            break
    return x, resid, done


def _endpoint_solution(h: Homotopy, x: np.ndarray, resid: float) -> Solution:
    cond, _ = condition_and_rank(_jac1(h, x, 1.0))
    reg = REGULAR if cond < 1.0 / SINGULARITY_TOL else SINGULAR
    return Solution(x, resid, cond, reg)


def _dd_polished(h: Homotopy, sol: Solution, steps: int, floor: float = 0.0) -> Solution:
    """The endpoint after a double-double polish at t=1, when that does
    not raise the residual above max(4 x the old one, floor)."""
    better = refine_dd(h.target, sol.coordinates, steps)
    resid = _res_norm(_eval1(h, better, 1.0))
    if np.isfinite(resid) and resid <= max(sol.residual * 4, floor):
        return _endpoint_solution(h, better, resid)
    return sol


def _finish(h, x, t_from, steps_used, params: TrackParams, entry_norm: float) -> PathResult:
    """Final correction at t=1 and endpoint classification of one path.

    The t=1 Newton polish is a *correction*: an endpoint that moved far
    from the tracked point is not this path's limit (diverging paths
    would otherwise get rescued onto some unrelated finite solution).
    Divergence that never crossed the hard coordinate threshold shows
    up as strong growth across the endgame combined with a failed
    polish.
    """
    norm_now = float(np.max(np.abs(x))) if _finite(x) else float("inf")
    move_cap = 0.05 * (1.0 + norm_now)
    x1, resid, _ = _damped_newton(h, x, 1.0, params.corrector_tol, params.final_newton_iters)
    moved = float(np.max(np.abs(x1 - x))) if _finite(x1) else float("inf")
    if np.isfinite(resid) and resid <= CONVERGED_RESIDUAL and moved <= move_cap:
        status, sol, t_reached = CONVERGED, _endpoint_solution(h, x1, resid), 1.0
        if sol.condition > 1e4:
            # near-multiple endpoints converge at linear rate 1/2, so a
            # handful of double-double steps must become a dozen to pull
            # a 1e-4 endpoint defect safely under the match tolerances
            sol = _dd_polished(h, sol, 14, 1e-14)
    else:
        growth = (norm_now + 1e-6) / (entry_norm + 1e-6)
        if norm_now > params.soft_infinity or growth >= 8.0:
            return PathResult(AT_INFINITY, None, steps_used, t_from)
        if not (np.isfinite(resid) and resid <= 1e-4 and moved <= move_cap):
            return PathResult(FAILED, None, steps_used, t_from)
        status, sol, t_reached = SINGULAR_ENDPOINT, _endpoint_solution(h, x1, resid), t_from
    if params.precision == "double_double":
        sol = _dd_polished(h, sol, 3)
    return PathResult(status, sol, steps_used, t_reached)


def track_paths(
    h: Homotopy,
    x0: np.ndarray,
    params: TrackParams = TrackParams(),
    traces: list[list] | None = None,
) -> list[PathResult]:
    """Track the P paths of h that start at the rows of x0 (P, n) from
    t=0 to t=1, all together; results come in row order.

    Each start point must satisfy h(x0, 0) = 0 (a correction at t=0 is
    applied first).  When given, ``traces`` holds one list per path,
    which receives (t, step, corrector_iterations) per accepted step.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    npaths = len(x0)
    if not npaths:
        return []
    results: list[PathResult | None] = [None] * npaths
    x, _, _, ok = _correct(h, x0, np.zeros(npaths), params.corrector_tol * 10, 3)
    for i in np.flatnonzero(~ok):
        results[i] = PathResult(FAILED, None, 0, 0.0)

    t = np.zeros(npaths)
    step = np.full(npaths, params.initial_step)
    prev_x = x.copy()
    prev_step = np.zeros(npaths)  # 0 until a step was accepted: no secant yet
    steps = np.zeros(npaths, dtype=int)
    entry_norm = _row_max_abs(x)
    in_endgame = np.zeros(npaths, dtype=bool)

    def finish(i):
        results[i] = _finish(h, x[i].copy(), float(t[i]), int(steps[i]), params, float(entry_norm[i]))

    def end(i):
        if in_endgame[i]:
            finish(i)
        else:
            results[i] = PathResult(FAILED, None, int(steps[i]), float(t[i]))

    active = np.flatnonzero(ok)
    while active.size:
        spent = steps[active] >= params.max_steps
        for i in active[spent]:
            end(i)
        active = active[~spent]
        entering = active[~in_endgame[active] & (t[active] >= params.endgame_start)]
        in_endgame[entering] = True
        entry_norm[entering] = _row_max_abs(x[entering])
        remaining = 1.0 - t[active]
        snap = remaining <= params.snap_remaining
        for i in active[snap]:
            finish(i)
        active, remaining = active[~snap], remaining[~snap]
        if not active.size:
            break

        steps[active] += 1
        hstep = np.minimum(np.minimum(step[active], params.max_step), remaining)
        hstep = np.where(
            in_endgame[active], np.minimum(hstep, params.endgame_contraction * remaining), hstep
        )
        t_try = t[active] + hstep
        t_try[1.0 - t_try < 1e-14] = 1.0
        xa, pa = x[active], prev_step[active]
        secant = pa > 0
        ratio = np.divide(hstep, pa, out=np.zeros_like(hstep), where=secant)
        x_pred = np.where(secant[:, None], xa + (xa - prev_x[active]) * ratio[:, None], xa)
        x_new, _, iters, ok = _correct(
            h, x_pred, t_try, params.corrector_tol, params.max_corrector_iters
        )

        far = ok.copy()
        far[ok] = _row_max_abs(x_new[ok]) > params.infinity_threshold
        for i, tt in zip(active[far], t_try[far]):
            results[i] = PathResult(AT_INFINITY, None, int(steps[i]), float(tt))
        accepted = ok & ~far
        acc = active[accepted]
        prev_x[acc], prev_step[acc] = xa[accepted], hstep[accepted]
        x[acc], t[acc] = x_new[accepted], t_try[accepted]
        if traces is not None:
            for i, hs, it in zip(acc, hstep[accepted], iters[accepted]):
                traces[i].append((float(t[i]), float(hs), int(it)))
        arrived = t[acc] >= 1.0
        for i in acc[arrived]:
            finish(i)
        grow = acc[~arrived & (iters[accepted] <= 2)]
        step[grow] = np.minimum(step[grow] * 2.0, params.max_step)

        rej = active[~ok]
        step[rej] = hstep[~ok] * 0.5
        stalled = step[rej] < params.min_step
        for i in rej[stalled]:
            end(i)
        active = np.sort(np.concatenate([acc[~arrived], rej[~stalled]]))
    return results


def track(
    h: Homotopy,
    x0: np.ndarray,
    params: TrackParams = TrackParams(),
    trace: list | None = None,
) -> PathResult:
    """Track one path: ``track_paths`` with a batch of one."""
    return track_paths(h, np.asarray(x0)[None], params, None if trace is None else [trace])[0]


def newton_refine(
    f: PolySystem,
    x,
    tol: float = 1e-12,
    max_iters: int = 10,
) -> Solution:
    """Damped Newton against a plain system; updates quality measures.

    If the residual cannot be decreased (four consecutive rejected
    damping attempts count as growth) the input point is returned with
    its measures recomputed rather than a worse point.
    """
    x = np.asarray(x, dtype=np.complex128)
    best, resid, _ = _damped_newton(LinearHomotopy(f, f), x, 1.0, tol, max_iters)
    cond, _ = condition_and_rank(jacobian(f, best))
    reg = REGULAR if cond < 1.0 / SINGULARITY_TOL else SINGULAR
    return Solution(best, resid, cond, reg)


def refine_dd(f: PolySystem, x, steps: int = 3) -> np.ndarray:
    """Mixed-precision Newton polish of a (possibly singular) root of f.

    The point is kept in double-double as (hi, lo).  Each step evaluates
    f there in double-double, rounds the residual to double, solves for
    the correction against the Jacobian at hi in double and adds it to
    (hi, lo) in double-double (Bates, Hauenstein, Sommese and Wampler,
    "Adaptive multiprecision path tracking", SIAM J. Numer. Anal. 2008).
    The residual is accurate although the solve is not, so the point
    converges past double precision.  Stops early once the correction
    falls below ``DD_CORRECTION_TOL`` of the point's size.  Returns the
    point rounded to double, or x itself when a step is not finite.
    """
    x = np.asarray(x, dtype=np.complex128)
    hi, lo = x[None], np.zeros((1, len(x)), dtype=np.complex128)
    for _ in range(steps):
        r, _ = f._evaluator().eval_dd(hi, lo)
        if not _finite(r):
            return x
        dx = newton_step(jacobian(f, hi[0]), r[0])
        hi, lo = cdd_add(hi, lo, dx[None], np.zeros_like(lo))
        if np.max(np.abs(dx)) <= DD_CORRECTION_TOL * np.max(np.abs(hi)):
            break
    return hi[0] if _finite(hi) else x


def classify(
    coords,
    n_original: int,
    infinity_threshold: float = 1e8,
    zero_tol: float = ZERO_SLACK_TOL,
) -> str:
    """Three-way slack classification of an endpoint.

    Coordinates beyond ``n_original`` are the slack variables; with no
    slacks every finite point counts as zero-slack.
    """
    coords = np.asarray(coords, dtype=np.complex128)
    if not _finite(coords) or float(np.max(np.abs(coords))) > infinity_threshold:
        return AT_INFINITY
    slacks = coords[n_original:]
    if slacks.size == 0 or float(np.max(np.abs(slacks))) < zero_tol:
        return ZERO_SLACK
    return NONZERO_SLACK
