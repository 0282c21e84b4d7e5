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
it converges within its iteration budget).  A path that stops keeps its
state; after the stepping loop, the paths that ended at t=1 or stopped
in the endgame are polished at t=1 in one stacked pass (``_finish``)
with a damped least-squares Newton, row by row, so that paths running
into singular endpoints still return usable solutions.  The same
stacked Newton refines a stack of points against a plain system
(``newton_refine``).  A homotopy may give each path its own target
(``SliceHomotopy``), so the tracker evaluates a subset of paths through
``select``.

Paths are tracked in double with one fixed step-control recipe, the
module constants below; the tracker takes no options.  A rejected step
halves; an accepted one doubles the next step when its corrector
converged in fewer than ``MAX_CORRECTOR_ITERS`` iterations (at most
``GROW_ITERS``: a quadratic Newton needs 3 for the 1e-10 tolerance from
a secant prediction) and keeps its size otherwise, always capped by
``MAX_STEP``, the remaining t and, in the endgame, a share of it.

Larger steps make a jump from one path to a nearby one more likely.
Two paths of one homotopy cannot end on the same regular root, so
``guard_jumps`` looks, after a stage is tracked and gathered, for
converged regular endpoints that coincide under the ``matching``
rule, and tracks those paths again under the cautious rule of growing
only after at most ``CAUTIOUS_GROW_ITERS`` iterations: the private
``_cautious`` argument of ``track_paths``.  With the gamma
trick every path stays finite for t < 1 with probability one, so
nothing cuts a path off in mid-path: a path is at infinity only by its
endpoint, when the t=1 polish fails and the point is large or grew
across the endgame (``_finish``), or when the refined endpoint
classifies at infinity (``classify``).

``refine_dd`` is the one double-double code path: Newton on a system
with the residual evaluated in double-double, the correction solved in
double and the point accumulated in double-double, for a stack of
points.  One call polishes a stage's converged endpoints with condition
above 1e4, after its stepping loop; a run asked for double-double
output polishes each point it reports with it once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Protocol

import numpy as np

from .dd import cdd_add
from .linalg import SINGULARITY_TOL, condition_and_rank, newton_step
from .polynomials import PolySystem, _StackedEvaluator

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

ZERO_SLACK_TOL = 1e-8
CONVERGED_RESIDUAL = 1e-8

# step control of every path: the blackbox's one fixed recipe
INITIAL_STEP = 0.1
MIN_STEP = 1e-8
MAX_STEP = 0.2
CORRECTOR_TOL = 1e-10
MAX_CORRECTOR_ITERS = 4
GROW_ITERS = MAX_CORRECTOR_ITERS - 1  # the next step doubles after at most this many
CAUTIOUS_GROW_ITERS = 2  # ... and after at most this many on a re-tracked path
MAX_STEPS = 2000
ENDGAME_START = 0.9
ENDGAME_CONTRACTION = 0.5
# endpoint handling
SNAP_REMAINING = 2e-8  # jump to t=1 once this close
FINAL_NEWTON_ITERS = 40
SOFT_INFINITY = 1e4  # failed final polish + coordinates above this => at infinity
INFINITE_ENDPOINT = 1e8  # a refined endpoint this large classifies as at infinity

# a polish is a correction only while it moves a point x by at most
# this share of 1 + |x|: farther, it slides along a solution set or
# diverges, and the point it reaches is not the limit of x
MOVE_CAP = 0.05

# two endpoints are one point when every coordinate differs by at most
# MATCH_TOL times the larger of 1 and the point's size, or MATCH_FLOOR
MATCH_TOL = 1e-6
MATCH_FLOOR = 1e-8

# a double-double Newton correction this far below the point's size
# is below what double-double resolves: the iteration has converged
DD_CORRECTION_TOL = 2.0**-100


class Homotopy(Protocol):
    """h(x, t) at P points x of shape (P, n), each at its own t of shape (P,);
    h(., 1) is ``target`` plus, unless None, row i of ``shift`` on path
    i.  ``select(idx)`` is the homotopy of the paths idx alone."""

    target: PolySystem
    shift: np.ndarray | None

    def select(self, idx) -> "Homotopy": ...

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class LinearHomotopy:
    """h(x,t) = (1-t) * gamma * start(x) + t * target(x), row by row.

    With gamma a random unit-modulus constant this is the usual path
    deformation between two systems of the same shape; with
    start == target on all but one row it expresses homotopies where
    only designated coefficients move (cascade steps).  Every path has
    the same target.
    """

    start: PolySystem
    target: PolySystem
    gamma: complex = 1.0 + 0j
    shift = None

    def __post_init__(self):
        if self.start.nvars != self.target.nvars or len(self.start.polys) != len(
            self.target.polys
        ):
            raise ValueError("start and target systems must have the same shape")

    @property
    def dim(self) -> int:
        return self.start.nvars

    def select(self, idx) -> "LinearHomotopy":
        return self

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
        v = self._stacked[0](x).reshape(len(x), 2, len(self.start.polys))
        return ((1.0 - t) * self.gamma)[:, None] * v[:, 0] + t[:, None] * v[:, 1]

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self._stacked[1](x).reshape(len(x), 2, len(self.start.polys), self.dim)
        return ((1.0 - t) * self.gamma)[:, None, None] * v[:, 0] + t[:, None, None] * v[:, 1]

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Largest row sum of absolute term values of each system, blended
        like the values: the scale against which cancellation noise in
        eval must be judged."""
        v = self._stacked[2](np.abs(x).astype(np.complex128)).real.reshape(len(x), 2, len(self.start.polys))
        return (1.0 - t) * v[:, 0].max(axis=1) + t * v[:, 1].max(axis=1)


@dataclass(frozen=True, eq=False)
class SliceHomotopy:
    """h_i(x, t) = target(x) + t * shift[i]: path i moves the constant
    terms of target's rows by the row shift[i] of a (P, m) array.  A
    membership test moves the hyperplanes of a witness set through a
    candidate this way (Sommese, Verschelde and Wampler, SIAM J. Numer.
    Anal. 38, 2001), so the paths of many candidates are one batch."""

    target: PolySystem
    shift: np.ndarray

    def select(self, idx) -> "SliceHomotopy":
        return SliceHomotopy(self.target, self.shift[idx])

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.target._evaluator()(x) + t[:, None] * self.shift

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.target._jac_evaluator()(x).reshape(len(x), len(self.target.polys), self.target.nvars)

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self.target._abs_evaluator()(np.abs(x).astype(np.complex128)).real
        return np.max(v + t[:, None] * np.abs(self.shift), axis=1)


@dataclass(frozen=True)
class Solution:
    """A solution point with its numerical quality measures."""

    coordinates: np.ndarray
    residual: float
    condition: float
    regularity: str = REGULAR

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


def _row_max_abs(v: np.ndarray) -> np.ndarray:
    """Infinity norm over the last axis: of each row of a (P, m) array."""
    return np.max(np.abs(v), axis=-1)


def _match_tol(b: np.ndarray) -> np.ndarray:
    return np.maximum(MATCH_FLOOR, MATCH_TOL * np.maximum(1.0, _row_max_abs(b)))


def matching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether the points a match the points b, over the last axis of
    arrays that broadcast: every coordinate of a lies within MATCH_TOL
    times the larger of 1 and b's size, or MATCH_FLOOR, of b's.  The
    one rule by which two points are one point."""
    return _row_max_abs(a - b) <= _match_tol(b)


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
        xl = xl + _newton_steps(h.select(live).jac(xl, tl), r[live])
        x[live] = xl
        blown = ~np.isfinite(xl).all(axis=1)
        resid[live[blown]] = np.inf
        its[live[blown]] = it + 1
        live, xl, tl = live[~blown], xl[~blown], tl[~blown]
        if live.size:
            r[live] = h.select(live).eval(xl, tl)
            resid[live] = _row_max_abs(r[live])
    if live.size:  # out of iterations
        ok[live] = resid[live] <= _effective_tol(h.select(live), x[live], t[live], tol)
    return x, resid, its, ok


def _damped_newton(h: Homotopy, x: np.ndarray, tol: float, iters: int):
    """Damped Newton at t=1 on each row of x (P, n); never accepts a
    residual increase.  A row stops on its own, so its bits do not
    depend on the others: once it converges or turns non-finite, or
    when none of 8 halvings of its step lowers its residual.

    Uses least-squares steps so rank-deficient Jacobians (singular
    endpoints, points on positive dimensional sets) stay tame.  Returns
    the points and their residuals.
    """
    x = x.copy()
    one = np.ones(len(x))
    r = h.eval(x, one)
    resid = _row_max_abs(r)
    live = np.arange(len(x))
    for _ in range(iters):
        live = live[np.isfinite(resid[live]) & (resid[live] > tol)]
        if not live.size:
            break
        dx = _newton_steps(h.select(live).jac(x[live], one[live]), r[live])
        lam = 1.0
        trying = np.arange(len(live))  # the rows of live whose step is not yet taken
        for _ in range(8):
            i = live[trying]
            x_try = x[i] + lam * dx[trying]
            r_try = h.select(i).eval(x_try, one[i])
            res_try = _row_max_abs(r_try)
            better = np.isfinite(res_try) & (res_try < resid[i])
            took = i[better]
            x[took], r[took], resid[took] = x_try[better], r_try[better], res_try[better]
            trying = trying[~better]
            if not trying.size:
                break
            lam *= 0.5
        live = np.delete(live, trying)
    return x, resid


def _solutions(f: PolySystem, x: np.ndarray, resid) -> list[Solution]:
    """The rows of x (P, n) as roots of f with residuals resid, each with
    the condition of its Jacobian, all from one stacked Jacobian and one
    ``condition_and_rank`` call."""
    cond, _ = condition_and_rank(f._jac_evaluator()(x).reshape(len(x), len(f.polys), f.nvars))
    return [
        Solution(xi, float(r), float(c), REGULAR if c < 1.0 / SINGULARITY_TOL else SINGULAR)
        for xi, r, c in zip(x, resid, cond)
    ]


def _dd_polished(f: PolySystem, sols: list, steps: int, floor=0.0, shift=None) -> list:
    """Each of sols after a double-double polish on f (plus its row of
    shift), where that does not raise its residual above max(4 x the
    old one, floor); one batched ``refine_dd`` call."""
    if not sols:
        return []
    better = refine_dd(f, np.array([s.coordinates for s in sols]), steps, shift)
    values = f._evaluator()(better)
    resid = _row_max_abs(values if shift is None else values + shift)
    took = np.flatnonzero(np.isfinite(resid) & (resid <= np.maximum(4 * np.array([s.residual for s in sols]), floor)))
    polished = dict(zip(took.tolist(), _solutions(f, better[took], resid[took])))
    return [polished.get(i, s) for i, s in enumerate(sols)]


def _finish(h, x, steps, entry_norm) -> list[PathResult]:
    """Final correction at t=1 and endpoint classification, in one
    stacked pass, of the paths of a batch that end at the rows of x
    (P, n): ``track_paths`` calls it once, after its stepping loop.
    ``steps`` gives each path's step count and ``entry_norm`` its size
    on entering the endgame.  Every status is decided at t=1, so every
    result reaches t=1.

    The t=1 Newton polish is a *correction*: an endpoint that moved far
    from the tracked point is not this path's limit (diverging paths
    would otherwise get rescued onto some unrelated finite solution).
    A path is at infinity when its polish fails and it is either large
    or grew strongly across the endgame.
    """
    norm_now = np.where(np.isfinite(x).all(axis=1), _row_max_abs(x), np.inf)
    move_cap = MOVE_CAP * (1.0 + norm_now)
    x1, resid = _damped_newton(h, x, CORRECTOR_TOL, FINAL_NEWTON_ITERS)
    moved = np.where(np.isfinite(x1).all(axis=1), _row_max_abs(x1 - x), np.inf)
    near = np.isfinite(resid) & (moved <= move_cap)
    growth = (norm_now + 1e-6) / (entry_norm + 1e-6)
    large = (norm_now > SOFT_INFINITY) | (growth >= 8.0)
    status = np.select(  # the first rule that holds decides
        [near & (resid <= CONVERGED_RESIDUAL), large, near & (resid <= 1e-4)],
        [CONVERGED, AT_INFINITY, SINGULAR_ENDPOINT],
        FAILED,
    )
    ends = np.flatnonzero(np.isin(status, (CONVERGED, SINGULAR_ENDPOINT)))
    sols = dict(zip(ends.tolist(), _solutions(h.target, x1[ends], resid[ends])))
    return [PathResult(s, sols.get(i), int(n), 1.0) for i, (s, n) in enumerate(zip(status.tolist(), steps))]


def track_paths(
    h: Homotopy,
    x0: np.ndarray,
    traces: list[list] | None = None,
    _cautious: bool = False,
) -> list[PathResult]:
    """Track the P paths of h that start at the rows of x0 (P, n) from
    t=0 to t=1, all together; results come in row order.

    Each start point must satisfy h(x0, 0) = 0 (a correction at t=0 is
    applied first).  When given, ``traces`` holds one list per path,
    which receives (t, step, corrector_iterations) per accepted step.
    The step of a path doubles after an accepted step that did not
    arrive and took at most ``GROW_ITERS`` corrector iterations, or
    ``CAUTIOUS_GROW_ITERS`` with ``_cautious``: the rule under which
    ``guard_jumps`` tracks a jumped path again, and no user option.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    npaths = len(x0)
    if not npaths:
        return []
    x, _, _, ok = _correct(h, x0, np.zeros(npaths), CORRECTOR_TOL * 10, 3)
    grow_iters = CAUTIOUS_GROW_ITERS if _cautious else GROW_ITERS
    t = np.zeros(npaths)
    step = np.full(npaths, INITIAL_STEP)
    prev_x = x.copy()
    prev_step = np.zeros(npaths)  # 0 until a step was accepted: no secant yet
    steps = np.zeros(npaths, dtype=int)
    entry_norm = _row_max_abs(x)
    in_endgame = np.zeros(npaths, dtype=bool)

    active = np.flatnonzero(ok)  # a path that stops keeps its x, t, steps and endgame flag
    while active.size:
        active = active[steps[active] < MAX_STEPS]
        entering = active[~in_endgame[active] & (t[active] >= ENDGAME_START)]
        in_endgame[entering] = True
        entry_norm[entering] = _row_max_abs(x[entering])
        remaining = 1.0 - t[active]
        snap = remaining <= SNAP_REMAINING
        active, remaining = active[~snap], remaining[~snap]
        if not active.size:
            break

        steps[active] += 1
        hstep = np.minimum(np.minimum(step[active], MAX_STEP), remaining)
        hstep = np.where(
            in_endgame[active], np.minimum(hstep, ENDGAME_CONTRACTION * remaining), hstep
        )
        t_try = t[active] + hstep
        t_try[1.0 - t_try < 1e-14] = 1.0
        xa, pa = x[active], prev_step[active]
        secant = pa > 0
        ratio = np.divide(hstep, pa, out=np.zeros_like(hstep), where=secant)
        x_pred = np.where(secant[:, None], xa + (xa - prev_x[active]) * ratio[:, None], xa)
        x_new, _, iters, ok = _correct(
            h.select(active), x_pred, t_try, CORRECTOR_TOL, MAX_CORRECTOR_ITERS
        )

        acc = active[ok]
        prev_x[acc], prev_step[acc] = xa[ok], hstep[ok]
        x[acc], t[acc] = x_new[ok], t_try[ok]
        if traces is not None:
            for i, hs, it in zip(acc, hstep[ok], iters[ok]):
                traces[i].append((float(t[i]), float(hs), int(it)))
        arrived = t[acc] >= 1.0
        grow = acc[~arrived & (iters[ok] <= grow_iters)]
        step[grow] = np.minimum(step[grow] * 2.0, MAX_STEP)

        rej = active[~ok]
        step[rej] = hstep[~ok] * 0.5
        active = np.sort(np.concatenate([acc[~arrived], rej[step[rej] >= MIN_STEP]]))
    # the paths at t=1 and those that stopped in the endgame end at t=1;
    # every other path, its start correction failed included, failed
    results = [PathResult(FAILED, None, int(n), float(ti)) for n, ti in zip(steps, t)]
    end = np.flatnonzero(in_endgame | (t >= 1.0))
    for i, r in zip(end, _finish(h.select(end), x[end], steps[end], entry_norm[end])):
        results[i] = r
    # near-multiple endpoints converge at linear rate 1/2, so a handful
    # of double-double steps must become a dozen to pull a 1e-4 endpoint
    # defect safely under the match tolerances
    ill = [i for i, r in enumerate(results) if r.status == CONVERGED and r.endpoint.condition > 1e4]
    sols = [results[i].endpoint for i in ill]
    for i, sol in zip(ill, _dd_polished(h.target, sols, 14, 1e-14, h.select(ill).shift)):
        results[i] = replace(results[i], endpoint=sol)
    return results


def _coinciding(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Mask of the rows of points (P, n) that match another row of the
    same group, ``matching`` either way.  The rows are sorted by group
    and by a real projection with unit weights, which two matching rows
    cannot differ in by more than n times the largest tolerance, and
    each row is compared with the rows after it up to that distance: no
    P x P array."""
    key = (points @ np.exp(1j * np.arange(1, points.shape[1] + 1))).real
    reach = points.shape[1] * _match_tol(points).max()
    order = np.lexsort((key, groups))
    points, groups, key = points[order], groups[order], key[order]
    hit = np.zeros(len(points), dtype=bool)
    for s in range(1, len(points)):
        near = np.flatnonzero((groups[s:] == groups[:-s]) & (key[s:] - key[:-s] <= reach))
        if not near.size:  # sorted keys: no row farther apart is nearer
            break
        a, b = points[near], points[near + s]
        same = near[matching(a, b) | matching(b, a)]
        hit[same] = hit[same + s] = True
    out = np.empty_like(hit)
    out[order] = hit
    return out


def _jumped(results: list[PathResult], groups) -> np.ndarray:
    """Indices of the converged paths whose regular endpoint coincides
    with another's of the same group."""
    idx = np.array(
        [i for i, r in enumerate(results) if r.status == CONVERGED and r.endpoint.is_regular],
        dtype=int,
    )
    if len(idx) < 2:
        return idx[:0]
    points = np.array([results[i].endpoint.coordinates for i in idx])
    return idx[_coinciding(points, np.zeros(len(idx), int) if groups is None else groups[idx])]


def guard_jumps(results: list[PathResult], retrack, groups=None) -> tuple[list[PathResult], int]:
    """The results of one stage with the paths that jumped tracked again,
    and the number of paths whose endpoints still coincide.

    Paths of one homotopy, or of one group of paths (``groups[i]`` for
    path i) that share a target, cannot end on the same regular root:
    when two do, a path jumped.  ``retrack(idx)`` tracks the paths idx
    again under the cautious rule (see ``retracker``).  The check sorts
    the endpoints and runs on a whole gathered stage, so its outcome
    does not depend on how the stage was split among workers."""
    groups = None if groups is None else np.asarray(groups)
    jumped = _jumped(results, groups)
    if not jumped.size:
        return results, 0
    results = list(results)
    for i, r in zip(jumped, retrack(jumped)):
        results[i] = r
    return results, len(_jumped(results, groups))


def retracker(h: Homotopy, x0: np.ndarray):
    """The ``retrack`` of ``guard_jumps`` for the paths of h from the rows of x0."""
    return lambda idx: track_paths(h.select(idx), x0[idx], _cautious=True)


def track(h: Homotopy, x0: np.ndarray, trace: list | None = None) -> PathResult:
    """Track one path: ``track_paths`` with a batch of one."""
    return track_paths(h, np.asarray(x0)[None], None if trace is None else [trace])[0]


def newton_refine(
    f: PolySystem,
    x,
    tol: float = 1e-12,
    max_iters: int = 10,
) -> list[Solution]:
    """Damped Newton against a plain system on each row of the stack x
    (P, n), in one pass; one ``Solution``, with its quality measures,
    per row.

    A row whose residual none of 8 halvings of its Newton step lowers
    stops where it is, with its measures recomputed, rather than at a
    worse point.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(len(x), f.nvars)
    at_rest = SliceHomotopy(f, np.zeros((len(x), len(f.polys))))  # f alone: one evaluation a call
    return _solutions(f, *_damped_newton(at_rest, x, tol, max_iters))


def vanishing(f: PolySystem, points: list[Solution]) -> list[Solution]:
    """The points whose first f.nvars coordinates are a root of f, to the
    tracker's converged residual, scaled like a corrector tolerance."""
    if not points:
        return []
    h = SliceHomotopy(f, np.zeros((1, len(f.polys))))  # f alone: one evaluation a call
    x, t = np.array([s.coordinates[: f.nvars] for s in points]), np.ones(len(points))
    keep = _row_max_abs(h.eval(x, t)) <= _effective_tol(h, x, t, CONVERGED_RESIDUAL)
    return [s for s, k in zip(points, keep) if k]


def refine_dd(f: PolySystem, x: np.ndarray, steps: int = 3, shift=None) -> np.ndarray:
    """Double/double-double Newton polish of (possibly singular) roots
    x (P, n) of f, or of f + shift[i] for row i when shift is given.

    Each point is kept in double-double as (hi, lo).  A step evaluates
    f there in double-double, rounds the residual to double, solves for
    the correction against the Jacobian at hi in double and adds it to
    (hi, lo) in double-double (Bates, Hauenstein, Sommese and Wampler,
    SIAM J. Numer. Anal. 46, 2008), so the point converges past what
    double resolves.  A row stops on its own, so its bits do not depend
    on the others: early once its correction is below
    ``DD_CORRECTION_TOL`` of its size, and as it was when a step is not
    finite or it moved from x by more than ``MOVE_CAP`` times 1 + |x|.
    Returns the points rounded to double.
    """
    x = np.asarray(x, dtype=np.complex128)
    cap = MOVE_CAP * (1.0 + _row_max_abs(x))
    hi, lo, out = x.copy(), np.zeros_like(x), x.copy()
    live = np.arange(len(x))
    for _ in range(steps):
        if not live.size:
            break
        r, r_lo = f._evaluator().eval_dd(hi[live], lo[live])
        if shift is not None:
            r, _ = cdd_add(r, r_lo, shift[live], np.zeros_like(r))
        finite = np.isfinite(r).all(axis=1)
        live, r = live[finite], r[finite]
        if not live.size:
            break
        J = f._jac_evaluator()(hi[live]).reshape(len(live), len(f.polys), f.nvars)
        dx = _newton_steps(J, r)
        hi[live], lo[live] = cdd_add(hi[live], lo[live], dx, np.zeros_like(dx))
        near = _row_max_abs(hi[live] - x[live]) <= cap[live]  # False also when not finite
        live, dx = live[near], dx[near]
        done = _row_max_abs(dx) <= DD_CORRECTION_TOL * _row_max_abs(hi[live])
        out[live[done]] = hi[live[done]]
        live = live[~done]
    out[live] = hi[live]
    return out


def classify(coords, n_original: int) -> str:
    """Three-way slack classification of an endpoint.

    Coordinates beyond ``n_original`` are the slack variables; with no
    slacks every finite point counts as zero-slack.
    """
    coords = np.asarray(coords, dtype=np.complex128)
    if not np.isfinite(coords).all() or float(np.max(np.abs(coords))) > INFINITE_ENDPOINT:
        return AT_INFINITY
    slacks = coords[n_original:]
    if slacks.size == 0 or float(np.max(np.abs(slacks))) < ZERO_SLACK_TOL:
        return ZERO_SLACK
    return NONZERO_SLACK
