"""Path tracking, Newton refinement, and endpoint classification."""

import numpy as np
import pytest

from nidpipe import tracker
from nidpipe.polynomials import PolySystem, make_poly, residual
from nidpipe.systems import cyclic, demo_system, embed
from nidpipe.tracker import (
    AT_INFINITY,
    CONVERGED,
    FAILED,
    NONZERO_SLACK,
    SINGULAR,
    ZERO_SLACK,
    LinearHomotopy,
    SliceHomotopy,
    classify,
    newton_refine,
    refine_dd,
    track,
    track_paths,
)


def linear_system(rows, nvars):
    polys = []
    for row in rows:
        terms = [((0,) * nvars, row[0])]
        for j in range(nvars):
            expo = [0] * nvars
            expo[j] = 1
            terms.append((tuple(expo), row[j + 1]))
        polys.append(make_poly(nvars, terms))
    return PolySystem(nvars, tuple(polys))


def eq6_system():
    return PolySystem(
        2,
        (
            make_poly(2, [((2, 0), 1), ((1, 0), -3), ((0, 0), 2)]),
            make_poly(2, [((1, 2), 1), ((0, 2), -1)]),
        ),
    )


def test_identity_homotopy_returns_start():
    f = cyclic(3)
    h = LinearHomotopy(f, f)
    root = np.array([1.0, -0.5 + 0.8660254037844387j, -0.5 - 0.8660254037844387j])
    r = track(h, root)
    assert r.status == CONVERGED
    assert np.max(np.abs(r.endpoint.coordinates - root)) < 1e-10


@pytest.mark.parametrize("gamma, bound", [(0.6 + 0.8j, 1e-8), (1.0, 1e-10)])
def test_linear_to_linear_matches_direct_solve(gamma, bound):
    g = linear_system([[1, 2, 1], [2, -1, 1]], 2)
    f = linear_system([[-3, 1, 4], [5, 2, -1]], 2)
    x0 = np.linalg.solve([[2, 1], [-1, 1]], [-1, -2])
    r = track(LinearHomotopy(g, f, gamma=gamma), x0)
    assert r.status == CONVERGED
    direct = np.linalg.solve([[1, 4], [2, -1]], [3, -5])
    assert np.max(np.abs(r.endpoint.coordinates - direct)) < bound


def test_a_path_passing_near_infinity_in_mid_path_converges():
    # with gamma near -1 the root of (1-t)*gamma*(x-1) + t*(x-2) reaches
    # |x| ~ 1e9 at t = 0.5 and comes back: only an endpoint is at infinity
    g = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -1)]),))
    f = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -2)]),))
    r = track(LinearHomotopy(g, f, gamma=-1 + 1e-9j), np.array([1.0]))
    assert r.status == CONVERGED
    assert abs(r.endpoint.coordinates[0] - 2.0) < 1e-10


def test_endpoints_insensitive_to_step_schedule(monkeypatch):
    e = embed(cyclic(4), 1, 11)
    from nidpipe.cascade import solve_start_system
    from nidpipe import rng as rngmod

    g, sols, _ = solve_start_system(e.system, 11)
    gamma = complex(rngmod.unit_complex(rngmod.stream(11, rngmod.GAMMA)))
    h = LinearHomotopy(g, e.system, gamma)
    coarse = [track(h, s.coordinates) for s in sols[:6]]
    monkeypatch.setattr(tracker, "INITIAL_STEP", 0.05)
    monkeypatch.setattr(tracker, "MAX_STEP", 0.1)
    for s, a in zip(sols[:6], coarse):
        b = track(h, s.coordinates)
        assert a.status == b.status == CONVERGED
        assert np.max(np.abs(a.endpoint.coordinates - b.endpoint.coordinates)) < 1e-8


def test_trace_records_steps():
    f = cyclic(3)
    h = LinearHomotopy(f, f)
    root = np.array([1.0, -0.5 + 0.8660254037844387j, -0.5 - 0.8660254037844387j])
    trace = []
    track(h, root, trace=trace)
    assert trace and all(len(entry) == 3 for entry in trace)
    ts = [entry[0] for entry in trace]
    assert ts == sorted(ts) and ts[-1] >= 0.999999


def test_track_rejects_bad_start():
    # a nonlinear start system: three correction iterations cannot pull
    # a far-off point onto it, so the precondition check trips
    g = cyclic(3)
    f = linear_system([[-3, 1, 4, 0], [5, 2, -1, 1], [1, 1, 1, 1]], 3)
    r = track(LinearHomotopy(g, f), np.array([100.0, 70.0, -55.0]))
    assert r.status == "failed"
    assert r.t_reached == 0.0


def test_newton_refine_exact_root_unchanged():
    f = demo_system()
    (s,) = newton_refine(f, [[3, 2, 2, 1]])
    assert s.residual == 0.0
    assert np.allclose(s.coordinates, [3, 2, 2, 1])
    assert s.regularity == "regular"


def test_newton_refine_quadratic_decay_on_regular_root():
    f = demo_system()
    rng = np.random.default_rng(5)
    x = np.array([3, 2, 2, 1], dtype=complex) + 1e-4 * rng.normal(size=4)
    resids = [residual(f, x)]
    cur = x
    for _ in range(4):
        (s,) = newton_refine(f, cur[None], tol=0.0, max_iters=1)
        cur = s.coordinates
        resids.append(s.residual)
    # quadratic: each residual at most C * previous^2 (generous C),
    # judged only above the evaluation noise floor
    for a, b in zip(resids, resids[1:]):
        if a > 1e-7:
            assert b <= 50 * a * a
    (final,) = newton_refine(f, x[None])
    assert np.max(np.abs(final.coordinates - np.array([3, 2, 2, 1]))) < 1e-12


def test_newton_refine_perturbed_cyclic4_point():
    f = cyclic(4)
    rng = np.random.default_rng(2)
    x = np.array([1, 1, -1, -1], dtype=complex) + 1e-4 * rng.normal(size=4)
    (s,) = newton_refine(f, x[None])
    assert s.residual < 1e-12
    # the limit stays near the perturbed start (it lands on the curve)
    assert np.max(np.abs(s.coordinates - np.array([1, 1, -1, -1]))) < 1e-3


def test_newton_refine_flags_multiplicity_two_point():
    f = eq6_system()
    (s,) = newton_refine(f, [[2.0, 0.0]])
    assert s.residual < 1e-10
    assert s.regularity == SINGULAR


def test_newton_refine_does_not_accept_worse_point():
    f = cyclic(4)
    x = np.array([10.0, 10.0, 10.0, 10.0], dtype=complex)
    (s,) = newton_refine(f, x[None], tol=1e-12, max_iters=2)
    assert residual(f, s.coordinates) <= residual(f, x)


def test_a_stacked_newton_refine_gives_the_bits_of_one_row_calls():
    # a stack is refined in one pass, each row stopping on its own: the
    # exact double root, a point near it, a far point and a complex one
    f = eq6_system()
    x = np.array([[2, 0], [2.1, 0.1], [1e5, -1e5], [3 + 1j, -1]], dtype=complex)
    stacked = newton_refine(f, x)
    alone = [newton_refine(f, row[None])[0] for row in x]
    assert len(stacked) == len(x)
    for a, b in zip(stacked, alone):
        assert a.coordinates.tobytes() == b.coordinates.tobytes()
        assert (a.residual, a.condition, a.regularity) == (b.residual, b.condition, b.regularity)
    assert newton_refine(f, np.empty((0, 2))) == []


def test_refine_dd_improves_multiple_point():
    f = eq6_system()
    x = np.array([2.0 + 1e-5, 1e-5], dtype=complex)
    (out,) = refine_dd(f, x[None], steps=12)
    assert abs(out[0] - 2.0) < 1e-8
    assert abs(out[1]) < 1e-8


@pytest.mark.parametrize("t", [0.5, 0.3 + 0.2j, -1.2 + 0.7j, 2.0, 3.0 + 1.0j])
def test_refine_dd_near_a_line_stays_within_the_move_cap(t):
    # (4, 2, 1, t) is a line of the demo system: Newton there can slide
    # a point far along it, which is no polish of the point
    p = np.array([4, 2, 1, t]) + 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    (out,) = refine_dd(demo_system(), p[None], 12)
    assert np.max(np.abs(out - p)) <= 0.05 * (1.0 + np.max(np.abs(p)))


def test_batched_refine_dd_matches_one_point_calls():
    # one batch on the demo system: (4, 2, 2, 1) and (4, 3, 2, 1) are
    # regular roots, whose rows stop early; near the line (4, 2, 1, t)
    # the point at t = 2 settles and the one at t = 3+1j slides past the
    # move cap, so it comes back as it was; at 1e300 the residual
    # overflows, so that row comes back as it was too
    f = demo_system()
    near = 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    x = np.array([[4, 2, 2, 1], [4, 2, 1, 2], [4, 2, 1, 3 + 1j], [1e300] * 4, [4, 3, 2, 1]]) + near
    shift = np.zeros((len(x), 4), dtype=complex)
    shift[:, 3] = 1e-9 * np.arange(len(x))  # row i solves demo + shift[i]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in (shift, None):
            batch = refine_dd(f, x, 12, s)
            for i in range(len(x)):
                alone = refine_dd(f, x[i : i + 1], 12, None if s is None else s[i : i + 1])
                assert alone.tobytes() == batch[i : i + 1].tobytes()
    assert np.array_equal(batch[2:4], x[2:4])
    assert np.max(np.abs(batch[[0, 4]] - [[4, 2, 2, 1], [4, 3, 2, 1]])) < 1e-15
    assert 0 < np.max(np.abs(batch[1] - x[1])) < 1e-5


def test_classify_thresholds():
    assert classify([1.0, 2.0, 1e-12], 2) == ZERO_SLACK
    assert classify([1.0, 2.0, 0.3], 2) == NONZERO_SLACK
    assert classify([1e9, 2.0, 0.0], 2) == AT_INFINITY
    # no slacks at all: every finite point is zero-slack
    assert classify([1.0, 2.0], 2) == ZERO_SLACK


# -- batches ------------------------------------------------------------------


def _bits(r):
    """Everything a path result reports, exactly."""
    e = r.endpoint
    point = None if e is None else (e.coordinates.tobytes(), e.residual, e.condition, e.regularity)
    return r.status, r.steps_used, r.t_reached, point


def test_mixed_batch_matches_paths_tracked_alone():
    # x^2 - 1 deforms to x - 2: one root converges to 2, the other
    # escapes to infinity, 100 is no root of the start system, and at 0
    # the Jacobian is singular, so the stacked solve has to fall back
    g = PolySystem(1, (make_poly(1, [((2,), 1), ((0,), -1)]),))
    f = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -2)]),))
    h = LinearHomotopy(g, f, gamma=0.6 + 0.8j)
    starts = np.array([[1.0], [-1.0], [100.0], [0.0]], dtype=complex)
    batch = track_paths(h, starts)
    alone = [track(h, x0) for x0 in starts]
    assert sorted(r.status for r in batch) == sorted([CONVERGED, AT_INFINITY, FAILED, FAILED])
    assert [_bits(r) for r in batch] == [_bits(r) for r in alone]
    (good,) = [r for r in batch if r.status == CONVERGED]
    assert abs(good.endpoint.coordinates[0] - 2.0) < 1e-10


def test_a_path_at_infinity_reached_t_1():
    # the at-infinity verdict comes from the t=1 polish: x^2 - 1 deforms
    # to x - 2, and the path from -1 escapes
    g = PolySystem(1, (make_poly(1, [((2,), 1), ((0,), -1)]),))
    f = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -2)]),))
    results = track_paths(LinearHomotopy(g, f, gamma=0.6 + 0.8j), np.array([[1.0], [-1.0]]))
    assert [r.status for r in results] == [CONVERGED, AT_INFINITY]
    assert [r.t_reached for r in results] == [1.0, 1.0]


def _assert_batch_size_independent(h, starts):
    everything = [_bits(r) for r in track_paths(h, starts)]
    for size in (1, 2):
        chunked = []
        for i in range(0, len(starts), size):
            idx = np.arange(i, min(i + size, len(starts)))
            chunked.extend(_bits(r) for r in track_paths(h.select(idx), starts[idx]))
        assert chunked == everything
    # strided chunks, the way a work crew splits a stage
    strided = [None] * len(starts)
    for i in range(3):
        idx = np.arange(i, len(starts), 3)
        strided[i::3] = [_bits(r) for r in track_paths(h.select(idx), starts[idx])]
    assert strided == everything


def test_a_linear_homotopy_evaluates_an_empty_stack():
    g = linear_system([[1, 2, 1], [2, -1, 1]], 2)
    h = LinearHomotopy(g, linear_system([[-3, 1, 4], [5, 2, -1]], 2), 0.6 + 0.8j)
    x, t = np.zeros((0, 2), dtype=complex), np.zeros(0)
    assert h.eval(x, t).shape == (0, 2)
    assert h.jac(x, t).shape == (0, 2, 2)
    assert h.eval_scale(x, t).shape == (0,)


def test_linear_homotopy_results_independent_of_batch_size():
    from nidpipe import rng as rngmod
    from nidpipe.cascade import solve_start_system

    e = embed(cyclic(4), 1, 11)
    g, sols, _ = solve_start_system(e.system, 11)
    gamma = complex(rngmod.unit_complex(rngmod.stream(11, rngmod.GAMMA)))
    h = LinearHomotopy(g, e.system, gamma)
    starts = np.array([s.coordinates for s in sols[:8]])
    _assert_batch_size_independent(h, starts)


def test_slice_homotopy_results_independent_of_batch_size():
    # x^2 - 1 = 0, y = x, with the constant of the first row moved by a
    # shift of its own on each path; a shift of 1 ends both of its paths
    # at the double root (0, 0), whose endpoints the batched
    # double-double polish takes
    w = PolySystem(
        2,
        (
            make_poly(2, [((2, 0), 1), ((0, 0), -1)]),
            make_poly(2, [((0, 1), 1), ((1, 0), -1)]),
        ),
    )
    shifts = np.repeat([1.0, 0.5, -3.0, 1.0 + 1.0j], 2)
    h = SliceHomotopy(w, np.stack([shifts, np.zeros(8)], axis=1).astype(complex))
    starts = np.tile([[1.0, 1.0], [-1.0, -1.0]], (4, 1)).astype(complex)
    results = track_paths(h, starts)
    assert all(r.status == CONVERGED for r in results)
    assert [r.endpoint.condition > 1e4 for r in results] == [True] * 2 + [False] * 6
    roots = np.sqrt(1.0 - shifts)
    assert np.allclose([abs(r.endpoint.coordinates[0]) for r in results], np.abs(roots), atol=1e-6)
    _assert_batch_size_independent(h, starts)


def test_polyhedral_cell_results_independent_of_batch_size():
    from nidpipe.polyhedral import cell_homotopy, enumerate_cells, lift_supports, random_coefficient_system, supports_of

    system = embed(cyclic(4), 1, 11).system
    supports = supports_of(system)
    g = random_coefficient_system(supports, system.nvars, 11)
    cells = []
    enumerate_cells(lift_supports(supports, 11), lambda c: cells.append(c) or c.volume < 4)
    assert len(cells) > 1 and cells[-1].volume >= 4
    h, starts = cell_homotopy(cells, g, supports)
    assert len(starts) == sum(cell.volume for cell in cells)
    # the rows of a cell's paths are that cell's own homotopy, bit for bit
    t = np.random.default_rng(5).random(len(starts))
    first = 0
    for cell in cells:
        one, own = cell_homotopy([cell], g, supports)
        idx = np.arange(first, first + cell.volume)
        assert own.tobytes() == starts[idx].tobytes()
        for name in ("eval", "jac", "eval_scale"):
            rows = getattr(h.select(idx), name)(own, t[idx])
            assert rows.tobytes() == getattr(one, name)(own, t[idx]).tobytes()
        first += cell.volume
    _assert_batch_size_independent(h, starts)


# -- step growth --------------------------------------------------------------


def _script_corrector(monkeypatch, script):
    """Replace the verdict of the corrector on the k-th step of a
    one-path track by script[k]: an iteration count for an accepted
    step, None for a rejected one; later steps keep the real verdict."""
    real, calls = tracker._correct, []

    def scripted(h, x, t, tol, iters):
        x, resid, its, ok = real(h, x, t, tol, iters)
        calls.append(float(t[0]))
        k = len(calls) - 2  # call 0 is the correction at t = 0
        if 0 <= k < len(script):
            if script[k] is None:
                return x, resid, its, np.zeros_like(ok)
            its = np.full_like(its, script[k])
        return x, resid, its, ok

    monkeypatch.setattr(tracker, "_correct", scripted)
    return calls


def _next_step(t, h, iters, grow_iters=tracker.GROW_ITERS):
    """The step the rule takes after an accepted step (t, h, iters)."""
    step = min(2.0 * h if iters <= grow_iters else h, tracker.MAX_STEP)
    remaining = 1.0 - t
    cap = tracker.ENDGAME_CONTRACTION * remaining if t >= tracker.ENDGAME_START else remaining
    return min(step, remaining, cap)


def _line():
    # x - 1 deforms to x - 2 along x = 1 + t
    g = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -1)]),))
    f = PolySystem(1, (make_poly(1, [((1,), 1), ((0,), -2)]),))
    return LinearHomotopy(g, f)


def test_a_rejected_step_halves_four_iterations_keep_and_three_double(monkeypatch):
    _script_corrector(monkeypatch, [None, 4, 3, 3, 3, 2])
    trace = []
    r = track(_line(), np.array([1.0]), trace=trace)
    assert r.status == CONVERGED
    steps = [h for _, h, _ in trace]
    # 0.1 rejected; 0.05 at 4 iterations keeps, then 3 iterations double
    # up to MAX_STEP; the last step is capped by the remaining t
    assert steps == pytest.approx([0.05, 0.05, 0.1, 0.2, 0.2, 0.2, 0.2], rel=1e-12)
    assert trace[-1][0] == 1.0
    for (t, h, it), (_, h_next, _) in zip(trace[:-1], trace[1:]):
        assert h_next == _next_step(t, h, it)


def test_a_cautious_track_grows_only_after_two_iterations(monkeypatch):
    _script_corrector(monkeypatch, [3, 3, 2, 3])
    trace = []
    track_paths(_line(), np.array([[1.0]]), [trace], _cautious=True)
    steps = [h for _, h, _ in trace]
    assert steps[:5] == pytest.approx([0.1, 0.1, 0.1, 0.2, 0.2], rel=1e-12)
    for (t, h, it), (_, h_next, _) in zip(trace[:-1], trace[1:]):
        assert h_next == _next_step(t, h, it, tracker.CAUTIOUS_GROW_ITERS)


def test_every_accepted_step_of_a_real_path_sets_the_next_by_the_rule(monkeypatch):
    # x^2 - 1 deforms to x^2 + x - 3: the path from -1 takes steps of
    # three and of four corrector iterations, and none is rejected
    calls = _script_corrector(monkeypatch, [])
    trace = []
    g = PolySystem(1, (make_poly(1, [((2,), 1), ((0,), -1)]),))
    f = PolySystem(1, (make_poly(1, [((2,), 1), ((1,), 1), ((0,), -3)]),))
    r = track(LinearHomotopy(g, f, gamma=0.6 + 0.8j), np.array([-1.0]), trace=trace)
    assert r.status == CONVERGED
    assert len(calls) - 1 == len(trace)
    assert {it for _, _, it in trace[:-1]} == {3, 4}
    for (t, h, it), (_, h_next, _) in zip(trace[:-1], trace[1:]):
        assert h_next == _next_step(t, h, it)


def test_in_the_endgame_a_step_is_half_the_remaining_t(monkeypatch):
    # two rejections make the steps 0.025, 0.05, 0.1, 0.2, ..., so the
    # path lands at t = 0.975, inside the endgame, and halves its way in
    _script_corrector(monkeypatch, [None, None])
    trace = []
    assert track(_line(), np.array([1.0]), trace=trace).status == CONVERGED
    assert trace[0][1] == pytest.approx(0.025, rel=1e-12)
    endgame = [entry for entry in trace if entry[0] >= tracker.ENDGAME_START]
    assert len(endgame) > 10
    for (t, h, it), (_, h_next, _) in zip(trace[:-1], trace[1:]):
        assert h_next == _next_step(t, h, it)


# -- the jump guard -----------------------------------------------------------


def _never(idx):
    raise AssertionError(f"paths {list(idx)} re-tracked")


def test_coinciding_double_root_endpoints_are_not_retracked():
    # x^2 - 1, y = x deforms to (x - 1)^2, y = x: both paths end on the
    # double root (1, 1)
    line = make_poly(2, [((0, 1), 1), ((1, 0), -1)])
    g = PolySystem(2, (make_poly(2, [((2, 0), 1), ((0, 0), -1)]), line))
    f = PolySystem(2, (make_poly(2, [((2, 0), 1), ((1, 0), -2), ((0, 0), 1)]), line))
    results = track_paths(LinearHomotopy(g, f, gamma=0.6 + 0.8j), np.array([[1.0, 1.0], [-1.0, -1.0]]))
    ends = [r.endpoint for r in results]
    assert all(e is not None and not e.is_regular for e in ends)
    assert np.max(np.abs(ends[0].coordinates - ends[1].coordinates)) < 1e-6
    assert tracker.guard_jumps(results, _never) == (results, 0)


def test_a_jump_is_found_by_sorting_and_only_within_a_group():
    # x^2 = 1 - s, y = x for the shifts s of two groups of two paths;
    # both groups have the same shift, so paths 0 and 2 end at one point
    w = PolySystem(
        2,
        (
            make_poly(2, [((2, 0), 1), ((0, 0), -1)]),
            make_poly(2, [((0, 1), 1), ((1, 0), -1)]),
        ),
    )
    h = SliceHomotopy(w, np.array([[0.5, 0.0]] * 4, dtype=complex))
    starts = np.array([[1.0, 1.0], [-1.0, -1.0]] * 2, dtype=complex)
    results = track_paths(h, starts)
    assert all(r.status == CONVERGED and r.endpoint.is_regular for r in results)
    assert tracker.guard_jumps(results, _never, [0, 0, 1, 1]) == (results, 0)
    # path 1 jumped onto path 0's root: only those two are tracked again,
    # as one batch under the cautious rule, which brings path 1 back
    jumped = results[:1] * 2 + results[2:]
    again = []

    def retrack(idx):
        again.append(list(idx))
        return tracker.retracker(h, starts)(idx)

    mended, left = tracker.guard_jumps(jumped, retrack, [0, 0, 1, 1])
    assert again == [[0, 1]] and left == 0
    assert mended[2:] == results[2:]
    for a, b in zip(mended[:2], results[:2]):
        assert a.status == CONVERGED
        assert np.max(np.abs(a.endpoint.coordinates - b.endpoint.coordinates)) < 1e-10


def test_coinciding_finds_every_matching_pair_that_a_scan_finds():
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    centers[:10] *= 1e3
    points = centers[rng.integers(0, 30, size=60)]
    points = points + 10.0 ** rng.uniform(-10, -5, size=(60, 1)) * np.maximum(1, np.abs(points))
    groups = rng.integers(0, 3, size=60)
    tol = np.maximum(tracker.MATCH_FLOOR, tracker.MATCH_TOL * np.maximum(1, np.max(np.abs(points), axis=1)))
    scan = np.array([
        any(
            j != i and groups[j] == groups[i]
            and np.max(np.abs(points[i] - points[j])) <= max(tol[i], tol[j])
            for j in range(60)
        )
        for i in range(60)
    ])
    assert 0 < scan.sum() < 60
    assert np.array_equal(tracker._coinciding(points, groups), scan)
