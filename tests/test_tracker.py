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
    s = newton_refine(f, [3, 2, 2, 1])
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
        s = newton_refine(f, cur, tol=0.0, max_iters=1)
        cur = s.coordinates
        resids.append(s.residual)
    # quadratic: each residual at most C * previous^2 (generous C),
    # judged only above the evaluation noise floor
    for a, b in zip(resids, resids[1:]):
        if a > 1e-7:
            assert b <= 50 * a * a
    final = newton_refine(f, x)
    assert np.max(np.abs(final.coordinates - np.array([3, 2, 2, 1]))) < 1e-12


def test_newton_refine_perturbed_cyclic4_point():
    f = cyclic(4)
    rng = np.random.default_rng(2)
    x = np.array([1, 1, -1, -1], dtype=complex) + 1e-4 * rng.normal(size=4)
    s = newton_refine(f, x)
    assert s.residual < 1e-12
    # the limit stays near the perturbed start (it lands on the curve)
    assert np.max(np.abs(s.coordinates - np.array([1, 1, -1, -1]))) < 1e-3


def test_newton_refine_flags_multiplicity_two_point():
    f = eq6_system()
    s = newton_refine(f, [2.0, 0.0])
    assert s.residual < 1e-10
    assert s.regularity == SINGULAR


def test_newton_refine_does_not_accept_worse_point():
    f = cyclic(4)
    x = np.array([10.0, 10.0, 10.0, 10.0], dtype=complex)
    s = newton_refine(f, x, tol=1e-12, max_iters=2)
    assert residual(f, s.coordinates) <= residual(f, x)


def test_refine_dd_improves_multiple_point():
    f = eq6_system()
    x = np.array([2.0 + 1e-5, 1e-5], dtype=complex)
    out = refine_dd(f, x, steps=12)
    assert abs(out[0] - 2.0) < 1e-8
    assert abs(out[1]) < 1e-8


@pytest.mark.parametrize("t", [0.5, 0.3 + 0.2j, -1.2 + 0.7j, 2.0, 3.0 + 1.0j])
def test_refine_dd_near_a_line_stays_within_the_move_cap(t):
    # (4, 2, 1, t) is a line of the demo system: Newton there can slide
    # a point far along it, which is no polish of the point
    p = np.array([4, 2, 1, t]) + 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    out = refine_dd(demo_system(), p, 12)
    assert np.max(np.abs(out - p)) <= 0.05 * (1.0 + np.max(np.abs(p)))


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
            chunked.extend(_bits(r) for r in track_paths(h, starts[i : i + size]))
        assert chunked == everything
    # strided chunks, the way a work crew splits a stage
    strided = [None] * len(starts)
    for i in range(3):
        strided[i::3] = [_bits(r) for r in track_paths(h, starts[i::3])]
    assert strided == everything


def test_linear_homotopy_results_independent_of_batch_size():
    from nidpipe import rng as rngmod
    from nidpipe.cascade import solve_start_system

    e = embed(cyclic(4), 1, 11)
    g, sols, _ = solve_start_system(e.system, 11)
    gamma = complex(rngmod.unit_complex(rngmod.stream(11, rngmod.GAMMA)))
    h = LinearHomotopy(g, e.system, gamma)
    starts = np.array([s.coordinates for s in sols[:8]])
    _assert_batch_size_independent(h, starts)


def test_polyhedral_cell_results_independent_of_batch_size():
    from nidpipe.polyhedral import (
        PolyhedralHomotopy,
        binomial_solutions,
        enumerate_cells,
        lift_supports,
        random_coefficient_system,
        supports_of,
    )

    system = embed(cyclic(4), 1, 11).system
    supports = supports_of(system)
    g = random_coefficient_system(supports, system.nvars, 11)
    cells = []
    enumerate_cells(lift_supports(supports, 11), lambda c: cells.append(c) or c.volume < 4)
    cell = cells[-1]
    assert cell.volume >= 4
    coeff_of = [dict(p.terms) for p in g.polys]
    V = [[b[j] - a[j] for j in range(g.nvars)] for a, b in cell.pairs]
    beta = [-coeff_of[i][a] / coeff_of[i][b] for i, (a, b) in enumerate(cell.pairs)]
    starts = np.array(binomial_solutions(V, beta))
    _assert_batch_size_independent(PolyhedralHomotopy(g, cell, supports), starts)
