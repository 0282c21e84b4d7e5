"""Mixed cells, mixed volumes, binomial starts, and the max-slack LP."""

import collections
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import nidpipe
from nidpipe import polyhedral
from nidpipe.polynomials import PolySystem, make_poly, residual
from nidpipe.polyhedral import (
    SLACK_MARGIN,
    STACK_BYTES,
    LiftedSupport,
    MixedCell,
    TieDetected,
    _CellSearch,
    _max_slack_simplex,
    _FEASIBLE,
    _PRUNE,
    _TIE,
    binomial_solutions,
    enumerate_cells,
    generic_lifting,
    lift_supports,
    random_coefficient_system,
    solve_cell,
    supports_of,
    with_origin,
)
from nidpipe.systems import cyclic, demo_system, embed


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


def test_supports_of_examples():
    f = cyclic(4)
    sup = supports_of(f)
    assert set(sup[3]) == {(1, 1, 1, 1), (0, 0, 0, 0)}
    lin = linear_system([[1, 2, 3]], 2)
    assert set(supports_of(lin)[0]) == {(0, 0), (1, 0), (0, 1)}
    with pytest.raises(ValueError):
        supports_of(PolySystem(2, (make_poly(2, []),)))


def test_embed_adds_slack_exponent_to_base_supports():
    e = embed(cyclic(4), 1, 5)
    sup = supports_of(e.system)
    for i in range(4):
        assert (0, 0, 0, 0, 1) in sup[i]


def test_single_linear_polynomial_one_cell():
    f = PolySystem(1, (make_poly(1, [((0,), 1.0), ((1,), 2.0)]),))
    lifted = lift_supports(supports_of(f), 3)
    cells = []
    n = enumerate_cells(lifted, lambda c: cells.append(c))
    assert n == 1 and cells[0].volume == 1


def mixed_volume(f, seed):
    """Sum of the cell volumes of the first generic lifting of the seed."""

    def volume(lifted):
        volumes = []
        enumerate_cells(lifted, lambda cell: volumes.append(cell.volume))
        return sum(volumes)

    return generic_lifting(supports_of(f), seed, volume)[0]


def test_univariate_dense_mixed_volume_is_degree():
    for d in (1, 2, 3, 5):
        terms = [((k,), 1.0 + 0.5j * k) for k in range(d + 1)]
        f = PolySystem(1, (make_poly(1, terms),))
        assert mixed_volume(f, 9) == d


def test_linear_square_system_mixed_volume_one():
    f = linear_system([[1, 2, 3], [4, 5, 6.5]], 2)
    assert mixed_volume(f, 9) == 1


def test_cyclic4_embedded_mixed_volume_20():
    e = embed(cyclic(4), 1, 11)
    assert mixed_volume(e.system, 13) == 20


def test_a_one_term_polynomial_gives_mixed_volume_zero():
    # a support of one point has no edge, so no cell
    f = PolySystem(2, (make_poly(2, [((1, 1), 1.0)]), make_poly(2, [((0, 0), 1.0), ((1, 0), 2.0), ((0, 1), 3.0)])))
    assert mixed_volume(f, 9) == 0


def test_mixed_volume_invariant_over_liftings():
    e = embed(cyclic(4), 1, 11)
    values = {mixed_volume(e.system, seed) for seed in range(40, 50)}
    assert values == {20}


def test_cells_streamed_incrementally(monkeypatch):
    e = embed(cyclic(4), 1, 11)
    lifted = lift_supports(supports_of(e.system), 13)
    events = []

    def logged(fn):
        def call(*args):
            events.append("stacked call")
            return fn(*args)

        return call

    monkeypatch.setattr(polyhedral, "_max_slack_simplex", logged(polyhedral._max_slack_simplex))
    monkeypatch.setattr(_CellSearch, "_expand", logged(_CellSearch._expand))
    monkeypatch.setattr(_CellSearch, "_leaves", logged(_CellSearch._leaves))
    seen = []

    def emit(cell):
        seen.append(cell)
        events.append("cell")
        return len(seen) < 2

    count = enumerate_cells(lifted, emit)
    # the consumer stopped the search after two cells: production had
    # not finished when the first cells arrived, and nothing ran after
    assert count == 2 and len(seen) == 2
    assert "stacked call" in events and events[-1] == "cell"
    full = enumerate_cells(lifted, lambda c: True)
    assert full > 2


def test_a_tie_the_walk_stops_before_is_never_raised(monkeypatch):
    # a tie is injected on the last node with candidate edges in the first
    # batch of several nodes; that node's subtree comes after its siblings'
    lifted = lift_supports(supports_of(embed(cyclic(4), 1, 11).system), 13)
    real = _CellSearch._verdicts
    events = []

    def tied(self, sup, level, node, p, q):
        verdict, slack, alpha_c = real(self, sup, level, node, p, q)
        if len(level) > 1 and "tie" not in events and len(node):
            verdict[node == node.max()] = _TIE
            events.append("tie")
        return verdict, slack, alpha_c

    monkeypatch.setattr(_CellSearch, "_verdicts", tied)

    def first_only(cell):
        events.append("cell")
        return False

    assert enumerate_cells(lifted, first_only) == 1
    assert events == ["tie", "cell"]
    events.clear()
    with pytest.raises(TieDetected):
        enumerate_cells(lifted, lambda cell: events.append("cell"))
    assert events[:2] == ["tie", "cell"]


def test_emitted_cells_certified_strictly():
    e = embed(cyclic(4), 1, 11)
    lifted = lift_supports(supports_of(e.system), 13)
    cells = []
    enumerate_cells(lifted, lambda c: cells.append(c))
    for cell in cells:
        assert cell.volume >= 1
        assert cell.normal[-1] == 1.0
        alpha = np.array(cell.normal[:-1])
        for pts, ws, (a, b), texp in zip(
            lifted.points, lifted.lifts, cell.pairs, cell.texps
        ):
            vals = np.array([np.dot(p, alpha) + w for p, w in zip(pts, ws)])
            pa = list(pts).index(tuple(a))
            pb = list(pts).index(tuple(b))
            base = vals[pa]
            assert abs(vals[pb] - base) < 1e-7
            for c_idx, v in enumerate(vals):
                if c_idx in (pa, pb):
                    continue
                assert v - base >= 1e-9
            # homotopy exponents: zero exactly on the pair, the slacks elsewhere
            assert texp[pa] == 0.0 and texp[pb] == 0.0


# -- brute-force oracle -------------------------------------------------------


def brute_force_cells(lifted):
    """Exhaustive check over all edge tuples (test oracle)."""
    n = lifted.nvars
    found = {}
    edge_sets = [list(itertools.combinations(range(len(pts)), 2)) for pts in lifted.points]
    for combo in itertools.product(*edge_sets):
        A = []
        rhs = []
        for (p, q), pts, ws in zip(combo, lifted.points, lifted.lifts):
            A.append(np.array(pts[p]) - np.array(pts[q]))
            rhs.append(ws[q] - ws[p])
        A = np.array(A, dtype=float)
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        alpha = np.linalg.solve(A, rhs)
        ok = True
        for (p, q), pts, ws in zip(combo, lifted.points, lifted.lifts):
            vals = np.array([np.dot(pt, alpha) + w for pt, w in zip(pts, ws)])
            base = vals[p]
            others = [v for c, v in enumerate(vals) if c not in (p, q)]
            if others and min(others) - base <= 1e-9:
                ok = False
                break
        if ok:
            vol = abs(round(np.linalg.det(A)))
            key = tuple(
                (tuple(pts[p]), tuple(pts[q]))
                for (p, q), pts in zip(combo, lifted.points)
            )
            found[key] = int(round(vol))
    return found


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_enumeration_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(2, 4))
    supports = []
    for _ in range(nvars):
        npts = int(rng.integers(2, 5))
        pts = {tuple(int(v) for v in rng.integers(0, 3, nvars)) for _ in range(npts)}
        while len(pts) < 2:
            pts.add(tuple(int(v) for v in rng.integers(0, 4, nvars)))
        supports.append(tuple(sorted(pts)))
    lifted = lift_supports(tuple(supports), seed * 100 + 7)
    cells = []
    enumerate_cells(lifted, lambda c: cells.append(c))
    mine = {c.pairs: c.volume for c in cells}
    oracle = brute_force_cells(lifted)

    def canon(d):
        return {tuple(tuple(sorted(pair)) for pair in k): v for k, v in d.items()}

    assert canon(mine) == canon(oracle)


def test_cyclic3_against_oracle():
    e = embed(cyclic(3), 1, 3)
    # 4 variables exceeds the oracle budget; use the plain cyclic(3)
    f = cyclic(3)
    lifted = lift_supports(supports_of(f), 21)
    cells = []
    enumerate_cells(lifted, lambda c: cells.append(c))
    oracle = brute_force_cells(lifted)
    assert sum(cells_.volume for cells_ in cells) == sum(oracle.values())
    assert len(cells) == len(oracle)


# -- binomial start systems ---------------------------------------------------


def test_binomial_solutions_simple():
    # y1^2 = 4  and  y1 y2 = 6
    sols = binomial_solutions([[2, 0], [1, 1]], [4.0 + 0j, 6.0 + 0j])
    assert len(sols) == 2
    for y in sols:
        assert abs(y[0] ** 2 - 4) < 1e-10
        assert abs(y[0] * y[1] - 6) < 1e-10


def test_binomial_solutions_negative_exponents_via_unimodular():
    # y1 y2^-1 would appear after the change of coordinates; check a volume-3 case
    sols = binomial_solutions([[3, 0], [1, 1]], [1.0 + 0j, 2.0 + 0j])
    assert len(sols) == 3
    for y in sols:
        assert abs(y[0] ** 3 - 1) < 1e-10
        assert abs(y[0] * y[1] - 2) < 1e-10


def test_solve_cell_linear_unique_solution():
    f = linear_system([[1, 2, 3], [4, 5, 6.5]], 2)
    sup = supports_of(f)
    lifted = lift_supports(sup, 9)
    cells = []
    enumerate_cells(lifted, lambda c: cells.append(c))
    assert len(cells) == 1 and cells[0].volume == 1
    results = solve_cell([cells[0]], f, sup)
    assert len(results) == 1
    x = results[0].endpoint.coordinates
    direct = np.linalg.solve(np.array([[2, 3], [5, 6.5]]), [-1, -4])
    assert np.allclose(x, direct, atol=1e-8)


def test_start_system_solutions_count_and_residual():
    e = embed(cyclic(4), 1, 11)
    sup = supports_of(e.system)
    g = random_coefficient_system(sup, e.system.nvars, 17)
    lifted = lift_supports(sup, 13)
    cells = []
    enumerate_cells(lifted, lambda c: cells.append(c))
    endpoints = []
    for cell in cells:
        for r in solve_cell([cell], g, sup):
            assert r.status == "converged"
            assert residual(g, r.endpoint.coordinates) < 1e-10
            endpoints.append(r.endpoint.coordinates)
    assert len(endpoints) == 20
    # all distinct
    pts = np.array(endpoints)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.max(np.abs(pts[i] - pts[j])) > 1e-6


def _result_bits(r):
    """Everything a path result reports, exactly."""
    e = r.endpoint
    point = None if e is None else (e.coordinates.tobytes(), e.residual, e.condition, e.regularity)
    return r.status, r.steps_used, r.t_reached, point


def test_start_paths_that_jumped_are_retracked_each_on_its_own_cell(monkeypatch):
    # a jump is forced between the first paths of the first two cells:
    # each re-tracked result is the cautious track of that path on its
    # own cell's homotopy, bit for bit
    from nidpipe import cascade, tracker

    system = embed(cyclic(4), 1, 7).system
    real_jumped, real_guard = tracker._jumped, cascade.guard_jumps
    cells, forced, retracked, guarded = [], [], [], []

    def jumped(results, groups):
        if forced:
            return real_jumped(results, groups)
        forced.extend([0, cells[0].volume])
        return np.array(forced)

    def guard(results, retrack, groups=None):
        out = real_guard(results, lambda idx: retracked.append(idx.tolist()) or retrack(idx), groups)
        guarded.append(out)
        return out

    monkeypatch.setattr(tracker, "_jumped", jumped)
    monkeypatch.setattr(cascade, "guard_jumps", guard)
    g, sols, stats = cascade.solve_start_system(system, 7, cell_log=cells)
    ((results, jumps),) = guarded
    assert retracked == [forced] and jumps == stats.start_jumps == 0
    assert len(sols) == stats.mixed_volume == 20
    supports = with_origin(supports_of(system))
    for i, cell in zip(forced, cells[:2]):
        h, starts = polyhedral.cell_homotopy([cell], g, supports)
        (alone,) = tracker.track_paths(h, starts[:1], _cautious=True)
        assert alone.status == "converged"
        assert _result_bits(results[i]) == _result_bits(alone)


def test_cell_homotopies_of_one_start_system_share_their_evaluators():
    # the evaluators depend on g and the supports only: a second homotopy
    # of g reuses the first one's, and its paths keep their bits (the
    # digest is the paths' results as they were when every homotopy
    # built its own evaluators)
    from nidpipe.tracker import track_paths

    system = embed(cyclic(5), 1, 7).system
    supports = supports_of(system)
    g = random_coefficient_system(supports, system.nvars, 7)
    cells = []
    enumerate_cells(lift_supports(supports, 7), lambda c: cells.append(c) or len(cells) < 4)
    first, second = polyhedral.cell_homotopy(cells[:2], g, supports), polyhedral.cell_homotopy(cells[2:], g, supports)
    for name in ("_ev", "_aev", "_jev"):
        assert getattr(first[0], name) is getattr(second[0], name)
    results = track_paths(*first) + track_paths(*second)
    assert len(results) == 9
    digest = hashlib.sha1(repr([_result_bits(r) for r in results]).encode()).hexdigest()
    assert digest == "8b02203d53e7a8c5cd1761f5087f2649ff33045d"


# -- the max-slack LP ---------------------------------------------------------


def _scipy_reference(G, b):
    d = G.shape[1]
    res = linprog(
        np.append(np.zeros(d), -1.0),
        A_ub=np.hstack([G, np.ones((len(b), 1))]),
        b_ub=b,
        bounds=[(None, None)] * d + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0
    return float(res.x[-1])


@pytest.mark.parametrize("seed", range(6))
def test_max_slack_simplex_matches_scipy(seed):
    # five programs of one shape, solved as a stack (K > 1) and alone
    # (K = 1): the same bits either way, and scipy's optimum
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m = int(rng.integers(1, 35))
        d = int(rng.integers(1, 10))
        G = rng.normal(size=(5, m, d)).round(3)
        b = rng.normal(size=(5, m)).round(3)
        stack_eps, stack_v = _max_slack_simplex(G, b)
        for k in range(5):
            eps, v = _max_slack_simplex(G[k : k + 1], b[k : k + 1])
            assert eps.tobytes() == stack_eps[k : k + 1].tobytes()
            assert v.tobytes() == stack_v[k : k + 1].tobytes()
            assert abs(eps[0] - _scipy_reference(G[k], b[k])) < 1e-7
            # the returned maximizer attains the reported slack
            attained = float(np.min(b[k] - G[k] @ v[0]))
            assert min(attained, 1.0) >= eps[0] - 1e-7


def _degenerate_program(seed, m=40, d=4):
    """A program whose optimum eps = 1 is highly degenerate: v = 0
    leaves every row slack, and most pivots are degenerate."""
    G = np.random.default_rng(seed).normal(size=(m, d))
    return G, np.abs(G).sum(axis=1)


def test_a_stack_solves_each_program_as_it_would_alone():
    # degenerate programs 1, 2, 7, 8, 9 and 11 stall long enough for
    # Bland's rule; ordinary programs between them leave the stack early
    rng = np.random.default_rng(1000)
    programs = []
    for seed in range(12):
        programs += [(rng.normal(size=(40, 4)), rng.normal(size=40)), _degenerate_program(seed)]
    G = np.array([g for g, _ in programs])
    b = np.array([rhs for _, rhs in programs])
    eps, v = _max_slack_simplex(G, b)
    for k in range(len(G)):
        alone_eps, alone_v = _max_slack_simplex(G[k : k + 1], b[k : k + 1])
        assert eps[k : k + 1].tobytes() == alone_eps.tobytes()
        assert v[k : k + 1].tobytes() == alone_v.tobytes()
    assert not np.isnan(eps).any() and not np.isnan(v).any()
    assert np.array_equal(eps[1::2], np.ones(12))


@pytest.mark.parametrize("seed", [9, 159])
def test_blands_rule_does_not_cycle_on_degenerate_programs(seed):
    # Bland's rule needs both choices: the smallest entering column and,
    # among tied ratios, the smallest leaving basic column; leaving by
    # the first tied row cycled on these two until the pivot budget ran out
    G, b = _degenerate_program(seed)
    eps, v = _max_slack_simplex(G[None], b[None])
    assert abs(eps[0] - _scipy_reference(G, b)) < 1e-7
    assert min(float(np.min(b - G @ v[0])), 1.0) >= eps[0] - 1e-7


def test_importing_the_solver_leaves_scipy_out():
    # scipy serves only as the reference LP of the test above
    src = str(Path(nidpipe.__file__).resolve().parents[1])
    code = "import sys, nidpipe.blackbox; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


# -- integer certification against a Fraction reference -----------------------


def _fraction_solve(A, b):
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n + 1):
                M[i][j] -= f * M[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))) / M[k][k]
    return x


def fraction_certify(search, chosen):
    """The certificate in rational arithmetic (test oracle): the normal
    from the edge equalities, every slack strictly positive, the volume
    from the determinant of the edge directions."""
    lifted, n = search.lifted, search.n
    A, b = [], []
    for depth, sup in enumerate(search.order):
        p, q = chosen[depth]
        pts, ws = lifted.points[sup], lifted.lifts[sup]
        A.append([Fraction(pts[p][j] - pts[q][j]) for j in range(n)])
        b.append(Fraction(ws[q]) - Fraction(ws[p]))
    alpha = _fraction_solve(A, b)
    if alpha is None:
        raise TieDetected("edge directions are linearly dependent")
    texps = {}
    for depth, sup in enumerate(search.order):
        p, q = chosen[depth]
        pts, ws = lifted.points[sup], lifted.lifts[sup]
        vals = [sum(pt[j] * alpha[j] for j in range(n)) + Fraction(w) for pt, w in zip(pts, ws)]
        row = []
        for c, v in enumerate(vals):
            slack = v - vals[p]
            if c in (p, q):
                row.append(0.0)
                continue
            if slack <= 0:
                if slack == 0:
                    raise TieDetected("exact tie on a lifted support")
                return None
            if float(slack) < SLACK_MARGIN:
                raise TieDetected("slack below certification margin")
            row.append(float(slack))
        texps[sup] = tuple(row)
    pairs, rows = [], []
    for sup in range(len(search.order)):
        p, q = chosen[search.order.index(sup)]
        pts = lifted.points[sup]
        pairs.append((pts[p], pts[q]))
        rows.append([Fraction(pts[q][j] - pts[p][j]) for j in range(n)])
    det = Fraction(1)
    for k in range(n):  # the determinant by elimination, in Fractions
        piv = next(i for i in range(k, n) if rows[i][k] != 0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    normal = tuple(float(a) for a in alpha) + (1.0,)
    return MixedCell(tuple(pairs), normal, abs(int(det)), tuple(texps[s] for s in range(len(pairs))))


def _bits(cell):
    if cell is None:
        return None
    floats = lambda xs: tuple(float(x).hex() for x in xs)  # noqa: E731  (-0.0 differs from 0.0)
    return cell.pairs, floats(cell.normal), cell.volume, tuple(floats(t) for t in cell.texps)


def assert_certificates_match(monkeypatch):
    """Make every ``certify`` call check itself against the reference;
    returns the list of the cells it certified."""
    real = _CellSearch.certify
    cells = []

    def checked(self, chosen):
        try:
            expected = fraction_certify(self, chosen)
        except TieDetected:
            with pytest.raises(TieDetected):
                real(self, chosen)
            raise
        cell = real(self, chosen)
        assert _bits(cell) == _bits(expected)
        if cell is not None:
            cells.append(cell)
        return cell

    monkeypatch.setattr(_CellSearch, "certify", checked)
    return cells


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["cyclic-5", "cyclic-4@1"])
def test_integer_certificates_equal_the_fraction_reference(monkeypatch, name, seed):
    system = cyclic(5) if name == "cyclic-5" else embed(cyclic(4), 1, seed).system
    cells = assert_certificates_match(monkeypatch)
    enumerate_cells(lift_supports(supports_of(system), seed), lambda cell: None)
    assert sum(c.volume for c in cells) == (70 if name == "cyclic-5" else 20)


def test_integer_certificates_of_lifts_with_long_binary_expansions(monkeypatch):
    # 0.1, 1/3 and 2/7 are not multiples of 2**-53: the lifting's
    # power-of-two scale must come from the lifts themselves
    supports = supports_of(cyclic(3))
    lifted = LiftedSupport(supports, ((0.1, 1 / 3, 0.7), (0.25, 2 / 7, 0.9), (0.3, 0.55)), seed=0)
    assert max(float(w).as_integer_ratio()[1] for ws in lifted.lifts for w in ws) > 2**53
    cells = assert_certificates_match(monkeypatch)
    enumerate_cells(lifted, lambda cell: None)
    assert cells and sum(c.volume for c in cells) == 6


# -- the screens, and the order of emission ----------------------------------


def _supports(name, seed):
    if name == "demo start supports":
        return with_origin(supports_of(embed(demo_system(), 3, seed).system))
    n = int(name[len("cyclic-")])  # "cyclic-<n>@1"
    return supports_of(embed(cyclic(n), 1, seed).system)


def _edge_verdict(search, sup, level, i, p, q):
    """The verdict of one edge of node i of a level, tested alone."""
    verdict, _, _ = search._verdicts(sup, level, np.array([i]), np.array([p]), np.array([q]))
    return verdict[0]


@pytest.mark.parametrize("name", ["demo start supports", "cyclic-5@1"])
def test_the_line_screen_drops_only_edges_the_verdict_prunes(monkeypatch, name):
    real = _CellSearch._line_screen
    batches = []

    def recorded(self, sup, level):
        kept = real(self, sup, level)
        batches.append((self, sup, level, kept))
        return kept

    monkeypatch.setattr(_CellSearch, "_line_screen", recorded)
    enumerate_cells(lift_supports(_supports(name, 7), 7), lambda cell: None)
    dropped = 0
    for search, sup, level, kept in batches:
        assert level.U.shape[2] == 2 and kept.shape == (len(level), len(search.edges[sup]))
        for i, e in zip(*np.nonzero(~kept)):
            p, q = search.edges[sup][e]
            assert _edge_verdict(search, sup, level, i, p, q) == _PRUNE
            dropped += 1
    assert dropped > 0
    assert max(len(level) for _, _, level, _ in batches) > 1


def _vertex_enumeration(G, h):
    """Feasibility of the half planes G v <= h, G (M, 2), by vertex
    enumeration inside a large box: the reference verdict on a plane."""
    box = 1e7  # normals at desk scale are O(1)
    G = np.vstack([G, [[1, 0], [-1, 0], [0, 1], [0, -1]]])
    h = np.concatenate([h, [box] * 4])

    def nonempty(margin):
        hh = h - margin
        ii, jj = np.triu_indices(len(hh), k=1)
        det = G[ii, 0] * G[jj, 1] - G[ii, 1] * G[jj, 0]
        ok = np.abs(det) > 1e-12
        ii, jj, det = ii[ok], jj[ok], det[ok]
        vx = (hh[ii] * G[jj, 1] - hh[jj] * G[ii, 1]) / det
        vy = (G[ii, 0] * hh[jj] - G[jj, 0] * hh[ii]) / det
        return bool(np.all(G @ np.stack([vx, vy]) <= hh[:, None] + 1e-9, axis=0).any())

    if nonempty(SLACK_MARGIN):
        return _FEASIBLE
    return _PRUNE if not nonempty(0.0) else _TIE


def _child_rows(search, sup, level, i, p, q):
    """The rows A alpha <= b of the child of node i of the level on the
    edge (p, q) of the support, rebuilt from the node's chosen edges: each
    pair stays minimal on its support."""
    chosen = [(s, *search.edges[s][level.edge[i, t]]) for t, s in enumerate(search.order[: level.edge.shape[1]])]
    A, b = [], []
    for s, ps, qs in chosen + [(sup, p, q)]:
        pts, ws = search.points[s], search.lifts[s]
        for r in range(len(pts)):
            if r not in (ps, qs):
                A.append(pts[ps] - pts[r])
                b.append(ws[r] - ws[ps])
    return np.array(A), np.array(b)


@pytest.mark.parametrize("name", ["demo start supports", "cyclic-5@1"])
def test_the_lp_decides_every_child_plane_as_vertex_enumeration(monkeypatch, name):
    # every candidate edge of a node with three free directions opens a
    # child cone with two; the verdict on each is vertex enumeration's
    real = _CellSearch._verdicts
    planes = []

    def recorded(self, sup, level, node, p, q):
        verdict, slack, alpha_c = real(self, sup, level, node, p, q)
        if level.U.shape[2] == 3:
            rows = [_child_rows(self, sup, level, i, pc, qc) for i, pc, qc in zip(node, p, q)]
            planes.append((self.points[sup], level.U[node], p, q, verdict, alpha_c, rows))
        return verdict, slack, alpha_c

    monkeypatch.setattr(_CellSearch, "_verdicts", recorded)
    enumerate_cells(lift_supports(_supports(name, 7), 7), lambda cell: None)
    counts = collections.Counter()
    for pts, U, p, q, verdict, alpha_c, rows in planes:
        _, _, degenerate, Uc = polyhedral._reflect(U, pts[p] - pts[q])
        for c in np.flatnonzero(~degenerate):  # an edge outside the subspace has no plane
            A_c, b_c = rows[c]
            h = b_c - A_c @ alpha_c[c]
            quick = h.min() > SLACK_MARGIN
            assert _vertex_enumeration(A_c @ Uc[c], h) == verdict[c]
            counts[verdict[c], quick] += 1
    assert counts[_PRUNE, False] > 0 and counts[_FEASIBLE, False] > 0 and counts[_FEASIBLE, True] > 0


# sha1 of the ``_bits`` of every emitted cell in emission order, the
# cell count and the lifting attempt, as the search gave them when it
# expanded one node at a time
NODE_BY_NODE = {
    ("cyclic-5@1", 7): ("4568bafde10aa741d1b46d5047ef5b95d60e3a4e", 25, 0),
    ("demo start supports", 7): ("6dccde9d3ba2642c0407bb67e0535ed8b19e84ba", 10, 0),
    ("cyclic-6@1", 3): ("632fbd2b7c468539c8908eb75964825880f8e333", 92, 0),
}


PINNED_SEARCHES = [("cyclic-5@1", 7), ("demo start supports", 7), pytest.param("cyclic-6@1", 3, marks=pytest.mark.slow)]


def _pinned_search(monkeypatch, name, seed):
    """The pinned search of the name and seed: its (digest, count,
    attempt), and the shapes of its simplex stacks."""
    real = polyhedral._max_slack_simplex
    stacks = []

    def recorded(G, b):
        stacks.append(G.shape)
        return real(G, b)

    monkeypatch.setattr(polyhedral, "_max_slack_simplex", recorded)

    def search(lifted):
        digest, count = hashlib.sha1(), 0

        def emit(cell):
            nonlocal count
            digest.update(repr(_bits(cell)).encode())
            count += 1

        enumerate_cells(lifted, emit)
        return digest.hexdigest(), count

    (digest, count), attempt = generic_lifting(_supports(name, seed), seed, search)
    return (digest, count, attempt), stacks


@pytest.mark.parametrize("name, seed", PINNED_SEARCHES)
def test_cells_come_out_in_the_order_of_a_node_by_node_search(monkeypatch, name, seed):
    pinned, stacks = _pinned_search(monkeypatch, name, seed)
    assert pinned == NODE_BY_NODE[name, seed]
    # a stack of programs fits the byte budget, or holds one program
    assert stacks and all(K == 1 or K * polyhedral._tableau_bytes(m, d) <= STACK_BYTES for K, m, d in stacks)


@pytest.mark.parametrize("budget", [1, 4 * STACK_BYTES])
@pytest.mark.parametrize("name, seed", PINNED_SEARCHES)
def test_the_byte_budget_does_not_change_the_cells(monkeypatch, name, seed, budget):
    # one program and one node per stack, or stacks four times as large
    monkeypatch.setattr(polyhedral, "STACK_BYTES", budget)
    pinned, stacks = _pinned_search(monkeypatch, name, seed)
    assert pinned == NODE_BY_NODE[name, seed]
    largest = max(K for K, _, _ in stacks)
    assert largest == 1 if budget == 1 else largest > 1


# the tracemalloc peak in bytes of the cyclic-6@1 search below, measured
# with stacks of at most 96 programs and 96 // k nodes, before one byte
# budget sized them
PEAK_BEFORE_BUDGET = 889_342


def test_the_search_peak_memory_stays_near_its_node_count_stacks():
    lifted = lift_supports(supports_of(embed(cyclic(6), 1, 7).system), 7, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        enumerate_cells(lifted, lambda cell: None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * PEAK_BEFORE_BUDGET


def test_a_stacked_call_holds_at_most_its_budget(monkeypatch):
    # the heap a stacked call adds, the tracemalloc peak inside it less
    # the heap at its entry, nested calls included, on the search above
    added = collections.Counter()
    running = []  # [heap at entry, peak so far] of each call under way

    def measured(name, real):
        def call(*args):
            args = list(args)  # G and b go on with no reference kept, as the search passes them
            heap, peak = tracemalloc.get_traced_memory()
            if running:
                running[-1][1] = max(running[-1][1], peak)
            tracemalloc.reset_peak()
            running.append([heap, heap])
            try:
                if name == "_max_slack_simplex":
                    return real(args.pop(0), args.pop(0))
                return real(*args)
            finally:
                entry, peak = running.pop()
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                added[name] = max(added[name], peak - entry)
                if running:
                    running[-1][1] = max(running[-1][1], peak)

        return call

    for name in ("_surviving_points", "_line_screen", "_leaves", "_verdicts"):
        monkeypatch.setattr(_CellSearch, name, measured(name, getattr(_CellSearch, name)))
    monkeypatch.setattr(polyhedral, "_max_slack_simplex", measured("_max_slack_simplex", _max_slack_simplex))
    lifted = lift_supports(supports_of(embed(cyclic(6), 1, 7).system), 7, 0)
    tracemalloc.start()
    try:
        enumerate_cells(lifted, lambda cell: None)
    finally:
        tracemalloc.stop()
    assert len(added) == 5 and max(added.values()) <= 1.1 * STACK_BYTES, added


# -- a seed sweep --------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
def test_mixed_volumes_and_certificates_over_seeds(monkeypatch, seed):
    assert_certificates_match(monkeypatch)
    assert mixed_volume(embed(demo_system(), 3, seed).system, seed) == 61
    assert mixed_volume(embed(cyclic(5), 1, seed).system, seed) == 80
