"""Mixed cells of randomly lifted Newton polytopes, streamed one at a
time, plus the binomial start systems they induce.

Enumeration walks candidate edge tuples depth first over the supports,
pruning with an LP that asks for a lower-hull normal compatible with
the edges chosen so far (the LP maximizes the worst separation slack).
A tuple that survives to full depth is certified exactly: the normal is
solved from the edge equalities in rational arithmetic and every
non-cell point must keep strictly positive slack.  A tie means the
lifting was degenerate: the search raises TieDetected, and
``generic_lifting``, the one relift loop, starts over on the next
lifting of the same seed.

Each cell is emitted through a callback as soon as it is certified, so
consumers can start tracking paths while the search is still running.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import rng as rngmod
from .polynomials import PolySystem, _StackedEvaluator, make_poly
# ``track`` stays a module attribute: tracing tools wrap this module's names
from .tracker import PathResult, track, track_paths  # noqa: F401

SLACK_MARGIN = 1e-9
LIFTING_ATTEMPTS = 6  # liftings of one seed tried before giving up


class TieDetected(Exception):
    """The lifting produced a tie; enumeration must restart with a new one."""


Support = tuple[tuple[tuple[int, ...], ...], ...]


def supports_of(f: PolySystem) -> Support:
    """Deduplicated exponent sets per polynomial, in sorted order."""
    out = []
    for i, p in enumerate(f.polys):
        if not p.terms:
            raise ValueError(f"polynomial {i} is zero; it has no Newton polytope")
        out.append(tuple(sorted({e for e, _ in p.terms})))
    return tuple(out)


def with_origin(supports: Support) -> Support:
    """The supports with the origin added to each one that lacks it.

    Their mixed volume counts the isolated roots in C^n, not only those
    in (C*)^n, and a start system on them reaches the roots with a zero
    coordinate (Li and Wang, "The BKK root count in C^n", Math. Comp.
    65, 1996)."""
    origin = (0,) * len(supports[0][0])
    return tuple(pts if origin in pts else tuple(sorted(pts + (origin,))) for pts in supports)


@dataclass(frozen=True)
class LiftedSupport:
    points: Support
    lifts: tuple[tuple[float, ...], ...]
    seed: int
    attempt: int = 0

    @property
    def nvars(self) -> int:
        return len(self.points[0][0])


def lift_supports(supports: Support, seed: int, attempt: int = 0) -> LiftedSupport:
    """Random real lifting values in [0,1), reproducible from the seed."""
    gen = rngmod.stream(seed, rngmod.LIFT, attempt)
    lifts = tuple(tuple(gen.random(len(pts))) for pts in supports)
    return LiftedSupport(supports, lifts, seed, attempt)


@dataclass(frozen=True)
class MixedCell:
    """A fine mixed cell: one lower edge per support.

    ``normal`` is the inner normal with last coordinate 1; ``volume`` is
    the absolute determinant of the edge difference matrix; ``texps``
    holds the homotopy exponents of the continuation parameter for
    every support point (zero exactly on the chosen pairs).
    """

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    normal: tuple[float, ...]
    volume: int
    texps: tuple[tuple[float, ...], ...]


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a small integer matrix."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _solve_fraction(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            if M[i][k] == 0:
                continue
            f = M[i][k] / M[k][k]
            for j in range(k, n + 1):
                M[i][j] -= f * M[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / M[k][k]
    return x


_FEASIBLE, _PRUNE, _TIE = 1, 0, -1


def _max_slack_simplex(G: np.ndarray, b: np.ndarray):
    """Largest eps with G v + eps <= b for some v (v free, eps <= 1).

    Always feasible (eps can go to -inf), bounded above by 1, so the
    optimum exists.  Solved as the dual standard-form program
    min [b;1]^T y subject to [G^T; 1^T] y = e_{d+1}, y >= 0, whose
    initial basis is free: the eps<=1 row's column covers the last
    equation and degenerate artificials cover the rest.  Returns
    (eps, v) with v the maximizer (read off the artificial columns'
    reduced costs, which carry the simplex multipliers), or None when
    the pivot budget is spent or the dual is numerically unbounded.
    """
    m, d = G.shape
    ncols = m + 1 + d
    # tableau rows: d+1 constraint rows, one cost row; last column = rhs
    T = np.zeros((d + 2, ncols + 1))
    T[:d, :m] = G.T
    T[d, : m + 1] = 1.0
    for i in range(d):
        T[i, m + 1 + i] = 1.0
    T[d, ncols] = 1.0
    # reduced costs: cost c = [b, 1, 0...]; basis = artificials + eps column
    T[d + 1, :m] = b - 1.0
    T[d + 1, ncols] = -1.0  # negative objective value
    basis = [m + 1 + i for i in range(d)] + [m]

    def pivot(row, col):
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T[:] -= np.outer(colvals, T[row])
        basis[row] = col

    # drive the artificials out immediately with degenerate pivots (their
    # rows have rhs 0, so nothing moves); a row with no real support is
    # inert and can keep its artificial at zero forever
    for i in range(d):
        j = int(np.argmax(np.abs(T[i, : m + 1])))
        if abs(T[i, j]) > 1e-11:
            pivot(i, j)
    stall = 0
    for _ in range(800):
        costs = T[d + 1, : m + 1]  # artificials may not enter
        if stall < 3 * (d + 2):
            enter = int(np.argmin(costs))
            if costs[enter] >= -1e-11:
                return float(-T[d + 1, ncols]), -T[d + 1, m + 1 : ncols].copy()
        else:  # Bland's rule against cycling
            neg = np.nonzero(costs < -1e-11)[0]
            if not len(neg):
                return float(-T[d + 1, ncols]), -T[d + 1, m + 1 : ncols].copy()
            enter = int(neg[0])
        col = T[: d + 1, enter]
        pos = col > 1e-11
        if not pos.any():
            return None  # numerically unbounded dual
        ratios = np.full(d + 1, np.inf)
        ratios[pos] = T[: d + 1, ncols][pos] / col[pos]
        leave = int(np.argmin(ratios))
        if ratios[leave] <= 1e-13:
            stall += 1
        else:
            stall = 0
        pivot(leave, enter)
    return None


class _CellSearch:
    """Depth-first edge-tuple search with lower-hull pruning.

    Each chosen edge adds one equality on the normal; the search keeps
    an orthonormal basis of the remaining free directions and a point
    deep inside the current feasibility cone.  Candidate edges are
    screened cheaply first (a strictly feasible projected point is a
    certificate by itself), then by the cheapest complete test for the
    remaining dimension: a direct point check (0 free dims, vectorized
    over all edges of the last support), interval intersection on a
    line (1), vertex enumeration of half planes (2), and the max-slack
    simplex otherwise.  Points of a support that cannot be minimal
    anywhere in the parent cone are dropped before edges are formed,
    and feasible children are explored fattest cone first, which gets
    the first cells out long before the search space is exhausted.
    Verdicts in the grey zone below the slack margin raise TieDetected
    instead of guessing.
    """

    def __init__(self, lifted: LiftedSupport):
        self.lifted = lifted
        self.n = lifted.nvars
        self.points = [np.array(pts, dtype=float) for pts in lifted.points]
        self.lifts = [np.array(ws, dtype=float) for ws in lifted.lifts]
        # search small supports first: their constraints focus the normal early
        self.order = sorted(
            range(len(lifted.points)), key=lambda i: (len(lifted.points[i]), i)
        )

    def _own_rows(self, sup: int, p: int, q: int):
        """Inequality rows stating the pair is minimal on its support."""
        pts, ws = self.points[sup], self.lifts[sup]
        keep = np.ones(len(pts), dtype=bool)
        keep[[p, q]] = False
        rows = pts[p] - pts[keep]
        rhs = ws[keep] - ws[p]
        return rows, rhs

    def _point_rows(self, sup: int, p: int):
        """Rows stating point p is minimal on its support."""
        pts, ws = self.points[sup], self.lifts[sup]
        keep = np.ones(len(pts), dtype=bool)
        keep[p] = False
        return pts[p] - pts[keep], ws[keep] - ws[p]

    def _slack_lp(self, A, b, U, alpha0):
        """Max separation slack of A alpha + eps <= b over alpha in the
        affine subspace alpha0 + span(U); also returns the maximizer
        (the deepest point of the cone, a good base for the children).
        A simplex that gives up makes the lifting count as degenerate."""
        out = _max_slack_simplex(A @ U, b - A @ alpha0)
        if out is None:
            raise TieDetected("max-slack simplex gave up")
        eps, v = out
        return eps, alpha0 + U @ v

    def feasible_edges(self, sup: int) -> list[tuple[int, int]]:
        pts = self.points[sup]
        U = np.eye(self.n)
        alpha0 = np.zeros(self.n)
        empty_A = np.zeros((0, self.n))
        empty_b = np.zeros(0)
        out = []
        for p, q in itertools.combinations(range(len(pts)), 2):
            verdict, _, _ = self._edge_verdict(sup, p, q, U, alpha0, empty_A, empty_b)
            if verdict == _TIE:
                raise TieDetected(f"support {sup} edge ({p},{q}) at the margin")
            if verdict == _FEASIBLE:
                out.append((p, q))
        return out

    def _split_direction(self, U, a_vec, r):
        """Eliminate the equality <a_vec, alpha> = r inside the subspace.

        Returns (g, complement_basis, |g|^2); the complement comes from
        the Householder reflector sending g to a coordinate axis.
        """
        g = a_vec @ U
        g2 = float(g @ g)
        if g2 < 1e-24:
            return None, None, g2
        d = len(g)
        norm = np.sqrt(g2)
        v = g.copy()
        v[0] += norm if v[0] >= 0 else -norm
        H = np.eye(d) - np.outer(v, v) * (2.0 / float(v @ v))
        # H maps e_1 to +-g/|g|, so its remaining columns span g's complement
        return g, H[:, 1:], g2

    def _edge_verdict(self, sup, p, q, U, alpha0, A_acc, b_acc):
        """Screen one candidate edge; returns (verdict, slack, child).

        child = (alpha_c, Uc, A_c, b_c) when the verdict is feasible.
        """
        pts, ws = self.points[sup], self.lifts[sup]
        a_vec = pts[p] - pts[q]
        r = ws[q] - ws[p]
        g, W, g2 = self._split_direction(U, a_vec, r)
        if g is None:
            rho0 = r - a_vec @ alpha0
            if abs(rho0) < SLACK_MARGIN:
                return _TIE, 0.0, None
            return _PRUNE, 0.0, None
        rho = r - a_vec @ alpha0
        alpha_c = alpha0 + U @ (g * (rho / g2))
        Uc = U @ W
        own_rows, own_rhs = self._own_rows(sup, p, q)
        A_c = np.vstack([A_acc, own_rows]) if len(b_acc) else own_rows
        b_c = np.concatenate([b_acc, own_rhs]) if len(b_acc) else own_rhs
        child = (alpha_c, Uc, A_c, b_c)
        # a strictly feasible projected point certifies the child outright
        quick = float(np.min(b_c - A_c @ alpha_c)) if len(b_c) else 1.0
        if quick > SLACK_MARGIN:
            return _FEASIBLE, quick, child
        dc = Uc.shape[1]
        if dc == 0:
            if quick <= 0.0:
                return _PRUNE, quick, None
            return _TIE, quick, None
        if dc == 1:
            verdict = self._verdict_line(alpha_c, Uc[:, 0], A_c, b_c)
            return verdict, 0.0, child if verdict == _FEASIBLE else None
        if dc == 2:
            verdict = self._verdict_plane(alpha_c, Uc, A_c, b_c)
            return verdict, 0.0, child if verdict == _FEASIBLE else None
        eps, alpha_deep = self._slack_lp(A_c, b_c, Uc, alpha_c)
        if eps > SLACK_MARGIN:
            return _FEASIBLE, eps, (alpha_deep, Uc, A_c, b_c)
        if eps <= 0.0:
            return _PRUNE, eps, None
        return _TIE, eps, None

    def _surviving_points(self, sup, U, alpha0, A_acc, b_acc) -> dict[int, float]:
        """One-point tests: which points of the support can be minimal
        somewhere in the parent cone, with their best slack."""
        pts = self.points[sup]
        out: dict[int, float] = {}
        for a in range(len(pts)):
            rows, rhs = self._point_rows(sup, a)
            A_c = np.vstack([A_acc, rows]) if len(b_acc) else rows
            b_c = np.concatenate([b_acc, rhs]) if len(b_acc) else rhs
            quick = float(np.min(b_c - A_c @ alpha0)) if len(b_c) else 1.0
            if quick > SLACK_MARGIN:
                out[a] = quick
                continue
            eps, _ = self._slack_lp(A_c, b_c, U, alpha0)
            if eps > SLACK_MARGIN:
                out[a] = eps
            elif eps > 0.0:
                raise TieDetected(f"support {sup} point {a} minimality at the margin")
        return out

    def _verdict_line(self, alpha, direction, inA, inb) -> int:
        """Feasibility of the inequalities on a parameterized line."""
        if not len(inb):
            return _FEASIBLE
        d = inA @ direction
        off = inb - inA @ alpha
        pos = d > 1e-13
        neg = d < -1e-13
        flat_min = np.inf
        flat = ~(pos | neg)
        if flat.any():
            flat_min = float(np.min(off[flat]))
        # window at margin m: max((off-m)/d_neg) <= s <= min((off-m)/d_pos)
        qp = off[pos] / d[pos]
        rp = 1.0 / d[pos]
        qn = off[neg] / d[neg]
        rn = 1.0 / d[neg]

        def empty(margin) -> bool:
            if flat_min < margin:
                return True
            hi = np.min(qp - margin * rp) if len(qp) else np.inf
            lo = np.max(qn - margin * rn) if len(qn) else -np.inf
            return lo > hi

        if not empty(SLACK_MARGIN):
            return _FEASIBLE
        return _PRUNE if empty(0.0) else _TIE

    def _verdict_plane(self, alpha, basis, inA, inb) -> int:
        """Feasibility of half planes in two free dimensions."""
        if not len(inb):
            return _FEASIBLE
        G = inA @ basis
        h = inb - inA @ alpha
        # a large box guarantees vertices exist; normals at desk scale are O(1)
        box = 1e7
        G = np.vstack([G, [[1, 0], [-1, 0], [0, 1], [0, -1]]])
        h = np.concatenate([h, [box, box, box, box]])

        def nonempty(margin) -> bool:
            hh = h - margin
            m = len(hh)
            ii, jj = np.triu_indices(m, k=1)
            det = G[ii, 0] * G[jj, 1] - G[ii, 1] * G[jj, 0]
            ok = np.abs(det) > 1e-12
            ii, jj, det = ii[ok], jj[ok], det[ok]
            vx = (hh[ii] * G[jj, 1] - hh[jj] * G[ii, 1]) / det
            vy = (G[ii, 0] * hh[jj] - G[jj, 0] * hh[ii]) / det
            V = np.stack([vx, vy])
            feas = np.all(G @ V <= hh[:, None] + 1e-9, axis=0)
            return bool(feas.any())

        if nonempty(SLACK_MARGIN):
            return _FEASIBLE
        return _PRUNE if not nonempty(0.0) else _TIE

    def run(self, visit: Callable[[list[tuple[int, int]]], bool]) -> bool:
        """DFS over edge tuples; visit receives edges in search order and
        returns False to stop the whole search early."""
        edges = {sup: self.feasible_edges(sup) for sup in self.order}
        nsup = len(self.order)
        chosen: list[tuple[int, int]] = []

        # per-support candidate arrays for the batched last-support test
        cand: dict[int, dict] = {}
        for sup in self.order:
            pts, ws = self.points[sup], self.lifts[sup]
            pq = np.array(edges[sup], dtype=np.intp).reshape(-1, 2)
            cand[sup] = {
                "pq": pq,
                "A": pts[pq[:, 0]] - pts[pq[:, 1]] if len(pq) else np.zeros((0, self.n)),
                "r": ws[pq[:, 1]] - ws[pq[:, 0]] if len(pq) else np.zeros(0),
            }

        def last_support(sup, U, alpha0, inA, inb) -> bool:
            # the normal is pinned per candidate edge: one batched check
            info = cand[sup]
            pq, Aed, red = info["pq"], info["A"], info["r"]
            if not len(pq):
                return True
            pts, ws = self.points[sup], self.lifts[sup]
            g = Aed @ U
            rho = red - Aed @ alpha0
            gnorm2 = np.einsum("ij,ij->i", g, g)
            degenerate = gnorm2 < 1e-24
            safe = np.where(degenerate, 1.0, gnorm2)
            v0 = rho / safe
            ALPH = alpha0[:, None] + U @ (g.T * v0[None, :])
            VALS = pts @ ALPH + ws[:, None]
            idx = np.arange(len(pq))
            base = VALS[pq[:, 0], idx]
            SL = VALS - base[None, :]
            SL[pq[:, 0], idx] = np.inf
            SL[pq[:, 1], idx] = np.inf
            mins = SL.min(axis=0)
            if len(inb):
                mins = np.minimum(mins, (inb[:, None] - inA @ ALPH).min(axis=0))
            for e in range(len(pq)):
                if degenerate[e]:
                    if abs(rho[e]) < SLACK_MARGIN:
                        raise TieDetected("degenerate edge direction")
                    continue
                if mins[e] <= 0.0:
                    continue
                if mins[e] <= SLACK_MARGIN:
                    raise TieDetected("pinned normal slack below margin")
                chosen.append((int(pq[e, 0]), int(pq[e, 1])))
                try:
                    if not visit(chosen):
                        return False
                finally:
                    chosen.pop()
            return True

        def descend(depth, U, alpha0, inA, inb) -> bool:
            if depth == nsup:
                return visit(chosen)
            sup = self.order[depth]
            d = U.shape[1]
            if d == 1:
                return last_support(sup, U, alpha0, inA, inb)
            allowed = edges[sup]
            if d >= 3 and len(self.points[sup]) >= 6 and len(inb) >= 10:
                alive = self._surviving_points(sup, U, alpha0, inA, inb)
                pairs = [(p, q) for p, q in allowed if p in alive and q in alive]
            else:
                pairs = allowed
            children = []
            for p, q in pairs:
                verdict, slack, child = self._edge_verdict(sup, p, q, U, alpha0, inA, inb)
                if verdict == _TIE:
                    raise TieDetected("partial tuple slack below margin")
                if verdict == _FEASIBLE:
                    children.append((slack, p, q, child))
            # fattest cone first: early cells surface long before the
            # search space is exhausted
            children.sort(key=lambda t: (-t[0], t[1], t[2]))
            for slack, p, q, (alpha_c, Uc, A_c, b_c) in children:
                chosen.append((p, q))
                try:
                    if not descend(depth + 1, Uc, alpha_c, A_c, b_c):
                        return False
                finally:
                    chosen.pop()
            return True

        return descend(0, np.eye(self.n), np.zeros(self.n), np.zeros((0, self.n)), np.zeros(0))

    def certify(self, chosen: Sequence[tuple[int, int]]) -> MixedCell | None:
        """Exact certificate for a full tuple; None if not a cell."""
        nsup = len(self.order)
        A = []
        b = []
        for depth, sup in enumerate(self.order):
            p, q = chosen[depth]
            pts, ws = self.lifted.points[sup], self.lifts[sup]
            A.append([Fraction(pts[p][j]) - Fraction(pts[q][j]) for j in range(self.n)])
            b.append(Fraction(ws[q]) - Fraction(ws[p]))
        alpha = _solve_fraction(A, b)
        if alpha is None:
            raise TieDetected("edge directions are linearly dependent")
        # exact strict lower-hull check for every non-cell point
        texps_by_sup: dict[int, tuple[float, ...]] = {}
        for depth, sup in enumerate(self.order):
            p, q = chosen[depth]
            pts, ws = self.lifted.points[sup], self.lifts[sup]
            vals = [
                sum(Fraction(pt[j]) * alpha[j] for j in range(self.n)) + Fraction(w)
                for pt, w in zip(pts, ws)
            ]
            base = vals[p]
            row = []
            for c, v in enumerate(vals):
                slack = v - base
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
            texps_by_sup[sup] = tuple(row)
        vrows = []
        for sup in range(nsup):
            depth = self.order.index(sup)
            p, q = chosen[depth]
            pts = self.lifted.points[sup]
            vrows.append([pts[q][j] - pts[p][j] for j in range(self.n)])
        vol = abs(_int_det(vrows))
        if vol == 0:
            raise TieDetected("zero-volume tuple passed the LP filter")
        pairs = []
        for sup in range(nsup):
            depth = self.order.index(sup)
            p, q = chosen[depth]
            pairs.append((self.lifted.points[sup][p], self.lifted.points[sup][q]))
        normal = tuple(float(a) for a in alpha) + (1.0,)
        texps = tuple(texps_by_sup[sup] for sup in range(nsup))
        return MixedCell(tuple(pairs), normal, vol, texps)


def enumerate_cells(lifted: LiftedSupport, emit: Callable[[MixedCell], bool | None]) -> int:
    """Emit every fine mixed cell of exactly this lifting once; returns
    the count.

    The consumer may return False to stop the search early.  A tie
    raises TieDetected, before or after cells were emitted: the cells
    emitted so far belong to a degenerate lifting, and the caller starts
    over on another one (``generic_lifting``).
    """
    search = _CellSearch(lifted)
    count = 0

    def visit(chosen) -> bool:
        nonlocal count
        cell = search.certify(chosen)
        if cell is None:
            return True
        count += 1
        keep_going = emit(cell)
        return keep_going is not False

    search.run(visit)
    return count


def generic_lifting(supports: Support, seed: int, search: Callable[[LiftedSupport], object]):
    """The one relift loop: run ``search`` on the liftings of the seed,
    attempt 0, 1, ..., until one raises no TieDetected; returns
    (result, attempt).  A search starts from scratch on each lifting,
    so it resets whatever it counts or collects."""
    for attempt in range(LIFTING_ATTEMPTS):
        try:
            return search(lift_supports(supports, seed, attempt)), attempt
        except TieDetected:
            continue
    raise RuntimeError(f"no generic lifting found in {LIFTING_ATTEMPTS} attempts")


def mixed_volume(f: PolySystem, seed: int) -> int:
    """Sum of cell volumes; independent of the lifting seed."""
    if not f.is_square:
        raise ValueError("mixed volume requires a square system")

    def volume(lifted: LiftedSupport) -> int:
        volumes: list[int] = []
        enumerate_cells(lifted, lambda cell: volumes.append(cell.volume))
        return sum(volumes)

    return generic_lifting(supports_of(f), seed, volume)[0]


def random_coefficient_system(supports: Support, nvars: int, seed: int) -> PolySystem:
    """Unit-modulus random coefficients on exactly the given supports."""
    gen = rngmod.stream(seed, rngmod.START_COEFFS)
    polys = []
    for pts in supports:
        coeffs = rngmod.unit_complex(gen, len(pts))
        polys.append(make_poly(nvars, list(zip(pts, coeffs))))
    return PolySystem(nvars, tuple(polys))


# -- binomial start systems -------------------------------------------------


def _hermite_column_reduce(V: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Unimodular U with V @ U lower triangular, positive diagonal."""
    n = len(V)
    M = [row[:] for row in V]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(j, k, q):  # column j -= q * column k
        for r in range(n):
            M[r][j] -= q * M[r][k]
            U[r][j] -= q * U[r][k]

    def colswap(j, k):
        for r in range(n):
            M[r][j], M[r][k] = M[r][k], M[r][j]
            U[r][j], U[r][k] = U[r][k], U[r][j]

    for k in range(n):
        while True:
            nz = [j for j in range(k, n) if M[k][j] != 0]
            if not nz:
                raise ValueError("singular exponent matrix (zero-volume cell)")
            jmin = min(nz, key=lambda j: abs(M[k][j]))
            if jmin != k:
                colswap(k, jmin)
            done = True
            for j in range(k + 1, n):
                if M[k][j] != 0:
                    colop(j, k, M[k][j] // M[k][k])
                    done = False
            if done and all(M[k][j] == 0 for j in range(k + 1, n)):
                break
        if M[k][k] < 0:
            for r in range(n):
                M[r][k] = -M[r][k]
                U[r][k] = -U[r][k]
    return M, U


def binomial_solutions(V: list[list[int]], beta: Sequence[complex]) -> list[np.ndarray]:
    """All solutions of y^(V rows) = beta in the complex torus."""
    import cmath

    n = len(V)
    L, U = _hermite_column_reduce(V)
    sols: list[np.ndarray] = []
    w = [0j] * n

    def descend(k: int):
        if k == n:
            y = np.array(
                [
                    np.prod([w[j] ** U[l][j] for j in range(n)])
                    for l in range(n)
                ],
                dtype=np.complex128,
            )
            sols.append(y)
            return
        rhs = beta[k]
        for j in range(k):
            rhs = rhs / w[j] ** L[k][j]
        m = L[k][k]
        r = abs(rhs) ** (1.0 / m)
        theta = cmath.phase(rhs)
        for l in range(m):
            w[k] = r * cmath.exp(1j * (theta + 2.0 * cmath.pi * l) / m)
            descend(k + 1)

    descend(0)
    return sols


class PolyhedralHomotopy:
    """Per-cell continuation: coefficients weighted by t raised to the
    (rescaled) lifted slacks.  At t=0 only the cell's binomial survives;
    at t=1 every weight is 1 and the system is the start system g itself,
    which is the homotopy's ``target``."""

    def __init__(self, g: PolySystem, cell: MixedCell, supports: Support):
        self.target = g
        self.dim = g.nvars
        rows = []
        texps = []
        jrows = []
        jtexps = []
        for i, p in enumerate(g.polys):
            pts = supports[i]
            if len(p.terms) != len(pts):
                raise ValueError("start system terms must align with the support")
            row = list(zip(pts, [c for _, c in p.terms]))
            rows.append(tuple(row))
            texps.extend(cell.texps[i])
            for j in range(g.nvars):
                dterms = []
                for (e, c), w in zip(row, cell.texps[i]):
                    if e[j] == 0:
                        continue
                    de = list(e)
                    de[j] -= 1
                    dterms.append((tuple(de), c * e[j]))
                    jtexps.append(w)
                jrows.append(tuple(dterms))
        self._ev = _StackedEvaluator(rows, g.nvars)
        self._aev = _StackedEvaluator(
            [tuple((e, abs(c)) for e, c in row) for row in rows], g.nvars
        )
        self._jev = _StackedEvaluator(jrows, g.nvars)
        raw = np.array(texps, dtype=float)
        positive = raw[raw > SLACK_MARGIN]
        scale = 1.0 / positive.min() if positive.size else 1.0
        self._texp = np.where(raw > SLACK_MARGIN, raw * scale, 0.0)
        jraw = np.array(jtexps, dtype=float)
        self._jtexp = np.where(jraw > SLACK_MARGIN, jraw * scale, 0.0)

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self._ev(x, weights=t[:, None] ** self._texp)

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        flat = self._jev(x, weights=t[:, None] ** self._jtexp)
        return flat.reshape(len(x), self.dim, self.dim)

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self._aev(np.abs(x).astype(np.complex128), weights=t[:, None] ** self._texp)
        return np.max(v.real, axis=1)


def solve_cell(cell: MixedCell, g: PolySystem, supports: Support) -> list[PathResult]:
    """Track the cell's volume-many paths from its binomial system to
    solutions of the start system g at t=1."""
    coeff_of = [dict(p.terms) for p in g.polys]
    V = []
    beta = []
    for i, (a, b_pt) in enumerate(cell.pairs):
        V.append([b_pt[j] - a[j] for j in range(g.nvars)])
        ca, cb = coeff_of[i][a], coeff_of[i][b_pt]
        beta.append(-ca / cb)
    starts = binomial_solutions(V, beta)
    h = PolyhedralHomotopy(g, cell, supports)
    return track_paths(h, np.array(starts))
