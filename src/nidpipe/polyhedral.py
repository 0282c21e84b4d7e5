"""Mixed cells of randomly lifted Newton polytopes, streamed one at a
time, plus the binomial start systems they induce.

Enumeration walks candidate edge tuples depth first over the supports,
pruning with an LP that asks for a lower-hull normal compatible with
the edges chosen so far (the LP maximizes the worst separation slack).
The tests of one search node run together, as in MixedVol (Gao, Li and
Wu, ACM TOMS 31, 2005): one simplex call solves the stacked LPs of all
its edges, or of all its points.  A tuple that survives to full depth
is certified exactly, in integers: one power of two makes the float
lifting integral, fraction-free elimination solves the edge equalities,
and every non-cell point must keep strictly positive slack.  A tie
means the lifting was degenerate: the search raises TieDetected, and
``generic_lifting``, the one relift loop, starts over on the next
lifting of the same seed.

Each cell is emitted through a callback as soon as it is certified, so
consumers can start tracking paths while the search is still running.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _bareiss_solve(A: list[list[int]], b: list[int]) -> tuple[list[int] | None, int]:
    """Fraction-free (Bareiss) elimination of the integer system A x = b.

    Returns (N, det) with x = N / det and det = |det A| > 0, or
    (None, 0) when A is singular.  Every division is exact."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return None, 0
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    det = M[n - 1][n - 1]  # +-det A
    # back substitution: det * x_i is an integer by Cramer's rule
    N = [0] * n
    for i in range(n - 1, -1, -1):
        s = det * M[i][n] - sum(M[i][j] * N[j] for j in range(i + 1, n))
        N[i] = s // M[i][i]
    if det < 0:
        det, N = -det, [-x for x in N]
    return N, det


_FEASIBLE, _PRUNE, _TIE, _LP = 1, 0, -1, 2


def _pivot(T: np.ndarray, k: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """One simplex pivot in every tableau of the stack T, in place; k is
    np.arange(len(T))."""
    prow = T[k, rows]
    prow /= prow[k, cols][:, None]
    T[k, rows] = prow
    colvals = T[k, :, cols]
    colvals[k, rows] = 0.0
    T -= colvals[:, :, None] * prow[:, None, :]


def _max_slack_simplex(G: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eps with G v + eps <= b for some v (v free, eps <= 1), for
    a stack of K programs: G is (K, m, d) and b is (K, m).

    Each program is always feasible (eps can go to -inf) and bounded
    above by 1, so its optimum exists.  It is solved as the dual
    standard-form program min [b;1]^T y subject to [G^T; 1^T] y =
    e_{d+1}, y >= 0, whose initial basis is free: the eps<=1 row's
    column covers the last equation and degenerate artificials cover the
    rest.  Returns eps (K,) and the maximizers v (K, d), read off the
    artificial columns' reduced costs, which carry the simplex
    multipliers.  A program whose pivot budget is spent or whose dual is
    numerically unbounded gets NaN.  The programs advance together, one
    pivot each per round, and each takes exactly the pivots it would
    take alone.
    """
    K, m, d = G.shape
    ncols = m + 1 + d
    # tableau rows: d+1 constraint rows, one cost row; last column = rhs
    T = np.zeros((K, d + 2, ncols + 1))
    T[:, :d, :m] = G.transpose(0, 2, 1)
    T[:, d, : m + 1] = 1.0
    for i in range(d):
        T[:, i, m + 1 + i] = 1.0
    T[:, d, ncols] = 1.0
    # reduced costs: cost c = [b, 1, 0...]; basis = artificials + eps column
    T[:, d + 1, :m] = b - 1.0
    T[:, d + 1, ncols] = -1.0  # negative objective value
    eps = np.full(K, np.nan)
    v = np.full((K, d), np.nan)
    basis = np.tile(np.r_[np.arange(m + 1, ncols), m], (K, 1))  # basic column of each row

    # drive the artificials out immediately with degenerate pivots (their
    # rows have rhs 0, so nothing moves); a row with no real support is
    # inert and can keep its artificial at zero forever
    for i in range(d):
        row = np.abs(T[:, i, : m + 1])
        j = np.argmax(row, axis=1)
        ok = row[np.arange(K), j] > 1e-11
        if ok.any():
            sub = T[ok]
            _pivot(sub, np.arange(len(sub)), np.full(len(sub), i), j[ok])
            T[ok] = sub
            basis[ok, i] = j[ok]
    prog = np.arange(K)  # the program of each tableau still pivoting
    k = np.arange(K)
    stall = np.zeros(K, dtype=int)
    for _ in range(800):
        costs = T[:, d + 1, : m + 1]  # artificials may not enter
        enter = np.argmin(costs, axis=1)
        optimal = costs[k, enter] >= -1e-11
        bland = stall >= 3 * (d + 2)
        if bland.any():  # Bland's rule against cycling: smallest entering column
            neg = costs[bland] < -1e-11
            enter[bland] = np.argmax(neg, axis=1)
            optimal[bland] = ~neg.any(axis=1)
        col = T[k, : d + 1, enter]
        pos = col > 1e-11
        stop = optimal | ~pos.any(axis=1)  # optimal, or a numerically unbounded dual
        if stop.any():
            eps[prog[optimal]] = -T[optimal, d + 1, ncols]
            v[prog[optimal]] = -T[optimal, d + 1, m + 1 : ncols]
            go = ~stop
            if not go.any():
                return eps, v
            T, prog, stall, enter, col, pos = T[go], prog[go], stall[go], enter[go], col[go], pos[go]
            basis, bland, k = basis[go], bland[go], np.arange(len(T))
        ratios = np.divide(T[:, : d + 1, ncols], col, out=np.full(col.shape, np.inf), where=pos)
        leave = np.argmin(ratios, axis=1)
        if bland.any():  # ... and, among tied ratios, smallest leaving basic column
            tied = ratios[bland] == ratios[bland].min(axis=1, keepdims=True)
            leave[bland] = np.argmin(np.where(tied, basis[bland], ncols), axis=1)
        basis[k, leave] = enter
        stall = np.where(ratios[k, leave] <= 1e-13, stall + 1, 0)
        _pivot(T, k, leave, enter)
    return eps, v


class _CellSearch:
    """Depth-first edge-tuple search with lower-hull pruning.

    Each chosen edge adds one equality on the normal; the search keeps
    an orthonormal basis of the remaining free directions and a point
    deep inside the current feasibility cone.  The candidate edges of a
    node are tested together.  A strictly feasible projected point
    certifies an edge by itself; otherwise the cheapest complete test
    for the child's free dimensions decides: a direct point check (0,
    vectorized over all edges of the last support), interval
    intersection on a line (1), vertex enumeration of half planes (2),
    and otherwise the max-slack simplex, one stacked call for all the
    node's edges.  At lines, one array pass over the node's edges first
    drops those that surely prune.  Points of a support that cannot be
    minimal anywhere in the parent cone are dropped before edges are
    formed, with their LPs stacked likewise.  Feasible children are
    explored fattest cone first, which gets the first cells out long
    before the search space is exhausted.  Verdicts in the grey zone
    below the slack margin raise TieDetected instead of guessing.
    """

    def __init__(self, lifted: LiftedSupport):
        self.lifted = lifted
        self.n = lifted.nvars
        self.points = [np.array(pts, dtype=float) for pts in lifted.points]
        self.lifts = [np.array(ws, dtype=float) for ws in lifted.lifts]
        # every float is dyadic: one power of two makes the whole lifting
        # integral, and ``certify`` works in integers
        ratios = [[float(w).as_integer_ratio() for w in ws] for ws in lifted.lifts]
        self.scale = max((den for rs in ratios for _, den in rs), default=1)
        self.int_lifts = [[num * (self.scale // den) for num, den in rs] for rs in ratios]
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

    def feasible_edges(self, sup: int) -> list[tuple[int, int]]:
        pairs = list(itertools.combinations(range(len(self.points[sup])), 2))
        empty_A, empty_b = np.zeros((0, self.n)), np.zeros(0)
        verdicts = self._edge_verdicts(sup, pairs, np.eye(self.n), np.zeros(self.n), empty_A, empty_b)
        if any(verdict == _TIE for verdict, _, _ in verdicts):
            raise TieDetected(f"support {sup}: an edge at the margin")
        return [pq for pq, (verdict, _, _) in zip(pairs, verdicts) if verdict == _FEASIBLE]

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

        child = (alpha_c, Uc, A_c, b_c) when the verdict is feasible, or
        when it is _LP: the child cone has three or more free dimensions
        and only the max-slack LP decides (``_edge_verdicts``).
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
        return _LP, 0.0, child

    def _edge_verdicts(self, sup, pairs, U, alpha0, A_acc, b_acc) -> list:
        """``_edge_verdict`` for every candidate edge of one node.  The
        LPs still open are stacked into one simplex call: each gives the
        max separation slack over the child's affine subspace and its
        maximizer, the deepest point of the cone and a good base for the
        grandchildren.  A simplex that gives up makes the lifting count
        as degenerate."""
        out = [self._edge_verdict(sup, p, q, U, alpha0, A_acc, b_acc) for p, q in pairs]
        lp = [i for i, (verdict, _, _) in enumerate(out) if verdict == _LP]
        if not lp:
            return out
        children = [out[i][2] for i in lp]
        G = np.stack([A_c @ Uc for _, Uc, A_c, _ in children])
        b = np.stack([b_c - A_c @ alpha_c for alpha_c, _, A_c, b_c in children])
        eps, V = _max_slack_simplex(G, b)
        if np.isnan(eps).any():
            raise TieDetected("max-slack simplex gave up")
        for i, e, v, (alpha_c, Uc, A_c, b_c) in zip(lp, eps.tolist(), V, children):
            if e > SLACK_MARGIN:
                out[i] = (_FEASIBLE, e, (alpha_c + Uc @ v, Uc, A_c, b_c))
            else:
                out[i] = (_PRUNE if e <= 0.0 else _TIE, e, None)
        return out

    def _surviving_points(self, sup, U, alpha0, A_acc, b_acc) -> set[int]:
        """One-point tests: which points of the support can be minimal
        somewhere in the parent cone."""
        pts, ws = self.points[sup], self.lifts[sup]
        k = len(pts)
        # point a is minimal: rows pts[a] - pts[c] <= ws[c] - ws[a], c != a
        others = ~np.eye(k, dtype=bool)
        rows = (pts[:, None, :] - pts[None, :, :])[others].reshape(k, k - 1, self.n)
        rhs = (ws[None, :] - ws[:, None])[others].reshape(k, k - 1)
        A_c = np.concatenate([np.broadcast_to(A_acc, (k,) + A_acc.shape), rows], axis=1)
        b_c = np.concatenate([np.broadcast_to(b_acc, (k,) + b_acc.shape), rhs], axis=1)
        off = b_c - A_c @ alpha0
        slack = off.min(axis=1)
        # one stacked simplex for every point whose quick check fails
        lp = slack <= SLACK_MARGIN
        if lp.any():
            eps, _ = _max_slack_simplex(A_c[lp] @ U, off[lp])
            if np.isnan(eps).any():
                raise TieDetected("max-slack simplex gave up")
            slack[lp] = eps
        if ((slack > 0.0) & (slack <= SLACK_MARGIN)).any():
            raise TieDetected(f"support {sup}: a point's minimality at the margin")
        return {a for a in range(k) if slack[a] > SLACK_MARGIN}

    def _line_screen(self, sup, pairs, U, alpha0, A_acc, b_acc) -> list[tuple[int, int]]:
        """At two free dimensions, drop in one array pass the candidate
        edges whose child line surely holds no feasible point.

        Each edge's line is the one ``_edge_verdict`` builds (alpha_c and
        the same Householder column); an edge is dropped when the
        interval test finds the line empty even with every row relaxed
        by SLACK_MARGIN, or when the edge's equality misses the parent's
        subspace by more than twice the margin, so ``_edge_verdict``
        would prune it.  The others go to ``_edge_verdict`` unchanged."""
        pq = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        pts, ws = self.points[sup], self.lifts[sup]
        p, q = pq[:, 0], pq[:, 1]
        e = np.arange(len(pq))
        a_vec = pts[p] - pts[q]
        g = a_vec @ U
        g2 = np.einsum("ij,ij->i", g, g)
        degenerate = g2 < 1e-24  # no line: the verdict prunes unless rho ties
        g2 = np.where(degenerate, 1.0, g2)
        rho = ws[q] - ws[p] - a_vec @ alpha0
        alpha_c = alpha0 + (g * (rho / g2)[:, None]) @ U.T
        # second column of the reflector I - 2 w w^T / w.w, w = g + sign(g0)|g| e1
        norm = np.sqrt(g2)
        w0 = g[:, 0] + np.where(g[:, 0] >= 0, norm, -norm)
        ww = w0 * w0 + g[:, 1] * g[:, 1]
        col = np.stack([-2.0 * w0 * g[:, 1] / ww, 1.0 - 2.0 * g[:, 1] * g[:, 1] / ww], axis=1)
        direction = col @ U.T
        # rows A alpha <= b on alpha_c + s direction: (A direction) s <= off
        vals = alpha_c @ pts.T + ws
        dvals = direction @ pts.T
        off = np.concatenate([b_acc - alpha_c @ A_acc.T, vals - vals[e, p][:, None]], axis=1)
        slope = np.concatenate([direction @ A_acc.T, dvals[e, p][:, None] - dvals], axis=1)
        own = len(b_acc) + pq.T  # the pair's own points give no row
        off[e, own] = np.inf
        slope[e, own] = 0.0
        off += SLACK_MARGIN
        up, down = slope > 1e-13, slope < -1e-13
        flat = ~(up | down)
        hi = np.divide(off, slope, out=np.full(off.shape, np.inf), where=up).min(axis=1)
        lo = np.divide(off, slope, out=np.full(off.shape, -np.inf), where=down).max(axis=1)
        empty = (flat & (off < 0.0)).any(axis=1) | (lo > hi)
        drop = np.where(degenerate, np.abs(rho) > 2.0 * SLACK_MARGIN, empty)
        return [pair for pair, dropped in zip(pairs, drop) if not dropped]

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
            pairs = edges[sup]
            if d >= 3 and len(self.points[sup]) >= 6 and len(inb) >= 10:
                alive = self._surviving_points(sup, U, alpha0, inA, inb)
                pairs = [(p, q) for p, q in pairs if p in alive and q in alive]
            elif d == 2:
                pairs = self._line_screen(sup, pairs, U, alpha0, inA, inb)
            children = []
            for (p, q), (verdict, slack, child) in zip(
                pairs, self._edge_verdicts(sup, pairs, U, alpha0, inA, inb)
            ):
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
        """Exact certificate for a full tuple; None if not a cell.

        The edge equalities are solved in integers: with the lifting
        scaled by ``self.scale``, the normal is alpha = N / (det * scale)
        and every slack is an integer over the same denominator.  Floats
        come from one correctly rounded int / int division each."""
        A, b = [], []
        for depth, sup in enumerate(self.order):
            p, q = chosen[depth]
            pts, ws = self.lifted.points[sup], self.int_lifts[sup]
            A.append([pts[p][j] - pts[q][j] for j in range(self.n)])
            b.append(ws[q] - ws[p])
        N, det = _bareiss_solve(A, b)
        if det == 0:
            raise TieDetected("edge directions are linearly dependent")
        den = det * self.scale
        # exact strict lower-hull check for every non-cell point
        texps_by_sup: dict[int, tuple[float, ...]] = {}
        for depth, sup in enumerate(self.order):
            p, q = chosen[depth]
            pts, ws = self.lifted.points[sup], self.int_lifts[sup]
            vals = [sum(c * x for c, x in zip(pt, N)) + w * det for pt, w in zip(pts, ws)]
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
                if slack / den < SLACK_MARGIN:
                    raise TieDetected("slack below certification margin")
                row.append(slack / den)
            texps_by_sup[sup] = tuple(row)
        pairs = []
        for sup in range(len(self.order)):
            p, q = chosen[self.order.index(sup)]
            pairs.append((self.lifted.points[sup][p], self.lifted.points[sup][q]))
        normal = tuple(x / den for x in N) + (1.0,)
        texps = tuple(texps_by_sup[sup] for sup in range(len(self.order)))
        # the volume is |det| of the edge directions, whatever their order and sign
        return MixedCell(tuple(pairs), normal, det, texps)


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

    shift = None

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

    def select(self, idx) -> "PolyhedralHomotopy":
        return self

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
    return track_paths(*cell_homotopy(cell, g, supports))


def cell_homotopy(
    cell: MixedCell, g: PolySystem, supports: Support
) -> tuple[PolyhedralHomotopy, np.ndarray]:
    """The cell's homotopy to g and its start points, the solutions of
    its binomial system, one row per path."""
    coeff_of = [dict(p.terms) for p in g.polys]
    V = []
    beta = []
    for i, (a, b_pt) in enumerate(cell.pairs):
        V.append([b_pt[j] - a[j] for j in range(g.nvars)])
        ca, cb = coeff_of[i][a], coeff_of[i][b_pt]
        beta.append(-ca / cb)
    return PolyhedralHomotopy(g, cell, supports), np.array(binomial_solutions(V, beta))
