"""Mixed cells of randomly lifted Newton polytopes, streamed one at a
time, plus the binomial start systems they induce.

Enumeration searches candidate edge tuples over the supports, pruning
with an LP that asks for a lower-hull normal compatible with the edges
chosen so far (the LP maximizes the worst separation slack); interval
intersection decides a child cone of one free direction, the LP every
larger one.  The search expands its frontier a batch at a time: a batch
is a contiguous run of nodes at one depth, and their tests run as
stacks, as MixedVol (Gao, Li and Wu, ACM TOMS 31, 2005) solves many
small LPs at once: one array pass for the point-survival test, the line
screen and the projection of every candidate edge, and one simplex call
for a stack of open LPs.  One byte budget, STACK_BYTES, bounds all
that one stacked call holds, its arrays, temporaries and simplex
stacks: each batch and stack holds as many nodes, candidate edges or
programs as fit in it, so the peak of memory stays put.  The batch's
children are searched in contiguous chunks, first chunk first, so the
tuples come out in the depth-first order of a search that expands one
node at a time.
A tuple that survives to full depth is certified exactly, in integers:
one power of two makes the float lifting integral, fraction-free
elimination solves the edge equalities, and every non-cell point must
keep strictly positive slack.  A tie means the lifting was degenerate:
the search raises TieDetected once its walk reaches the tied node, and
``generic_lifting``, the one relift loop, starts over on the next
lifting of the same seed.

Each cell is emitted through a callback as soon as it is certified, so
consumers can start tracking paths while the search is still running.
One ``PolyhedralHomotopy`` carries the paths of any list of cells, one
row of t-exponents per path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng as rngmod
from .polynomials import PolySystem, make_poly
# ``track`` stays a module attribute: tracing tools wrap this module's names
from .tracker import PathResult, track, track_paths  # noqa: F401

SLACK_MARGIN = 1e-9
STACK_BYTES = 768 * 1024  # all that one stacked call of the cell search may hold; sizes every run and stack
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


_FEASIBLE, _PRUNE, _TIE = 1, 0, -1


def _fit(item_bytes: int, *held: np.ndarray) -> int:
    """How many items of item_bytes one stacked call takes, at least one:
    as many as STACK_BYTES holds beside the held arrays and the buffer
    of a ufunc that broadcasts (np.getbufsize() numbers)."""
    room = STACK_BYTES - 8 * np.getbufsize() - sum(a.nbytes for a in held)
    return max(1, room // max(item_bytes, 1))


def _tableau_bytes(m: int, d: int, made: int = 0) -> int:
    """The bytes one program on m rows in d free directions holds in a
    stack of ``_max_slack_simplex``: its tableau of d + 2 rows of m + d +
    2 numbers and, beside it, first the made numbers of its G and b, then
    two rows of pivot work and a dozen numbers per free direction."""
    return 8 * ((d + 2) * (m + d + 2) + max(made, 2 * (m + d + 2) + 12 * (d + 1)))


def _candidate_bytes(M: int, n: int, d: int) -> int:
    """The bytes one candidate edge of a node with d free directions holds
    in ``_verdicts`` before its program: the node's basis and the
    reflector, or the child's M rows in n variables and in d - 1."""
    return 8 * max(n * (2 * d + 1) + 3 * d * d, M * (n + d + 1) + n * (d + 1))


def _pivot(T: np.ndarray, rows: np.ndarray, cols: np.ndarray, buf: np.ndarray, live: np.ndarray | None = None) -> None:
    """One simplex pivot in the programs of the stack T (tableau row,
    program, column), in place: program i pivots on row rows[i] and
    column cols[i] unless live marks it idle.  The elimination runs one
    tableau row, a contiguous block, at a time through buf."""
    i = np.arange(len(rows))
    prow = T[rows, i]
    if live is None:
        prow /= prow[i, cols][:, None]
    else:
        np.divide(prow, prow[i, cols][:, None], out=prow, where=live[:, None])
    T[rows, i] = prow
    colvals = T[:, i, cols]
    colvals[rows, i] = 0.0
    for r in range(len(T)):
        np.multiply(colvals[r, :, None], prow, out=buf)
        if live is None:
            T[r] -= buf
        else:
            np.subtract(T[r], buf, out=T[r], where=live[:, None])


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
    take alone.  The stack holds one tableau per program and no copy of
    it, nor G and b once a caller passes them as temporaries: pivots work
    in place, and finished programs give up their slots to running ones.
    """
    K, m, d = G.shape
    ncols = m + 1 + d
    # tableau rows: d+1 constraint rows, one cost row; last column = rhs.
    # Row r of every program is one contiguous (K, ncols + 1) block.
    T = np.zeros((d + 2, K, ncols + 1))
    T[:d, :, :m] = G.transpose(2, 0, 1)
    T[d, :, : m + 1] = 1.0
    for i in range(d):
        T[i, :, m + 1 + i] = 1.0
    T[d, :, ncols] = 1.0
    # reduced costs: cost c = [b, 1, 0...]; basis = artificials + eps column
    T[d + 1, :, :m] = b - 1.0
    T[d + 1, :, ncols] = -1.0  # negative objective value
    del G, b
    buf = np.empty((K, ncols + 1))
    eps = np.full(K, np.nan)
    v = np.full((K, d), np.nan)
    basis = np.tile(np.r_[np.arange(m + 1, ncols), m], (K, 1))  # basic column of each row

    # drive the artificials out immediately with degenerate pivots (their
    # rows have rhs 0, so nothing moves); a row with no real support is
    # inert and can keep its artificial at zero forever
    for i in range(d):
        row = np.abs(T[i, :, : m + 1], out=buf[:, : m + 1])
        j = np.argmax(row, axis=1)
        ok = row[np.arange(K), j] > 1e-11
        if ok.any():
            _pivot(T, np.full(K, i), j, buf, None if ok.all() else ok)
        basis[ok, i] = j[ok]
    prog = np.arange(K)  # the program of each tableau still pivoting
    k = np.arange(K)
    stall = np.zeros(K, dtype=int)
    for _ in range(800):
        costs = T[d + 1, :, : m + 1]  # artificials may not enter
        enter = np.argmin(costs, axis=1)
        optimal = costs[k, enter] >= -1e-11
        bland = stall >= 3 * (d + 2)
        if bland.any():  # Bland's rule against cycling: smallest entering column
            neg = costs[bland] < -1e-11
            enter[bland] = np.argmax(neg, axis=1)
            optimal[bland] = ~neg.any(axis=1)
        col = T[: d + 1, k, enter].T
        pos = col > 1e-11
        stop = optimal | ~pos.any(axis=1)  # optimal, or a numerically unbounded dual
        if stop.any():
            eps[prog[optimal]] = -T[d + 1, optimal, ncols]
            v[prog[optimal]] = -T[d + 1, optimal, m + 1 : ncols]
            go = ~stop
            if not go.any():
                return eps, v
            # the running programs close ranks in place: those behind the
            # first L slots move into the slots of programs that stopped
            L = int(go.sum())
            hole, mover = np.flatnonzero(stop[:L]), L + np.flatnonzero(go[L:])
            for r in range(d + 2):
                T[r, hole] = T[r, mover]
            T, buf = T[:, :L], buf[:L]
            keep = np.arange(L)
            keep[hole] = mover
            prog, stall, enter, col, pos, basis, bland = (
                x[keep] for x in (prog, stall, enter, col, pos, basis, bland)
            )
            k = np.arange(L)
        ratios = np.divide(T[: d + 1, :, ncols].T, col, out=np.full(col.shape, np.inf), where=pos)
        leave = np.argmin(ratios, axis=1)
        if bland.any():  # ... and, among tied ratios, smallest leaving basic column
            tied = ratios[bland] == ratios[bland].min(axis=1, keepdims=True)
            leave[bland] = np.argmin(np.where(tied, basis[bland], ncols), axis=1)
        basis[k, leave] = enter
        stall = np.where(ratios[k, leave] <= 1e-13, stall + 1, 0)
        _pivot(T, leave, enter, buf)
    return eps, v


@dataclass
class _Level:
    """A contiguous run of search nodes at one depth, in depth-first
    order: each node's chosen edges, edge (N, depth), as indices into the
    feasible edges of the supports searched so far, and, stacked over the
    nodes, a point alpha (N, n) deep inside its cone and the orthonormal
    basis U (N, n, d) of its free normal directions.

    A run of children stores neither U nor rows, and only its last
    edges, edge (N, 1): node i's parent is node up[i] of ``parent``,
    which keeps only the edges and bases of nodes with children, and the
    walk makes the run's edges and bases from theirs when it reaches it
    (``_CellSearch._walk``), in the very products of ``_verdicts``.  The
    rows a node's edges impose are shared by every node that chose the
    edge, and ``_CellSearch._rows`` gathers them for the test that needs
    them."""

    edge: np.ndarray
    alpha: np.ndarray | None
    up: np.ndarray | None
    parent: "_Level | None"
    U: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.edge)


def _reflect(U: np.ndarray, a_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """An edge direction a_vec (C, n) in the free directions U (C, n, d)
    of its node: g = a_vec U, its squared norm g2 (1 where a_vec misses
    the subspace), that miss, and the child's basis Uc (C, n, d - 1).
    The reflector that sends g to +-|g| e_1 keeps its other columns for
    Uc, which span g's complement.  Every product keeps the shapes of a
    one-edge computation, so a row's bits do not depend on the stack."""
    d = U.shape[2]
    g = (a_vec[:, None, :] @ U)[:, 0]
    g2 = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
    degenerate = g2 < 1e-24
    g2 = np.where(degenerate, 1.0, g2)  # degenerate rows compute throwaway values
    v = g.copy()
    norm = np.sqrt(g2)
    v[:, 0] += np.where(v[:, 0] >= 0, norm, -norm)
    vv = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    H = np.eye(d) - (v[:, :, None] * v[:, None, :]) * (2.0 / vv)[:, None, None]
    return g, g2, degenerate, U @ H[:, :, 1:]


def _slack_lps(count: int, m: int, d: int, rows, rhs, made: int = 0, held: tuple = ()):
    """``_max_slack_simplex`` on count programs of m rows in d free
    directions, in stacks as large as STACK_BYTES holds beside the held
    arrays.  rows(s) and rhs(s) give the G and b of the programs in the
    slice s, passed on as temporaries; made is their numbers per program
    when they are made for the stack.  A program's answer does not
    depend on its stack."""
    size = _fit(_tableau_bytes(m, d, made), *held)
    parts = [_max_slack_simplex(rows(slice(s, s + size)), rhs(slice(s, s + size))) for s in range(0, count, size)]
    return np.concatenate([eps for eps, _ in parts]), np.concatenate([v for _, v in parts])


def _first_true(rows: np.ndarray) -> np.ndarray:
    """Per row of a boolean (N, E) array, the index of its first True,
    or E when it has none."""
    return np.where(rows.any(axis=1), rows.argmax(axis=1), rows.shape[1])


def _line_verdicts(slope: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Feasibility of the rows A alpha <= b on each child line
    alpha_c + s u, stacked: slope = A u and off = b - A alpha_c, both
    (C, M).  Interval intersection at the margin, and at zero to tell a
    prune from a tie."""
    pos, neg = slope > 1e-13, slope < -1e-13
    flat_min = np.where(pos | neg, np.inf, off).min(axis=1)
    qp = np.divide(off, slope, out=np.zeros_like(off), where=pos)
    rp = np.divide(1.0, slope, out=np.zeros_like(off), where=pos)
    qn = np.divide(off, slope, out=np.zeros_like(off), where=neg)
    rn = np.divide(1.0, slope, out=np.zeros_like(off), where=neg)

    def empty(margin) -> np.ndarray:
        # window at margin m: max((off-m)/slope_neg) <= s <= min((off-m)/slope_pos)
        hi = np.where(pos, qp - margin * rp, np.inf).min(axis=1)
        lo = np.where(neg, qn - margin * rn, -np.inf).max(axis=1)
        return (flat_min < margin) | (lo > hi)

    return np.where(~empty(SLACK_MARGIN), _FEASIBLE, np.where(empty(0.0), _PRUNE, _TIE))


def _line_window(off: np.ndarray, slope: np.ndarray, hi: np.ndarray, lo: np.ndarray, flat_out: np.ndarray) -> None:
    """Narrow the windows [lo, hi] of a stack of lines, in place, to the
    s that the rows slope * s <= off (..., M) allow, each relaxed by
    SLACK_MARGIN, and mark in flat_out a line that a flat row leaves
    empty.  The M rows are taken one at a time, so no temporary is
    larger than one row of the stack."""
    for j in range(off.shape[-1]):
        o, s = off[..., j] + SLACK_MARGIN, slope[..., j]
        up, down = s > 1e-13, s < -1e-13
        flat_out |= (o < 0.0) & ~(up | down)
        np.minimum(hi, np.divide(o, s, out=np.full_like(o, np.inf), where=up), out=hi)
        np.maximum(lo, np.divide(o, s, out=np.full_like(o, -np.inf), where=down), out=lo)


class _CellSearch:
    """Edge-tuple search with lower-hull pruning, expanded one level
    batch at a time and walked depth first.

    Each chosen edge adds one equality on the normal; a node keeps an
    orthonormal basis of the remaining free directions and a point deep
    inside its feasibility cone.  Nodes at one depth share the support,
    the free dimension and the row counts, so a contiguous run of them
    (a ``_Level``) is tested as one stack: the point-survival test, the
    line screen, the projection of every candidate edge into its child
    cone, and the max-slack programs.  One byte budget, STACK_BYTES,
    bounds all that each of these calls holds: a run holds as many nodes
    as the arrays of its tests fit in it (``_node_bytes``), a pass of
    ``_verdicts`` as many candidate edges as theirs fit
    (``_candidate_bytes``), and a simplex call as many programs as fit
    in what the calling pass leaves (``_tableau_bytes``).  What one node
    costs is cut to what it must hold: the nodes of a level share the
    rows of their chosen edges (``_rows``), a run of children keeps only
    its points and last edges until the walk reaches it, and the screens
    bound the lines and pinned normals in the node's own coordinates,
    one chosen edge's rows at a time.

    A strictly feasible projected point certifies an edge by itself;
    otherwise interval intersection decides a child line, and the
    max-slack simplex every child cone with two or more free dimensions,
    as in MixedVol.  At the last support the normal is pinned per edge
    and checked directly.

    A node's children keep the order (-slack, p, q), fattest cone
    first; the children of a run are searched in contiguous chunks,
    first chunk first, so tuples reach ``visit`` in exactly the order of
    a search that expands one node at a time, and the first cells
    surface long before the search space is exhausted.  A verdict in the
    grey zone below the slack margin is a tie of its node; it raises
    TieDetected only when the walk reaches that node, so a search that
    ``visit`` stops earlier never raises it.
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
        # the rows of a node at each depth: k - 2 per chosen edge
        self.width = np.cumsum([0] + [max(len(lifted.points[s]) - 2, 0) for s in self.order])

    def _root(self) -> _Level:
        n = self.n
        edge = np.zeros((1, 0), dtype=np.intp)
        return _Level(edge, np.zeros((1, n)), np.zeros(1, dtype=np.intp), None, np.eye(n)[None])

    def feasible_edges(self, sup: int) -> np.ndarray:
        """The (E, 2) point pairs of the support that are a lower edge
        for some normal."""
        pq = np.array(list(itertools.combinations(range(len(self.points[sup])), 2)), dtype=np.intp).reshape(-1, 2)
        size = _fit(_candidate_bytes(max(len(self.points[sup]) - 2, 0), self.n, self.n))
        root, verdict = self._root(), np.zeros(len(pq), dtype=int)
        for s in range(0, len(pq), size):
            p, q = pq[s : s + size].T
            verdict[s : s + size] = self._verdicts(sup, root, np.zeros(len(p), dtype=np.intp), p, q)[0]
        if (verdict == _TIE).any():
            raise TieDetected(f"support {sup}: an edge at the margin")
        return pq[verdict == _FEASIBLE]

    def _edge_rows(self, sup, p, q, A=None, b=None) -> tuple[np.ndarray, np.ndarray]:
        """The rows pts[p] - pts[c] <= ws[c] - ws[p], c != p, q, that keep
        each pair (p[i] < q[i]) minimal on its support: (C, k-2, n) and
        (C, k-2), a row at a time, into A and b when they are given."""
        pts, ws = self.points[sup], self.lifts[sup]
        w = max(len(pts) - 2, 0)  # a one-point support has no pair
        if A is None:
            A, b = np.empty((len(p), w, self.n)), np.empty((len(p), w))
        for j in range(w):
            c = j + (j >= p) + (j + 1 >= q)  # the j-th point that is neither p nor q
            np.subtract(pts[p], pts[c], out=A[:, j])
            np.subtract(ws[c], ws[p], out=b[:, j])
        return A, b

    def _row_blocks(self, edge: np.ndarray):
        """The rows that the chosen edges edge (N, depth) of N nodes
        impose, one depth at a time: (N, k-2, n) and (N, k-2) per depth,
        gathered from the rows every node that chose an edge shares."""
        for t, s in enumerate(self.order[: edge.shape[1]]):
            rows, rhs = self.edge_rows[s]
            yield rows[edge[:, t]], rhs[edge[:, t]]

    def _rows(self, edge: np.ndarray, extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """All the rows A alpha <= b that the chosen edges edge (N, depth)
        of N nodes impose, (N, m, n) and (N, m); ``extra`` more rows at the
        end are left for the caller to fill."""
        N, m = len(edge), self.width[edge.shape[1]]
        A, b = np.empty((N, m + extra, self.n)), np.empty((N, m + extra))
        for t, (rows, rhs) in enumerate(self._row_blocks(edge)):
            at = slice(self.width[t], self.width[t + 1])
            A[:, at], b[:, at] = rows, rhs
        return A, b

    def _verdicts(self, sup, level: _Level, node, p, q):
        """Verdicts on the candidate edges (p[c], q[c]) of the nodes
        node[c] of the level, all in one stack.  Returns the verdicts
        (C,), the slacks (C,) that order feasible children, and the
        children's points alpha_c (C, n), meaningful in the feasible
        rows.

        An edge's equality, eliminated inside the node's free subspace,
        gives the child's point alpha_c, and a Householder reflector
        gives the child's basis Uc.  Every product keeps the shapes of a
        one-edge computation, stacked along a leading axis, so each
        row's bits do not depend on the stack.  The child's rows A_c (C,
        M, n) and its basis Uc live only inside this call; the walk makes
        Uc again when it reaches the child.  The LPs still open give the max
        separation slack over the child's affine subspace and its
        maximizer, the deepest point of the cone and a good base for the
        grandchildren; a child plane keeps its projected point and zero
        slack, which fixes the order of the cells.  A simplex that gives
        up makes its edge a tie."""
        pts, ws = self.points[sup], self.lifts[sup]
        U, alpha = level.U[node], level.alpha[node]
        C, d = len(node), U.shape[2]
        a_vec = pts[p] - pts[q]
        g, g2, degenerate, Uc = _reflect(U, a_vec)
        rho = ws[q] - ws[p] - (a_vec[:, None, :] @ alpha[:, :, None])[:, 0, 0]
        # an equality outside the free subspace: prune, or tie at the margin
        verdict = np.where(degenerate & (np.abs(rho) < SLACK_MARGIN), _TIE, _PRUNE)
        alpha_c = alpha + (U @ (g * (rho / g2)[:, None])[:, :, None])[..., 0]
        del U, alpha, g, g2, rho, a_vec
        # the node's rows, then the pair's: minimal on its support
        m = self.width[level.edge.shape[1]]
        A_c, off = self._rows(level.edge[node], extra=max(len(pts) - 2, 0))
        self._edge_rows(sup, p, q, A_c[:, m:], off[:, m:])
        off -= (A_c @ alpha_c[:, :, None])[..., 0]
        # a strictly feasible projected point certifies the child outright
        quick = off.min(axis=1) if off.shape[1] else np.ones(C)
        sure = ~degenerate & (quick > SLACK_MARGIN)
        verdict[sure] = _FEASIBLE
        slack = np.where(sure, quick, 0.0)
        rest = np.flatnonzero(~degenerate & ~sure)
        if not len(rest):
            return verdict, slack, alpha_c
        if d == 1:
            verdict[rest] = np.where(quick[rest] <= 0.0, _PRUNE, _TIE)
            return verdict, slack, alpha_c
        G = A_c @ Uc  # the rows in the child's free directions, (C, M, d - 1)
        del A_c
        if len(rest) < C:
            G, off = G[rest], off[rest]
        if d == 2:
            verdict[rest] = _line_verdicts(G[:, :, 0], off)
        else:
            held = (G, off, Uc, alpha_c, slack, verdict, quick, rest, degenerate, sure)
            eps, V = _slack_lps(len(rest), off.shape[1], d - 1, lambda s: G[s], lambda s: off[s], held=held)
            won = eps > SLACK_MARGIN
            verdict[rest] = np.where(won, _FEASIBLE, np.where(eps <= 0.0, _PRUNE, _TIE))  # NaN ties
            if d > 3:  # a child plane keeps its projected point and zero slack
                slack[rest[won]] = eps[won]
                alpha_c[rest[won]] += (Uc[rest[won]] @ V[won][:, :, None])[..., 0]
        return verdict, slack, alpha_c

    def _surviving_points(self, sup, level: _Level) -> tuple[np.ndarray, np.ndarray]:
        """One-point tests: which points of the support can be minimal
        somewhere in each node's cone, (N, k), and which nodes tie, (N,).

        Point a is minimal where the rows pts[a] - pts[c] <= ws[c] -
        ws[a], c != a, hold besides the node's own rows.  The two blocks
        are multiplied out apart, the node's once per node, and joined
        only in the stacks of the programs that the quick check leaves
        open."""
        pts, ws = self.points[sup], self.lifts[sup]
        N, k, d = len(level), len(pts), level.U.shape[2]
        others = ~np.eye(k, dtype=bool)
        rows = (pts[:, None, :] - pts[None, :, :])[others].reshape(k, k - 1, self.n)
        rhs = (ws[None, :] - ws[:, None])[others].reshape(k, k - 1)
        U, alpha = level.U, level.alpha
        A, own = self._rows(level.edge)
        own -= (A @ alpha[:, :, None])[..., 0]  # (N, m)
        point = (rows @ alpha[:, None, :, None])[..., 0]
        np.subtract(rhs, point, out=point)  # (N, k, k-1)
        slack = np.minimum(own.min(axis=1)[:, None], point.min(axis=2))
        # stacked simplex calls for every point whose quick check fails
        i, a = np.nonzero(slack <= SLACK_MARGIN)
        tie = np.zeros(N, dtype=bool)
        if len(i):
            AU = A @ U
            del A
            M = own.shape[1] + k - 1
            eps, _ = _slack_lps(
                len(i), M, d,
                lambda s: np.concatenate([AU[i[s]], rows[a[s]] @ U[i[s]]], axis=1),
                lambda s: np.concatenate([own[i[s]], point[i[s], a[s]]], axis=1),
                made=M * (d + 1), held=(AU, own, point, slack, i, a),
            )
            tie[i[np.isnan(eps)]] = True
            slack[i, a] = eps
        tie |= ((slack > 0.0) & (slack <= SLACK_MARGIN)).any(axis=1)
        return slack > SLACK_MARGIN, tie

    def _line_screen(self, sup, level: _Level) -> np.ndarray:
        """At two free dimensions, the (N, E) mask of candidate edges
        that survive one array pass: an edge is dropped when its child
        line surely holds no feasible point.

        Each edge's line is the one ``_verdicts`` builds (the point that
        solves the edge's equality and the same Householder column),
        written in the node's coordinates U: alpha0 + U (c + s u).  An
        edge is dropped when the interval test finds the line empty even
        with every row relaxed by SLACK_MARGIN, or when the edge's
        equality misses the parent's subspace by more than twice the
        margin, so ``_verdicts`` would prune it.  The others go to
        ``_verdicts`` unchanged.  The support's points and the rows of
        each chosen edge bound the line in turn, and their windows are
        intersected."""
        pq = self.edges[sup]
        pts, ws = self.points[sup], self.lifts[sup]
        U, alpha0 = level.U, level.alpha
        p, q = pq[:, 0], pq[:, 1]
        e = np.arange(len(pq))
        a_vec = pts[p] - pts[q]
        g = a_vec @ U  # (N, E, 2)
        g2 = np.einsum("...ij,...ij->...i", g, g)
        degenerate = g2 < 1e-24  # no line: the verdict prunes unless rho ties
        g2 = np.where(degenerate, 1.0, g2)
        rho = ws[q] - ws[p] - (a_vec @ alpha0[:, :, None])[..., 0]
        c = g * (rho / g2)[..., None]
        # second column of the reflector I - 2 w w^T / w.w, w = g + sign(g0)|g| e1
        g0, g1 = g[..., 0], g[..., 1]
        w0 = g0 + np.where(g0 >= 0, np.sqrt(g2), -np.sqrt(g2))
        ww = w0 * w0 + g1 * g1
        u = np.stack([-2.0 * w0 * g1 / ww, 1.0 - 2.0 * g1 * g1 / ww], axis=-1)
        del g, g0, g1, g2, w0, ww
        # a row a.alpha <= b on the line: (a U u) s <= b - a.alpha0 - (a U) c;
        # first the support's points: pts[p] - pts[r] <= ws[r] - ws[p]
        PU = (pts @ U).transpose(0, 2, 1)  # (N, 2, k)
        off = c @ PU  # the lifted values, then the slacks
        off += (alpha0 @ pts.T + ws)[:, None, :]
        off -= off[:, e, p][..., None]
        slope = u @ PU
        np.subtract(slope[:, e, p][..., None], slope, out=slope)
        off[:, e, pq.T] = np.inf  # the pair's own points give no row
        slope[:, e, pq.T] = 0.0
        hi, lo, empty = np.full(rho.shape, np.inf), np.full(rho.shape, -np.inf), np.zeros(rho.shape, dtype=bool)
        _line_window(off, slope, hi, lo, empty)
        del off, slope
        for A, b in self._row_blocks(level.edge):
            AU = (A @ U).transpose(0, 2, 1)  # (N, 2, w)
            off = c @ AU
            np.subtract((b - (A @ alpha0[:, :, None])[..., 0])[:, None, :], off, out=off)
            _line_window(off, u @ AU, hi, lo, empty)
        return ~np.where(degenerate, np.abs(rho) > 2.0 * SLACK_MARGIN, empty | (lo > hi))

    def _expand(self, sup, level: _Level, size: int) -> tuple[list[_Level], bool]:
        """The children of the level's nodes in depth-first order, up to
        the first node that ties, in runs of size nodes that share no
        array, and whether one ties.  The candidate edges that pass the
        screens go to ``_verdicts`` as many at a time as STACK_BYTES holds
        (``_candidate_bytes``).  The walk gives a run its bases and
        chosen edges when it gets there."""
        pq = self.edges[sup]
        N, d, k = len(level), level.U.shape[2], len(self.points[sup])
        m = self.width[level.edge.shape[1]]
        tie = np.zeros(N, dtype=bool)
        if d >= 3 and k >= 6 and m >= 10:
            alive, tie = self._surviving_points(sup, level)
            mask = alive[:, pq[:, 0]] & alive[:, pq[:, 1]]
        elif d == 2:
            mask = self._line_screen(sup, level)
        else:
            mask = np.ones((N, len(pq)), dtype=bool)
        node, e = np.nonzero(mask)
        chunk = _fit(_candidate_bytes(m + max(k - 2, 0), self.n, d))
        found = [(node[:0], e[:0], np.zeros(0), np.zeros((0, self.n)))]
        for s in range(0, len(node), chunk):
            nd, ed = node[s : s + chunk], e[s : s + chunk]
            verdict, slack, alpha_c = self._verdicts(sup, level, nd, pq[ed, 0], pq[ed, 1])
            tie[nd[verdict == _TIE]] = True
            won = verdict == _FEASIBLE
            found.append((nd[won], ed[won], slack[won], alpha_c[won]))
        node, e, slack, alpha_c = (np.concatenate(x) for x in zip(*found))
        stop = _first_true(tie[None])[0]
        rows = np.flatnonzero(node < stop)
        # fattest cone first within each node; edge indices follow (p, q) order
        rows = rows[np.lexsort((e[rows], -slack[rows], node[rows]))]
        # the children's parents keep only what the walk makes the
        # children's edges and bases from
        has, up = np.unique(node[rows], return_inverse=True)
        parent = _Level(level.edge[has], None, None, None, level.U[has])
        runs = [slice(s, s + size) for s in range(0, len(rows), size)]
        return [_Level(e[rows[r], None], alpha_c[rows[r]], up[r], parent) for r in runs], stop < N

    def _leaves(self, sup, level: _Level) -> tuple[list[np.ndarray], np.ndarray]:
        """At one free dimension the normal is pinned per candidate edge:
        one stacked check of every edge of every node.  Returns, per
        node, the edges that complete a tuple, in edge order and up to
        its first tie, and which nodes tie.  The pinned normal of edge e
        is alpha0 + U t[e] on the node's line, so a row's slack there is
        its slack at alpha0 less its rate along U times t[e]; the rows of
        each chosen edge are checked in turn."""
        pq = self.edges[sup]
        N, E = len(level), len(pq)
        if not E:
            return [pq] * N, np.zeros(N, dtype=bool)
        pts, ws = self.points[sup], self.lifts[sup]
        U, alpha0 = level.U, level.alpha
        p, q = pq[:, 0], pq[:, 1]
        Aed, red = pts[p] - pts[q], ws[q] - ws[p]
        g = Aed @ U  # (N, E, 1)
        rho = red - (Aed @ alpha0[:, :, None])[..., 0]
        gnorm2 = np.einsum("nij,nij->ni", g, g)
        degenerate = gnorm2 < 1e-24
        t = (g[..., 0] * (rho / np.where(degenerate, 1.0, gnorm2)))[:, None, :]  # (N, 1, E)
        idx = np.arange(E)
        SL = (pts @ U) * t  # the lifted values, then each edge's slacks
        SL += pts @ alpha0[:, :, None] + ws[:, None]
        SL -= SL[:, p, idx][:, None, :]
        SL[:, p, idx] = np.inf
        SL[:, q, idx] = np.inf
        mins = SL.min(axis=1)
        del SL
        for A, b in self._row_blocks(level.edge):
            R = (A @ U) * t
            np.subtract((b - (A @ alpha0[:, :, None])[..., 0])[:, :, None], R, out=R)
            mins = np.minimum(mins, R.min(axis=1, initial=np.inf))
        tied = np.where(degenerate, np.abs(rho) < SLACK_MARGIN, (mins > 0.0) & (mins <= SLACK_MARGIN))
        stop = _first_true(tied)
        leaf = ~degenerate & (mins > SLACK_MARGIN) & (idx < stop[:, None])
        return [pq[row] for row in leaf], stop < E

    def run(self, visit: Callable[[list[tuple[int, int]]], bool]) -> bool:
        """Visit every edge tuple that survives the search, in depth-first
        order; visit returns False to stop the whole search early."""
        self.edges = {sup: self.feasible_edges(sup) for sup in self.order}
        self.edge_rows = {sup: self._edge_rows(sup, pq[:, 0], pq[:, 1]) for sup, pq in self.edges.items()}
        return self._walk(0, self._root(), visit)

    def _node_bytes(self, depth: int) -> int:
        """The bytes per node that the tests of a run at the depth hold,
        over the E candidate edges and k points of its support: the
        slacks of every edge at every point (``_leaves``), each edge's
        line against every point and ten numbers more per edge
        (``_line_screen``), or above, the bases of as many children: the
        point-survival test holds at most half of that and its programs'
        stacks take the rest."""
        sup = self.order[depth]
        E, k, d = len(self.edges[sup]), len(self.points[sup]), self.n - depth
        if d == 1:
            return 8 * E * (k + 6)
        if d == 2:
            return 8 * E * (2 * k + 10)
        return 8 * E * self.n * d

    def _walk(self, depth: int, level: _Level, visit) -> bool:
        """Search the level's subtrees in order: expand the level, then
        walk its children in runs of as many nodes as STACK_BYTES holds
        (``_node_bytes``), each let go once it is walked.  A run of
        children first gets its bases, made
        from its parents' in the products ``_verdicts`` made them with,
        so they are the same bits."""
        sup = self.order[depth]
        if level.U is None:  # a run of children: its chosen edges and bases from its parents'
            pts = self.points[self.order[depth - 1]]
            p, q = self.edges[self.order[depth - 1]][level.edge[:, -1]].T
            level.U = _reflect(level.parent.U[level.up], pts[p] - pts[q])[3]
            level.edge = np.concatenate([level.parent.edge[level.up], level.edge], axis=1)
        if level.U.shape[2] == 1:
            ends, ties = self._leaves(sup, level)
            pairs = [self.edges[s][level.edge[:, t]].tolist() for t, s in enumerate(self.order[:depth])]
            for i, (end, tie) in enumerate(zip(ends, ties)):
                chosen = [tuple(pair[i]) for pair in pairs]
                for p, q in end.tolist():
                    if not visit([*chosen, (p, q)]):
                        return False
                if tie:
                    raise TieDetected("pinned normal slack at the margin")
            return True
        runs, tie = self._expand(sup, level, _fit(self._node_bytes(depth + 1)))
        del level
        runs.reverse()
        while runs:  # a run is let go once it is walked
            if not self._walk(depth + 1, runs.pop(), visit):
                return False
        if tie:
            raise TieDetected("partial tuple slack at the margin")
        return True

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


def _cell_evaluators(g: PolySystem, supports: Support):
    """The value, magnitude and Jacobian evaluators of g, and the term of
    g that each Jacobian term differentiates, which is kept in g's
    cache.  A cell's t-exponents follow the points of the supports, so
    g's terms must be those points, in their order."""
    jterm = g._cache.get("jterm")
    if jterm is None:
        if [tuple(e for e, _ in p.terms) for p in g.polys] != list(supports):
            raise ValueError("start system terms must align with the support")
        first = np.cumsum([0] + [len(p.terms) for p in g.polys])
        jterm = g._cache["jterm"] = np.array(
            [first[i] + k for i, p in enumerate(g.polys) for j in range(g.nvars) for k, (e, _) in enumerate(p.terms) if e[j]],
            dtype=np.intp,
        )
    return g._evaluator(), g._abs_evaluator(), g._jac_evaluator(), jterm


class PolyhedralHomotopy:
    """The continuations of a list of cells, one path per row: the
    coefficients of g weighted by t raised to the (rescaled) lifted
    slacks of the path's cell.  At t=0 only the cell's binomial
    survives; at t=1 every weight is 1 and the system is the start
    system g itself, which is the homotopy's ``target``.  The evaluators
    are g's own, the same for every cell and every homotopy of g, so
    ``select`` slices the rows of t-exponents."""

    shift = None

    def __init__(self, g: PolySystem, cells: Sequence[MixedCell], supports: Support):
        self.target = g
        self.dim = g.nvars
        self._ev, self._aev, self._jev, jterm = _cell_evaluators(g, supports)
        raw = np.array([[w for ws in cell.texps for w in ws] for cell in cells], dtype=float)
        positive = raw > SLACK_MARGIN
        scale = 1.0 / np.where(positive, raw, np.inf).min(axis=1, keepdims=True)
        volumes = [cell.volume for cell in cells]
        self._texp = np.repeat(np.where(positive, raw * scale, 0.0), volumes, axis=0)
        self._jtexp = np.repeat(np.where(positive[:, jterm], raw[:, jterm] * scale, 0.0), volumes, axis=0)

    def select(self, idx) -> "PolyhedralHomotopy":
        out = object.__new__(PolyhedralHomotopy)  # not copy.copy: the tracker selects at every corrector iteration
        out.__dict__.update(self.__dict__, _texp=self._texp[idx], _jtexp=self._jtexp[idx])
        return out

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self._ev(x, weights=t[:, None] ** self._texp)

    def jac(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        flat = self._jev(x, weights=t[:, None] ** self._jtexp)
        return flat.reshape(len(x), self.dim, self.dim)

    def eval_scale(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = self._aev(np.abs(x).astype(np.complex128), weights=t[:, None] ** self._texp)
        return np.max(v.real, axis=1)


def solve_cell(cells: Sequence[MixedCell], g: PolySystem, supports: Support) -> list[PathResult]:
    """Track the cells' paths, volume-many per cell, from their binomial
    systems to solutions of the start system g at t=1, as one batch; the
    results in the order of ``cell_homotopy``."""
    return track_paths(*cell_homotopy(cells, g, supports))


def cell_homotopy(
    cells: Sequence[MixedCell], g: PolySystem, supports: Support
) -> tuple[PolyhedralHomotopy, np.ndarray]:
    """The homotopy of the cells' paths to g and their start points, the
    solutions of each cell's binomial system, one row per path in the
    order of the cells."""
    coeff_of = [dict(p.terms) for p in g.polys]
    starts = []
    for cell in cells:
        V = [[b[j] - a[j] for j in range(g.nvars)] for a, b in cell.pairs]
        beta = [-coeff_of[i][a] / coeff_of[i][b] for i, (a, b) in enumerate(cell.pairs)]
        starts += binomial_solutions(V, beta)
    return PolyhedralHomotopy(g, cells, supports), np.array(starts)
