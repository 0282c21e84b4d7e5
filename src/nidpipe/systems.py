"""Benchmark systems, squaring of non-square systems, and embeddings.

Squaring keeps a system's variables: missing rows become zero rows,
which the embedding turns into slack rows, and surplus rows are
randomized into the first n.

An embedding augments a square system with k random hyperplanes and k
slack variables z1..zk: base equation i picks up gamma[i][j] * zj for
every j, and hyperplane j is an affine equation in the original
variables plus zj with coefficient exactly 1.  Slack variables are
appended after the original ones and hyperplane j is equation n+j, so
levels peel off the embedding from the back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rng as rngmod
from .polynomials import (
    PolySystem,
    SparsePolynomial,
    constant_poly,
    extend_vars,
    make_poly,
    poly_add,
    poly_mul,
    poly_scale,
    variable_poly,
)


def cyclic(n: int) -> PolySystem:
    """The cyclic n-roots system.

    Equation j (1 <= j < n) sums the n cyclic products of j consecutive
    variables; equation n is x1*...*xn - 1.
    """
    if n < 1:
        raise ValueError("cyclic requires n >= 1")
    polys = []
    for j in range(1, n):
        terms = []
        for i in range(n):
            expo = [0] * n
            for l in range(j):
                expo[(i + l) % n] += 1
            terms.append((tuple(expo), 1.0 + 0j))
        polys.append(make_poly(n, terms))
    last = [((1,) * n, 1.0 + 0j), ((0,) * n, -1.0 + 0j)]
    polys.append(make_poly(n, last))
    return PolySystem(n, tuple(polys))


def _univar_factor(nvars: int, var: int, root: float) -> SparsePolynomial:
    return poly_add(variable_poly(nvars, var), constant_poly(nvars, -root))


def demo_system() -> PolySystem:
    """A 4x4 system with components in dimensions 3, 2, 1 and isolated
    points, used throughout the tests.  Products are expanded."""
    n = 4
    rows = [
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        [(0, 1), (1, 1), (1, 2), (1, 3)],
        [(0, 1), (0, 2), (2, 1), (2, 2)],
        [(0, 1), (1, 1), (2, 1), (3, 1)],
    ]
    polys = []
    for factors in rows:
        p = constant_poly(n, 1.0 + 0j)
        for var, root in factors:
            p = poly_mul(p, _univar_factor(n, var, root))
        polys.append(p)
    return PolySystem(n, tuple(polys))


@dataclass(frozen=True)
class SquaringRecord:
    """How ``square_up`` made a system square: kind "already-square",
    "zero-rows" (count of them) or "randomized" (count of rows folded in)."""

    kind: str
    count: int = 0


def square_up(f: PolySystem, seed: int) -> tuple[PolySystem, SquaringRecord]:
    """Make a system of m rows in n variables square, in the same variables.

    Zero rows are dropped; fewer than n rows left are padded with zero
    rows, so the top dimension is at least n - m.  More than n rows are
    randomized to n as [I | L] * f: every component of f stays one, and
    junk points, at which a row of f does not vanish, may join them
    (Sommese-Wampler 2005, section 13.5).
    """
    n = f.nvars
    if f.is_square and not any(p.is_zero for p in f.polys):
        return f, SquaringRecord("already-square")
    rows = [p for p in f.polys if not p.is_zero]
    if len(rows) <= n:
        padded = tuple(rows) + (make_poly(n, []),) * (n - len(rows))
        return PolySystem(n, padded, f.names), SquaringRecord("zero-rows", n - len(rows))
    extra = rows[n:]
    gen = rngmod.stream(seed, rngmod.SQUARE)
    polys = []
    for p in rows[:n]:
        for q, c in zip(extra, rngmod.random_complex(gen, len(extra))):
            p = poly_add(p, poly_scale(q, c))
        polys.append(p)
    return PolySystem(n, tuple(polys), f.names), SquaringRecord("randomized", len(extra))


def zero_rows(f: PolySystem) -> int:
    """The zero rows ``square_up`` leaves in f: no component of the
    solution set of f lies below this dimension."""
    return max(0, f.nvars - sum(not p.is_zero for p in f.polys))


def _affine(nvars: int, coeffs) -> SparsePolynomial:
    """coeffs[0] + coeffs[1] x1 + ... + coeffs[m] xm in nvars >= m variables."""
    eye = [tuple(int(i == l) for i in range(nvars)) for l in range(len(coeffs) - 1)]
    return make_poly(nvars, zip([(0,) * nvars] + eye, coeffs))


@dataclass(frozen=True)
class EmbeddedSystem:
    """A square system plus k random hyperplanes and slack variables.

    gammas has shape (n, k); hyper_coeffs has shape (k, n+1) holding the
    constant term followed by the x-coefficients of each hyperplane
    (the slack coefficient is fixed to 1 and not stored).
    """

    base: PolySystem
    k: int
    gammas: tuple[tuple[complex, ...], ...]
    hyper_coeffs: tuple[tuple[complex, ...], ...]
    seed: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return self.base.nvars + self.k

    @property
    def n_original(self) -> int:
        return self.base.nvars

    def hyperplane(self, j: int) -> SparsePolynomial:
        """Hyperplane j (0-based) as a polynomial in the n+k variables."""
        slack = variable_poly(self.nvars, self.base.nvars + j)
        return poly_add(_affine(self.nvars, self.hyper_coeffs[j]), slack)

    @property
    def system(self) -> PolySystem:
        """The square (n+k) x (n+k) embedded system."""
        sys = self._cache.get("system")
        if sys is not None:
            return sys
        n, k, total = self.base.nvars, self.k, self.nvars
        polys = []
        for i, p in enumerate(self.base.polys):
            q = extend_vars(p, total)
            for j in range(k):
                q = poly_add(q, poly_scale(variable_poly(total, n + j), self.gammas[i][j]))
            polys.append(q)
        for j in range(k):
            polys.append(self.hyperplane(j))
        names = self.base.names + tuple(f"z{j + 1}" for j in range(k))
        sys = PolySystem(total, tuple(polys), names)
        self._cache["system"] = sys
        return sys

    def level(self, k: int) -> "EmbeddedSystem":
        """The embedding with only the first k slack variables kept.

        Cascades peel the last hyperplane/slack first, so level(k-1) is
        exactly what remains after one step down from level(k).
        """
        if not 0 <= k <= self.k:
            raise ValueError(f"level {k} out of range 0..{self.k}")
        if k == self.k:
            return self
        return EmbeddedSystem(
            self.base,
            k,
            tuple(row[:k] for row in self.gammas),
            self.hyper_coeffs[:k],
            self.seed,
        )


def embed(f: PolySystem, k: int, seed: int) -> EmbeddedSystem:
    """Augment a square system with k hyperplanes and slack variables."""
    if not f.is_square:
        raise ValueError("embed requires a square system")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > f.nvars:
        raise ValueError(f"embedding dimension {k} exceeds variable count {f.nvars}")
    gen = rngmod.stream(seed, rngmod.EMBED)
    n = f.nvars
    gammas = tuple(tuple(rngmod.random_complex(gen, k)) for _ in range(n))
    hyper = tuple(tuple(rngmod.random_complex(gen, n + 1)) for _ in range(k))
    return EmbeddedSystem(f, k, gammas, hyper, seed)


def slice_to_zero(e: EmbeddedSystem) -> PolySystem:
    """Substitute all slack variables by zero.

    Base equations lose their gamma terms and the hyperplanes keep only
    their affine part, leaving n+k equations in the n original
    variables; solutions are generic points on the k-dimensional part
    of the solution set.
    """
    if e.k == 0:
        raise ValueError("embedding has no slack variables")
    n = e.base.nvars
    hyperplanes = tuple(_affine(n, coeffs) for coeffs in e.hyper_coeffs)
    return PolySystem(n, e.base.polys + hyperplanes, e.base.names)

