"""Sparse multivariate polynomials over the complex numbers.

Terms are kept as dense exponent vectors paired with complex
coefficients.  Evaluation and Jacobians are the hot path of the whole
solver, so each system caches stacked numpy arrays (one big
exponent/coefficient block plus reduceat segment offsets) built lazily
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dd import CDD


class DimensionMismatch(ValueError):
    """Point dimension does not match the polynomial's variable count."""


@dataclass(frozen=True)
class SparsePolynomial:
    """A polynomial stored as a term list.

    Invariants: no repeated exponent vectors, no zero coefficients.
    Use :func:`make_poly` to build one from raw term data.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        for expo, _ in self.terms:
            if len(expo) != self.nvars:
                raise ValueError(f"exponent vector {expo} has wrong length")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def __call__(self, x: Sequence[complex]) -> complex:
        return eval_poly(self, x)


def make_poly(nvars: int, terms: Iterable[tuple[Sequence[int], complex]]) -> SparsePolynomial:
    """Combine duplicate exponents, drop zeros, and freeze the term list."""
    acc: dict[tuple[int, ...], complex] = {}
    for expo, coef in terms:
        key = tuple(int(e) for e in expo)
        if len(key) != nvars:
            raise ValueError(f"exponent vector {key} has length {len(key)}, expected {nvars}")
        if any(e < 0 for e in key):
            raise ValueError("negative exponent")
        acc[key] = acc.get(key, 0j) + complex(coef)
    kept = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
    return SparsePolynomial(nvars, kept)


def constant_poly(nvars: int, value: complex) -> SparsePolynomial:
    return make_poly(nvars, [((0,) * nvars, value)])


def variable_poly(nvars: int, index: int) -> SparsePolynomial:
    expo = [0] * nvars
    expo[index] = 1
    return make_poly(nvars, [(expo, 1.0 + 0j)])


def poly_add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    if p.nvars != q.nvars:
        raise DimensionMismatch("cannot add polynomials in different variable counts")
    return make_poly(p.nvars, list(p.terms) + list(q.terms))


def poly_scale(p: SparsePolynomial, c: complex) -> SparsePolynomial:
    return make_poly(p.nvars, [(e, c * a) for e, a in p.terms])


def poly_mul(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    if p.nvars != q.nvars:
        raise DimensionMismatch("cannot multiply polynomials in different variable counts")
    terms = []
    for ep, cp in p.terms:
        for eq, cq in q.terms:
            terms.append((tuple(a + b for a, b in zip(ep, eq)), cp * cq))
    return make_poly(p.nvars, terms)


def poly_diff(p: SparsePolynomial, var: int) -> SparsePolynomial:
    """Exact partial derivative with respect to variable ``var``."""
    terms = []
    for expo, coef in p.terms:
        k = expo[var]
        if k == 0:
            continue
        new = list(expo)
        new[var] = k - 1
        terms.append((tuple(new), coef * k))
    return make_poly(p.nvars, terms)


def extend_vars(p: SparsePolynomial, new_nvars: int) -> SparsePolynomial:
    """Reinterpret ``p`` in a larger variable set (new variables appended)."""
    if new_nvars < p.nvars:
        raise ValueError("cannot shrink variable count")
    pad = (0,) * (new_nvars - p.nvars)
    return SparsePolynomial(new_nvars, tuple((e + pad, c) for e, c in p.terms))


def eval_poly(p: SparsePolynomial, x: Sequence[complex]) -> complex:
    """Evaluate one polynomial; products run left-to-right over variables."""
    if len(x) != p.nvars:
        raise DimensionMismatch(f"point has dim {len(x)}, polynomial has {p.nvars} vars")
    total = 0j
    for expo, coef in p.terms:
        v = coef
        for xi, e in zip(x, expo):
            if e:
                v = v * xi**e
        total += v
    return total


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nvars))


@dataclass(frozen=True)
class PolySystem:
    """A list of sparse polynomials sharing one variable set."""

    nvars: int
    polys: tuple[SparsePolynomial, ...]
    names: tuple[str, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for p in self.polys:
            if p.nvars != self.nvars:
                raise DimensionMismatch("polynomial variable count differs from system")
        if not self.names:
            object.__setattr__(self, "names", default_names(self.nvars))
        elif len(self.names) != self.nvars:
            raise ValueError("need one name per variable")

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def npolys(self) -> int:
        return len(self.polys)

    @property
    def is_square(self) -> bool:
        return len(self.polys) == self.nvars

    def __getstate__(self):
        return (self.nvars, self.polys, self.names)

    def __setstate__(self, state):
        nvars, polys, names = state
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_cache", {})

    # -- fast stacked evaluation ------------------------------------------

    def _evaluator(self) -> "_StackedEvaluator":
        ev = self._cache.get("ev")
        if ev is None:
            ev = _StackedEvaluator([p.terms for p in self.polys], self.nvars)
            self._cache["ev"] = ev
        return ev

    def _jac_evaluator(self) -> "_StackedEvaluator":
        ev = self._cache.get("jev")
        if ev is None:
            rows = []
            for p in self.polys:
                for j in range(self.nvars):
                    rows.append(poly_diff(p, j).terms)
            ev = _StackedEvaluator(rows, self.nvars)
            self._cache["jev"] = ev
        return ev

    def _abs_evaluator(self) -> "_StackedEvaluator":
        ev = self._cache.get("aev")
        if ev is None:
            rows = [tuple((e, abs(c)) for e, c in p.terms) for p in self.polys]
            ev = _StackedEvaluator(rows, self.nvars)
            self._cache["aev"] = ev
        return ev


class _StackedEvaluator:
    """All terms of several polynomials in one numpy block.

    Evaluation at P points builds a per-point power table up to the max
    degree, gathers each term's factors, multiplies them left to right
    over the variables, and segment-sums each row with reduceat.  Every
    operation is elementwise or reduces within one point's row, so a
    point's values are bit-identical for every P (a reduction across
    the gathered factors, such as ``prod``, is not: its order depends
    on the array's shape).
    """

    def __init__(self, rows: Sequence[tuple], nvars: int):
        expos = [e for terms in rows for e, _ in terms]
        coefs = [c for terms in rows for _, c in terms]
        self._setup(
            np.array(expos, dtype=np.intp).reshape(len(expos), nvars),
            np.array(coefs, dtype=np.complex128),
            np.array([len(terms) for terms in rows], dtype=np.intp),
            nvars,
        )

    @classmethod
    def stack(cls, first: "_StackedEvaluator", second: "_StackedEvaluator") -> "_StackedEvaluator":
        """One evaluator for the rows of ``first`` followed by those of ``second``."""
        ev = cls.__new__(cls)
        ev._setup(
            np.concatenate([first.expo, second.expo]),
            np.concatenate([first.coef, second.coef]),
            np.concatenate([first.sizes, second.sizes]),
            first.nvars,
        )
        return ev

    def _setup(self, expo: np.ndarray, coef: np.ndarray, sizes: np.ndarray, nvars: int):
        self.nvars = nvars
        self.nrows = len(sizes)
        self.expo, self.coef, self.sizes = expo, coef, sizes
        self.offsets = np.cumsum(sizes) - sizes
        self.maxdeg = int(expo.max()) if expo.size else 0
        # index of each term's factor x_j^e in a point's flattened power table
        self.factor_index = expo.T * nvars + np.arange(nvars)[:, None]
        # reduceat cannot take offsets at the end of the array (empty
        # trailing rows); sum only the nonempty rows and scatter back
        self.nonempty = np.nonzero(sizes > 0)[0]
        self.nonempty_offsets = self.offsets[self.nonempty]
        self.all_nonempty = len(self.nonempty) == self.nrows

    def powers(self, x: np.ndarray) -> np.ndarray:
        """(P, maxdeg + 1, nvars) table of x[p, j] ** k."""
        tab = np.empty((len(x), self.maxdeg + 1, self.nvars), dtype=np.complex128)
        tab[:, 0] = 1.0
        for k in range(1, self.maxdeg + 1):
            np.multiply(tab[:, k - 1], x, out=tab[:, k])
        return tab

    def __call__(self, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Row sums at the points x of shape (P, nvars), as (P, nrows);
        optional multiplicative term weights of shape (T,) or (P, T)."""
        npts = len(x)
        if self.coef.size == 0:
            return np.zeros((npts, self.nrows), dtype=np.complex128)
        factors = self.powers(x).reshape(npts, -1)[:, self.factor_index]
        monos = factors[:, 0]
        for j in range(1, self.nvars):
            monos = monos * factors[:, j]
        vals = self.coef * monos
        if weights is not None:
            vals = vals * weights
        if self.all_nonempty:
            return np.add.reduceat(vals, self.offsets, axis=1)
        out = np.zeros((npts, self.nrows), dtype=np.complex128)
        out[:, self.nonempty] = np.add.reduceat(vals, self.nonempty_offsets, axis=1)
        return out


def _point(f: PolySystem, x) -> np.ndarray:
    """One point as a (1, n) batch."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (f.nvars,):
        raise DimensionMismatch(f"point has dim {x.shape}, system has {f.nvars} vars")
    return x[None]


def eval_system(f: PolySystem, x: Sequence[complex]) -> np.ndarray:
    """Componentwise evaluation, as a complex vector."""
    return f._evaluator()(_point(f, x))[0]


def jacobian(f: PolySystem, x: Sequence[complex]) -> np.ndarray:
    """Matrix of exact partial derivatives at x (rows = polys)."""
    flat = f._jac_evaluator()(_point(f, x))[0]
    return flat.reshape(len(f.polys), f.nvars)


def residual(f: PolySystem, x: Sequence[complex]) -> float:
    """Infinity norm of the system value."""
    v = eval_system(f, x)
    return float(np.max(np.abs(v))) if v.size else 0.0


# -- generic (double-double capable) evaluation ---------------------------


def eval_poly_generic(p: SparsePolynomial, x: Sequence[CDD]) -> CDD:
    """Term-by-term evaluation with CDD arithmetic."""
    total = CDD(0.0, 0.0)
    for expo, coef in p.terms:
        v = CDD.from_complex(coef)
        for xi, e in zip(x, expo):
            for _ in range(e):
                v = v * xi
        total = total + v
    return total


def eval_system_generic(f: PolySystem, x: Sequence[CDD]) -> list[CDD]:
    return [eval_poly_generic(p, x) for p in f.polys]


def jacobian_generic(f: PolySystem, x: Sequence[CDD]) -> list[list[CDD]]:
    dpolys = f._cache.get("dpolys")
    if dpolys is None:
        dpolys = [[poly_diff(p, j) for j in range(f.nvars)] for p in f.polys]
        f._cache["dpolys"] = dpolys
    return [[eval_poly_generic(dp, x) for dp in row] for row in dpolys]
