"""Sparse multivariate polynomials over the complex numbers.

Terms are kept as dense exponent vectors paired with complex
coefficients.  Evaluation and Jacobians are the hot path of the whole
solver, so each system caches stacked numpy arrays (one big
exponent/coefficient block plus reduceat segment offsets) built lazily
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .dd import cdd_add, cdd_mul


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
    def is_square(self) -> bool:
        return len(self.polys) == self.nvars

    # -- fast stacked evaluation ------------------------------------------

    def _stacked(self, name: str, jacobian: bool, moduli: bool) -> "_StackedEvaluator":
        """The evaluator memoized under ``name``: of the system's rows, or
        of its Jacobian's entries row-major, with every coefficient
        replaced by its modulus when ``moduli`` is set."""
        ev = self._cache.get(name)
        if ev is None:
            polys = [poly_diff(p, j) for p in self.polys for j in range(self.nvars)] if jacobian else self.polys
            rows = [p.terms for p in polys]
            if moduli:
                rows = [tuple((e, abs(c)) for e, c in row) for row in rows]
            ev = self._cache[name] = _StackedEvaluator(rows, self.nvars)
        return ev

    def _evaluator(self) -> "_StackedEvaluator":
        return self._stacked("ev", jacobian=False, moduli=False)

    def _jac_evaluator(self) -> "_StackedEvaluator":
        return self._stacked("jev", jacobian=True, moduli=False)

    def _abs_evaluator(self) -> "_StackedEvaluator":
        return self._stacked("aev", jacobian=False, moduli=True)

    def _abs_jac_evaluator(self) -> "_StackedEvaluator":
        """The Jacobian of the system with every coefficient replaced by
        its modulus, row-major like ``_jac_evaluator``: at |x| it bounds
        the size of each Jacobian entry."""
        return self._stacked("ajev", jacobian=True, moduli=True)


class _StackedEvaluator:
    """All terms of several polynomials in one numpy block.

    Evaluation at P points fills a per-point table of monomials: the
    powers x[p, j] ** k up to the max degree, then every monomial with
    d > 1 nonzero exponents as its prefix, the monomial with its last
    such variable dropped, times that variable's power, one depth d at a
    time.  Each distinct monomial of the terms and of their prefixes is
    formed once; this is the left-to-right product over the variables
    without its factors of 1.  Each term gathers its monomial and
    multiplies it by its coefficient, and each row is segment-summed with
    reduceat.  Every operation is elementwise or reduces within one
    point's row, so a point's values are bit-identical for every P (a
    reduction across the gathered factors, such as ``prod``, is not: its
    order depends on the array's shape).
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
        # a monomial is the tuple of its (variable, exponent) pairs with a
        # nonzero exponent; the table holds x_j^k in column k * nvars + j,
        # then the deeper monomials of the closure under prefixes by depth
        keys = [tuple([(j, e) for j, e in enumerate(m) if e]) for m in expo.tolist()]
        deep = set()
        for key in keys:
            while len(key) > 1 and key not in deep:
                deep.add(key)
                key = key[:-1]
        npowers = (self.maxdeg + 1) * nvars
        column = {(): 0} | {((j, k),): k * nvars + j for j in range(nvars) for k in range(1, self.maxdeg + 1)}
        column.update({key: npowers + i for i, key in enumerate(sorted(deep, key=lambda k: (len(k), k)))})
        self.width = npowers + len(deep)
        self.levels = []  # (columns, prefix columns, power columns) per depth
        for d in range(2, max(map(len, deep), default=1) + 1):
            level = sorted((column[k], column[k[:-1]], column[k[-1:]]) for k in deep if len(k) == d)
            cols, prefix, power = np.array(level).T
            self.levels.append((slice(cols[0], cols[-1] + 1), prefix, power))
        self.term_column = np.array([column[key] for key in keys], dtype=np.intp)
        # reduceat cannot take offsets at the end of the array (empty
        # trailing rows); sum only the nonempty rows and scatter back
        self.nonempty = np.nonzero(sizes > 0)[0]
        self.nonempty_offsets = self.offsets[self.nonempty]
        self.all_nonempty = len(self.nonempty) == self.nrows

    def __call__(self, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Row sums at the points x of shape (P, nvars), as (P, nrows);
        optional multiplicative term weights of shape (T,) or (P, T)."""
        npts, n = len(x), self.nvars
        if self.coef.size == 0:
            return np.zeros((npts, self.nrows), dtype=np.complex128)
        tab = np.empty((npts, self.width), dtype=np.complex128)
        tab[:, :n] = 1.0
        for k in range(1, self.maxdeg + 1):
            np.multiply(tab[:, (k - 1) * n : k * n], x, out=tab[:, k * n : (k + 1) * n])
        for cols, prefix, power in self.levels:
            np.multiply(tab[:, prefix], tab[:, power], out=tab[:, cols])
        vals = self.coef * tab[:, self.term_column]
        if weights is not None:
            vals = vals * weights
        if self.all_nonempty:
            return np.add.reduceat(vals, self.offsets, axis=1)
        out = np.zeros((npts, self.nrows), dtype=np.complex128)
        out[:, self.nonempty] = np.add.reduceat(vals, self.nonempty_offsets, axis=1)
        return out

    @cached_property
    def _padded_rows(self) -> np.ndarray:
        """(nrows, width) term indices of each row, padded with the index
        one past the last term up to a power-of-two width."""
        width = 1 << max(int(self.sizes.max(initial=0)) - 1, 0).bit_length()
        k = np.arange(width)
        return np.where(k < self.sizes[:, None], self.offsets[:, None] + k, len(self.coef))

    def eval_dd(self, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row sums at the complex double-double points (hi, lo), each of
        shape (P, nvars), as a double-double pair of (P, nrows) arrays.

        The monomial table and the coefficient products are formed as in
        ``__call__``, in double-double; each row is then summed pairwise
        over its terms, padded with zeros.
        """
        npts, n = len(hi), self.nvars
        th = np.empty((npts, self.width), dtype=np.complex128)
        tl = np.empty_like(th)
        th[:, :n], tl[:, :n] = 1.0, 0.0
        for k in range(1, self.maxdeg + 1):
            prev, cols = slice((k - 1) * n, k * n), slice(k * n, (k + 1) * n)
            th[:, cols], tl[:, cols] = cdd_mul(th[:, prev], tl[:, prev], hi, lo)
        for cols, prefix, power in self.levels:
            th[:, cols], tl[:, cols] = cdd_mul(th[:, prefix], tl[:, prefix], th[:, power], tl[:, power])
        index = self.term_column
        vh, vl = cdd_mul(th[:, index], tl[:, index], self.coef, np.zeros_like(self.coef))
        pad = np.zeros((npts, 1), dtype=np.complex128)
        vh = np.concatenate([vh, pad], axis=1)[:, self._padded_rows]
        vl = np.concatenate([vl, pad], axis=1)[:, self._padded_rows]
        while vh.shape[2] > 1:
            vh, vl = cdd_add(vh[..., ::2], vl[..., ::2], vh[..., 1::2], vl[..., 1::2])
        return vh[..., 0], vl[..., 0]


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
