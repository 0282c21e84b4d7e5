"""The stacked evaluator forms each distinct monomial once, from its
prefix and one power.  Against the left-to-right product over every
variable, which it replaced and which is kept here as the reference,
it gives the same bytes at random points: the skipped factors are 1,
and multiplying by 1 changes no finite nonzero value.  At a coordinate
that is exactly +0 or -0 a product with 1 can flip the sign of a zero
part, so there the two agree as values, not as bytes."""

import numpy as np
import pytest

from nidpipe.dd import cdd_add, cdd_mul
from nidpipe.polynomials import _StackedEvaluator
from nidpipe.systems import cyclic, demo_system, embed
from nidpipe.tracker import LinearHomotopy, SliceHomotopy


def _reference_monomials(ev, x, one, mul):
    """Each term's monomial as the product of its n factors x_j^e_j, left
    to right, from a power table filled with ``mul``."""
    npts, n = len(x[0]), ev.nvars
    tabs = [np.empty((npts, ev.maxdeg + 1, n), dtype=np.complex128) for _ in x]
    for tab, value in zip(tabs, one):
        tab[:, 0] = value
    for k in range(1, ev.maxdeg + 1):
        for tab, value in zip(tabs, mul([t[:, k - 1] for t in tabs], x)):
            tab[:, k] = value
    tabs = [tab.reshape(npts, -1) for tab in tabs]
    factor_index = ev.expo.T * n + np.arange(n)[:, None]
    monos = [tab[:, factor_index[0]] for tab in tabs]
    for j in range(1, n):
        monos = mul(monos, [tab[:, factor_index[j]] for tab in tabs])
    return monos


def reference_call(ev, x, weights=None):
    npts = len(x)
    if ev.coef.size == 0:
        return np.zeros((npts, ev.nrows), dtype=np.complex128)
    (monos,) = _reference_monomials(ev, [x], [1.0], lambda a, b: [a[0] * b[0]])
    vals = ev.coef * monos
    if weights is not None:
        vals = vals * weights
    if ev.all_nonempty:
        return np.add.reduceat(vals, ev.offsets, axis=1)
    out = np.zeros((npts, ev.nrows), dtype=np.complex128)
    out[:, ev.nonempty] = np.add.reduceat(vals, ev.nonempty_offsets, axis=1)
    return out


def reference_eval_dd(ev, hi, lo):
    npts = len(hi)
    mh, ml = _reference_monomials(ev, [hi, lo], [1.0, 0.0], lambda a, b: cdd_mul(*a, *b))
    vh, vl = cdd_mul(mh, ml, ev.coef, np.zeros_like(ev.coef))
    pad = np.zeros((npts, 1), dtype=np.complex128)
    vh = np.concatenate([vh, pad], axis=1)[:, ev._padded_rows]
    vl = np.concatenate([vl, pad], axis=1)[:, ev._padded_rows]
    while vh.shape[2] > 1:
        vh, vl = cdd_add(vh[..., ::2], vl[..., ::2], vh[..., 1::2], vl[..., 1::2])
    return vh[..., 0], vl[..., 0]


SYSTEMS = {
    "demo@3": lambda: embed(demo_system(), 3, 7).system,
    "cyclic-4@1": lambda: embed(cyclic(4), 1, 7).system,
    "cyclic-5": lambda: cyclic(5),
    "cyclic-7": lambda: cyclic(7),
}


def _points(rng, npts, nvars, zeros=False):
    x = rng.standard_normal((npts, nvars)) + 1j * rng.standard_normal((npts, nvars))
    if zeros:  # exact zeros of every sign in about a third of the coordinates
        signed = rng.choice([0.0, -0.0], size=(2, npts, nvars))
        z = np.empty_like(x)
        z.real, z.imag = signed
        x = np.where(rng.random((npts, nvars)) < 1 / 3, z, x)
    return x


def _outputs(f, x, rng):
    """Every evaluation of f at the points x: each evaluator, weighted by
    (T,) and by (P, T) weights, in double-double, and the homotopy of f
    against a second system on f's supports."""
    evs = [f._evaluator(), f._jac_evaluator(), f._abs_evaluator(), f._abs_jac_evaluator()]
    out = [ev(x) for ev in evs]
    ev = f._evaluator()
    T = ev.coef.size
    out.append(ev(x, weights=rng.standard_normal(T) + 0.5j))
    out.append(ev(x, weights=rng.standard_normal((len(x), T)) + 0.25j))
    lo = 1e-17 * _points(rng, len(x), f.nvars)
    out.extend(ev.eval_dd(x, lo))
    g = type(f)(f.nvars, tuple(type(p)(p.nvars, tuple((e, 2.0 - 1j * c) for e, c in p.terms)) for p in f.polys))
    h = LinearHomotopy(g, f, 0.6 + 0.8j)
    t = rng.random(len(x))
    out.extend([h.eval(x, t), h.jac(x, t), h.eval_scale(x, t)])
    return out


def _reference_outputs(monkeypatch, f, x, rng):
    with monkeypatch.context() as m:
        m.setattr(_StackedEvaluator, "__call__", reference_call)
        m.setattr(_StackedEvaluator, "eval_dd", reference_eval_dd)
        return _outputs(f, x, rng)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("npts", [1, 37, 128])
def test_the_monomial_table_gives_the_bytes_of_the_left_to_right_product(monkeypatch, name, npts):
    f = SYSTEMS[name]()
    x = _points(np.random.default_rng(npts), npts, f.nvars)
    got = _outputs(f, x, np.random.default_rng(1))
    want = _reference_outputs(monkeypatch, f, x, np.random.default_rng(1))
    assert len(got) == len(want) == 11
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_monomial_table_gives_the_values_of_the_left_to_right_product_at_signed_zeros(monkeypatch, name):
    # skipping a factor of 1 may flip the sign of an exactly-zero part
    # (a Jacobian entry, say), so the two agree as values here, not bytes
    f = SYSTEMS[name]()
    x = _points(np.random.default_rng(5), 37, f.nvars, zeros=True)
    assert (x == 0).any() and np.signbit(x.real).any()
    got = _outputs(f, x, np.random.default_rng(1))
    want = _reference_outputs(monkeypatch, f, x, np.random.default_rng(1))
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_the_monomial_table_forms_each_monomial_of_the_closure_once():
    # cyclic-4's value rows hold 9 monomials of depth 2 to 4, and the
    # prefix x1*x3 of x1*x3*x4 is a tenth; x1*x2*x3 is a term and the
    # prefix of x1*x2*x3*x4
    ev = cyclic(4)._evaluator()
    assert [cols.stop - cols.start for cols, _, _ in ev.levels] == [5, 4, 1]
    assert ev.width == (ev.maxdeg + 1) * ev.nvars + 10


def test_an_empty_stack_of_points_evaluates_to_an_empty_stack():
    f = cyclic(4)
    h = SliceHomotopy(f, np.zeros((1, 4)))
    x = np.zeros((0, 4), dtype=complex)
    assert h.eval(x, np.ones(0)).shape == (0, 4)
    assert h.jac(x, np.ones(0)).shape == (0, 4, 4)
    hi, lo = f._evaluator().eval_dd(x, x)
    assert hi.shape == lo.shape == (0, 4)
