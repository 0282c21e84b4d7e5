"""Double-double arithmetic on arrays against an exact rational oracle."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nidpipe.dd import cdd_add, cdd_mul, two_prod, two_sum
from nidpipe.polynomials import PolySystem, eval_system, make_poly
from nidpipe.systems import demo_system, embed

# error-free transformations presume products stay clear of the
# subnormal range, as usual for double-double arithmetic
finite_doubles = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


def cdd(hi: complex, lo: complex = 0j) -> tuple[np.ndarray, np.ndarray]:
    """A one-element complex double-double array."""
    return np.array([hi], dtype=np.complex128), np.array([lo], dtype=np.complex128)


def normalized(re: float, im: float) -> tuple[np.ndarray, np.ndarray]:
    """A one-element complex double-double with nonzero low words below
    half an ulp of the high words."""
    return cdd(complex(re, im), complex(0.75 * re, -0.5 * im) * 2.0**-60)


def exact(hi: np.ndarray, lo: np.ndarray) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of element 0 as exact rationals."""
    return (
        Fraction(hi[0].real) + Fraction(lo[0].real),
        Fraction(hi[0].imag) + Fraction(lo[0].imag),
    )


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@given(finite_doubles, finite_doubles)
def test_two_sum_exact(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(finite_doubles, finite_doubles)
def test_two_prod_exact(a, b):
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(finite_doubles, finite_doubles)
def test_exact_values_round_trip(a, b):
    z = cdd(complex(a, b))
    s = cdd_add(*z, *cdd(0j))
    p = cdd_mul(*z, *cdd(1 + 0j))
    for hi, lo in (s, p):
        assert hi[0] == complex(a, b) and lo[0] == 0j


@given(finite_doubles, finite_doubles, finite_doubles, finite_doubles)
@settings(max_examples=200)
def test_add_matches_rational_oracle(a, b, c, d):
    x, y = normalized(a, b), normalized(c, d)
    z = cdd_add(*x, *y)
    want = [u + v for u, v in zip(exact(*x), exact(*y))]
    got = exact(*z)
    scale = (abs(a) + abs(b) + abs(c) + abs(d)) * 2.0**-104 + 5e-324
    for g, w in zip(got, want):
        assert abs(g - w) <= 2 * Fraction(scale)


@given(finite_doubles, finite_doubles, finite_doubles, finite_doubles)
@settings(max_examples=200)
def test_mul_matches_rational_oracle(a, b, c, d):
    x, y = normalized(a, b), normalized(c, d)
    z = cdd_mul(*x, *y)
    want = cmul(exact(*x), exact(*y))
    got = exact(*z)
    # correct to a few units in the 104th bit of |x| |y|
    scale = (abs(a) + abs(b)) * (abs(c) + abs(d)) * 2.0**-104 + 5e-324
    for g, w in zip(got, want):
        assert abs(g - w) <= 8 * Fraction(scale)


def test_normalization_invariant():
    hi, lo = cdd_add(*cdd(1.0), *cdd(2.0**-70))
    assert hi[0] == 1.0
    assert lo[0] == 2.0**-70
    # hi is the closest double to hi+lo
    assert hi[0] == hi[0] + lo[0]


def test_sum_beyond_double_precision():
    z = cdd_add(*cdd_add(*cdd(1.0), *cdd(2.0**-80)), *cdd(-1.0))
    assert exact(*z) == (Fraction(2) ** -80, 0)


def test_cdd_roundtrip_and_ops():
    hi, lo = cdd_mul(*cdd(1.5 - 2.25j), *cdd(1.5 - 2.25j))
    assert exact(hi, lo) == cmul((Fraction(3, 2), Fraction(-9, 4)), (Fraction(3, 2), Fraction(-9, 4)))
    assert hi[0] == (1.5 - 2.25j) ** 2 and lo[0] == 0j


def test_cubic_residual_below_double_precision():
    # (x - 1)^3 expanded, at x = 1 + 2^-20: the exact value 2^-60 is lost
    # to cancellation in double evaluation
    f = PolySystem(1, (make_poly(1, [((3,), 1), ((2,), -3), ((1,), 3), ((0,), -1)]),))
    x = 1.0 + 2.0**-20
    assert eval_system(f, [x])[0] == 0.0
    hi, lo = f._evaluator().eval_dd(np.array([[x]], dtype=complex), np.zeros((1, 1), dtype=complex))
    assert hi[0, 0] == 2.0**-60 and lo[0, 0] == 0


def test_dd_evaluation_agrees_with_double():
    f = embed(demo_system(), 3, 7).system
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, f.nvars)) + 1j * rng.normal(size=(6, f.nvars))
    hi, lo = f._evaluator().eval_dd(x, np.zeros_like(x))
    for xi, got in zip(x, hi + lo):
        want = eval_system(f, xi)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
