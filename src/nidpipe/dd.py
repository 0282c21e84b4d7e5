"""Double-double arithmetic on numpy arrays: unevaluated pairs of doubles.

A value is stored as (hi, lo) with |lo| <= ulp(hi)/2, giving roughly
106 bits of significand.  Everything is built from the classic
error-free transformations (two_sum, two_prod with Dekker splitting,
since math.fma is unavailable before 3.13; Hida-Li-Bailey, ARITH 2001).
They are written with plain arithmetic, so they work elementwise on
float arrays and on Python floats alike.

A complex double-double array is a pair of complex arrays (hi, lo)
whose real parts form one double-double and whose imaginary parts form
another.  Addition acts on real and imaginary parts separately, so the
real transformations apply to complex arrays as they are; ``cdd_mul``
spells the complex product out in real double-double pieces.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1, exact in double


def two_sum(a, b):
    """s + err == a + b exactly, s = fl(a+b)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """Like two_sum but requires |a| >= |b|."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    c = _SPLITTER * a
    abig = c - a
    ahi = c - abig
    return ahi, a - ahi


def two_prod(a, b):
    """p + err == a * b exactly, p = fl(a*b)."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def cdd_add(ahi, alo, bhi, blo):
    """(a + b) for complex double-double arrays a = (ahi, alo), b = (bhi, blo)."""
    s, e = two_sum(ahi, bhi)
    t, f = two_sum(alo, blo)
    s, e = quick_two_sum(s, e + t)
    return quick_two_sum(s, e + f)


def cdd_mul(ahi, alo, bhi, blo):
    """(a * b) for complex double-double arrays; the leading products
    are exact, the cross terms with the low words are rounded once.
    The final renormalisation is a full two_sum: after cancellation in
    p1 - p2 the error term can outgrow the rounded sum."""
    ar, ai, br, bi = ahi.real, ahi.imag, bhi.real, bhi.imag
    lr, li, mr, mi = alo.real, alo.imag, blo.real, blo.imag
    p1, e1 = two_prod(ar, br)
    p2, e2 = two_prod(ai, bi)
    p3, e3 = two_prod(ar, bi)
    p4, e4 = two_prod(ai, br)
    re, ere = two_sum(p1, -p2)
    im, eim = two_sum(p3, p4)
    ere = ere + ((e1 - e2) + ((ar * mr + lr * br) - (ai * mi + li * bi)))
    eim = eim + ((e3 + e4) + ((ar * mi + lr * bi) + (ai * mr + li * br)))
    re, ere = two_sum(re, ere)
    im, eim = two_sum(im, eim)
    return _complex(re, im), _complex(ere, eim)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out
