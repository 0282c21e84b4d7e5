"""Evaluation, Jacobians, rank estimates, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidpipe.linalg import condition_and_rank
from nidpipe.polynomials import (
    DimensionMismatch,
    PolySystem,
    constant_poly,
    eval_poly,
    eval_system,
    jacobian,
    make_poly,
    poly_add,
    residual,
)
from nidpipe.polytext import ParseError, parse_system
from nidpipe.systems import cyclic


def coeffs(draw_real):
    return st.builds(complex, draw_real, draw_real)


small_complex = st.builds(
    complex,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)


@st.composite
def random_polys(draw, max_nvars=4, max_terms=6, max_deg=3):
    nvars = draw(st.integers(1, max_nvars))
    nterms = draw(st.integers(1, max_terms))
    terms = []
    for _ in range(nterms):
        expo = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        c = draw(small_complex.filter(lambda z: abs(z) > 1e-3))
        terms.append((expo, c))
    return make_poly(nvars, terms)


def test_eval_symmetric_cancellation():
    p = make_poly(4, [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)])
    assert eval_poly(p, [1, 1, -1, -1]) == 0


def test_eval_cyclic_product_root():
    p = make_poly(4, [((1, 1, 1, 1), 1), ((0, 0, 0, 0), -1)])
    assert eval_poly(p, [1, 1, -1, -1]) == 0


def test_eval_constant():
    p = constant_poly(3, 5.0)
    assert eval_poly(p, [2, 3, 4]) == 5.0


def test_eval_dimension_mismatch():
    p = constant_poly(3, 5.0)
    with pytest.raises(DimensionMismatch):
        eval_poly(p, [1, 2])


def test_eval_system_cyclic4():
    f = cyclic(4)
    assert np.allclose(eval_system(f, [1, 1, -1, -1]), 0)
    assert np.allclose(eval_system(f, [1, 1, 1, 1]), [4, 4, 4, 0])


def test_eval_empty_system():
    f = PolySystem(2, ())
    assert eval_system(f, [1, 2]).size == 0


@given(random_polys(), random_polys())
@settings(max_examples=60, deadline=None)
def test_eval_linear_in_coefficients(p, q):
    if p.nvars != q.nvars:
        q = make_poly(p.nvars, [(e[: p.nvars] + (0,) * max(0, p.nvars - q.nvars), c) for e, c in q.terms])
    rng = np.random.default_rng(0)
    x = rng.normal(size=p.nvars) + 1j * rng.normal(size=p.nvars)
    lhs = eval_poly(poly_add(p, q), x)
    rhs = eval_poly(p, x) + eval_poly(q, x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_jacobian_power_rule():
    f = PolySystem(1, (make_poly(1, [((2,), 1)]),))
    assert np.allclose(jacobian(f, [3]), [[6]])


def test_jacobian_linear_system_is_coefficient_matrix():
    A = np.array([[2, -1 + 1j], [0.5j, 3]])
    polys = []
    for row in A:
        polys.append(make_poly(2, [((1, 0), row[0]), ((0, 1), row[1])]))
    f = PolySystem(2, tuple(polys))
    for x in ([0, 0], [1, 2], [3 - 1j, -4]):
        assert np.allclose(jacobian(f, x), A)


def _fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.complex128)
    J = np.zeros((len(f.polys), f.nvars), dtype=np.complex128)
    for j in range(f.nvars):
        e = np.zeros(f.nvars)
        e[j] = h
        J[:, j] = (eval_system(f, x + e) - eval_system(f, x - e)) / (2 * h)
    return J


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(2, 7))
    polys = []
    for _ in range(nvars):
        terms = []
        for _ in range(rng.integers(2, 7)):
            expo = tuple(int(v) for v in rng.integers(0, 3, nvars))
            terms.append((expo, complex(rng.normal(), rng.normal())))
        polys.append(make_poly(nvars, terms))
    f = PolySystem(nvars, tuple(polys))
    x = rng.normal(size=nvars) + 1j * rng.normal(size=nvars)
    J = jacobian(f, x)
    Jfd = _fd_jacobian(f, x)
    denom = np.maximum(1.0, np.abs(J))
    assert np.max(np.abs(J - Jfd) / denom) < 1e-6


def test_cyclic4_jacobian_vs_finite_differences():
    f = cyclic(4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    J = jacobian(f, x)
    Jfd = _fd_jacobian(f, x)
    assert np.max(np.abs(J - Jfd) / np.maximum(1.0, np.abs(J))) < 1e-6


# -- condition and rank ----------------------------------------------------


def test_condition_identity():
    cond, rank = condition_and_rank(np.eye(3), 1e-8)
    assert cond == pytest.approx(1.0)
    assert rank == 3


def test_rank_thresholding():
    cond, rank = condition_and_rank(np.array([[1, 0], [0, 1e-12]]), 1e-8)
    assert rank == 1


def test_eq6_jacobian_rank_deficient_at_multiple_point():
    # rows: d/dx of (x1-1)(x1-2) and (x1-1)x2^2 at (2, 0)
    f = PolySystem(
        2,
        (
            make_poly(2, [((2, 0), 1), ((1, 0), -3), ((0, 0), 2)]),
            make_poly(2, [((1, 2), 1), ((0, 2), -1)]),
        ),
    )
    J = jacobian(f, [2, 0])
    assert np.allclose(J, [[1, 0], [0, 0]])
    cond, rank = condition_and_rank(J, 1e-8)
    assert rank == 1


def test_rank_invariant_under_row_scaling():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    A[3] = A[0] + A[1]  # rank 3
    _, r1 = condition_and_rank(A)
    scaled = A * np.array([[1e6], [1e-6], [3.0], [1.0]])
    _, r2 = condition_and_rank(scaled)
    assert r1 == r2 == 3


def test_condition_empty_matrix_error():
    with pytest.raises(ValueError):
        condition_and_rank(np.zeros((0, 0)))


# -- text format -------------------------------------------------------------


def test_parse_example_term():
    f = parse_system("3 1\n(-1.0+0.5*i)*x1^2*x3 + (2.0+0.0*i)*x2 - 1;\n")
    p = f.polys[0]
    assert p.nvars == 3
    assert dict(p.terms)[(2, 0, 1)] == -1.0 + 0.5j
    assert dict(p.terms)[(0, 1, 0)] == 2.0
    assert dict(p.terms)[(0, 0, 0)] == -1.0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_system("")
    with pytest.raises(ParseError):
        parse_system("2\nx1;")
    with pytest.raises(ParseError):
        parse_system("2 1\ny1 + x2;")
    with pytest.raises(ParseError):
        parse_system("2 2\nx1;")


def format_system(f: PolySystem) -> str:
    """f in the text format, coefficients in shortest-repr decimals."""

    def term(expo, c):
        sign = "-" if c.imag < 0 else "+"
        factors = [f"({c.real!r}{sign}{abs(c.imag)!r}*i)"]
        factors += [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(expo) if e]
        return "*".join(factors)

    rows = [" + ".join(term(e, c) for e, c in p.terms) or "(0.0+0.0*i)" for p in f.polys]
    return "\n".join([f"{f.nvars} {len(f.polys)}"] + [row + ";" for row in rows]) + "\n"


def test_round_trip_cyclic4():
    f = cyclic(4)
    g = parse_system(format_system(f))
    assert g.polys == f.polys


@given(st.lists(random_polys(max_nvars=3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_round_trip_random(polys):
    nvars = max(p.nvars for p in polys)
    padded = tuple(
        make_poly(nvars, [(e + (0,) * (nvars - p.nvars), c) for e, c in p.terms])
        for p in polys
    )
    f = PolySystem(nvars, padded)
    g = parse_system(format_system(f))
    assert len(g.polys) == len(f.polys)
    for a, b in zip(f.polys, g.polys):
        ta, tb = dict(a.terms), dict(b.terms)
        assert set(ta) == set(tb)
        for e in ta:
            assert abs(ta[e] - tb[e]) <= 1e-15 * max(1.0, abs(ta[e]))


def test_residual_scale():
    f = cyclic(4)
    assert residual(f, [1, 1, -1, -1]) == 0.0
