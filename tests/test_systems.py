"""Benchmark system construction, squaring, and embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidpipe.linalg import condition_and_rank
from nidpipe.polynomials import PolySystem, eval_system, make_poly, residual
from nidpipe.systems import (
    apply_squaring,
    cyclic,
    demo_system,
    embed,
    slice_to_zero,
    square_up,
)


def test_cyclic4_matches_reference_equations():
    f = cyclic(4)
    expected = [
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
        {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (1, 0, 0, 1): 1},
        {(1, 1, 1, 0): 1, (0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 0, 1): 1},
        {(1, 1, 1, 1): 1, (0, 0, 0, 0): -1},
    ]
    assert len(f.polys) == 4
    for p, exp in zip(f.polys, expected):
        assert dict(p.terms) == {e: complex(c) for e, c in exp.items()}


def test_cyclic1_degenerate():
    f = cyclic(1)
    assert dict(f.polys[0].terms) == {(1,): 1 + 0j, (0,): -1 + 0j}


def test_cyclic3_pattern():
    f = cyclic(3)
    assert dict(f.polys[0].terms) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert dict(f.polys[1].terms) == {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    assert dict(f.polys[2].terms) == {(1, 1, 1): 1, (0, 0, 0): -1}


def test_cyclic_zero_error():
    with pytest.raises(ValueError):
        cyclic(0)


@given(st.integers(2, 8))
def test_cyclic_term_counts_and_degrees(n):
    f = cyclic(n)
    for j, p in enumerate(f.polys[:-1], start=1):
        assert len(p.terms) == n
        assert p.degree() == j
    assert len(f.polys[-1].terms) == 2


def test_demo_system_evaluations():
    f = demo_system()
    assert np.allclose(eval_system(f, [1, 7, 7, 7]), 0)
    assert np.allclose(eval_system(f, [3, 2, 2, 1]), 0)
    assert np.all(np.abs(eval_system(f, [5, 5, 5, 5])) > 0)


def test_demo_known_isolated_points():
    f = demo_system()
    for pt in [(3, 2, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1), (4, 2, 2, 1)]:
        assert residual(f, pt) == pytest.approx(0.0, abs=1e-12)


# -- squaring ---------------------------------------------------------------


def test_square_input_unchanged():
    f = cyclic(3)
    g, record = square_up(f, 5)
    assert g is f
    assert record.kind == "already-square"
    assert apply_squaring(f, record) is f


def test_underdetermined_appends_hyperplanes():
    f = PolySystem(4, tuple(cyclic(4).polys[:2]))
    g, record = square_up(f, 5)
    assert record.kind == "added-hyperplanes"
    assert g.nvars == 4 and len(g.polys) == 4
    for h in g.polys[2:]:
        assert h.degree() == 1
    assert apply_squaring(f, record).polys == g.polys


def test_overdetermined_adds_slack_columns():
    base = cyclic(3)
    f = PolySystem(3, base.polys + (make_poly(3, [((1, 1, 0), 1.0)]), make_poly(3, [((0, 1, 1), 1.0)])))
    g, record = square_up(f, 5)
    assert record.kind == "added-slacks"
    assert g.nvars == 5 and len(g.polys) == 5
    # every equation carries both slack variables
    for i, p in enumerate(g.polys):
        expos = {e for e, _ in p.terms}
        assert any(e[3] == 1 for e in expos)
        assert any(e[4] == 1 for e in expos)
    assert apply_squaring(f, record).polys == g.polys


# -- embedding ---------------------------------------------------------------


def test_embed_cyclic4_structure():
    e = embed(cyclic(4), 1, 11)
    sys = e.system
    assert sys.nvars == 5 and len(sys.polys) == 5
    # base equation i carries gamma_i * z1
    for i in range(4):
        terms = dict(sys.polys[i].terms)
        assert terms[(0, 0, 0, 0, 1)] == e.gammas[i][0]
    # hyperplane: c0 + c1 x1 + ... + c4 x4 + z1
    hyp = dict(sys.polys[4].terms)
    assert hyp[(0, 0, 0, 0, 1)] == 1.0 + 0j
    assert hyp[(0, 0, 0, 0, 0)] == e.hyper_coeffs[0][0]
    for j in range(4):
        expo = [0] * 5
        expo[j] = 1
        assert hyp[tuple(expo)] == e.hyper_coeffs[0][j + 1]


def test_embed_k0_returns_base():
    f = cyclic(3)
    e = embed(f, 0, 11)
    assert e.k == 0
    assert e.system.polys == f.polys


def test_embed_demo_k3_shape():
    e = embed(demo_system(), 3, 11)
    assert e.system.nvars == 7 and len(e.system.polys) == 7
    assert e.system.names[-3:] == ("z1", "z2", "z3")


def test_embed_errors():
    with pytest.raises(ValueError):
        embed(cyclic(3), 4, 5)
    underdetermined = PolySystem(4, tuple(cyclic(4).polys[:2]))
    with pytest.raises(ValueError):
        embed(underdetermined, 1, 5)


def test_embed_random_moduli_in_range():
    e = embed(cyclic(4), 1, 11)
    consts = [g for row in e.gammas for g in row] + [c for row in e.hyper_coeffs for c in row]
    for c in consts:
        assert 0.5 < abs(c) < 1.5


def test_embed_deterministic_and_seed_sensitive():
    a = embed(cyclic(4), 1, 11)
    b = embed(cyclic(4), 1, 11)
    c = embed(cyclic(4), 1, 12)
    assert a.gammas == b.gammas and a.hyper_coeffs == b.hyper_coeffs
    flat_a = [g for row in a.gammas for g in row] + [v for row in a.hyper_coeffs for v in row]
    flat_c = [g for row in c.gammas for g in row] + [v for row in c.hyper_coeffs for v in row]
    assert all(x != y for x, y in zip(flat_a, flat_c))


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_hyperplane_coefficients_independent(seed):
    e = embed(cyclic(4), 1, seed)
    rows = np.array([row[1:] for row in e.hyper_coeffs])
    if len(rows):
        _, rank = condition_and_rank(rows)
        assert rank == len(rows)


def test_level_peeling():
    e = embed(demo_system(), 3, 11)
    e2 = e.level(2)
    assert e2.k == 2
    assert e2.hyper_coeffs == e.hyper_coeffs[:2]
    assert all(row[:2] == full[:2] for row, full in zip(e2.gammas, e.gammas))
    with pytest.raises(ValueError):
        e.level(4)


def test_slice_to_zero_structure():
    e = embed(cyclic(4), 1, 11)
    sliced = slice_to_zero(e)
    assert sliced.nvars == 4 and len(sliced.polys) == 5
    # base rows lose the gamma terms: they equal the original system
    assert sliced.polys[:4] == cyclic(4).polys
    hyp = dict(sliced.polys[4].terms)
    assert hyp[(0, 0, 0, 0)] == e.hyper_coeffs[0][0]
    with pytest.raises(ValueError):
        slice_to_zero(embed(cyclic(3), 0, 5))
