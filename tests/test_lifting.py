"""Ties in the lifting: ``enumerate_cells`` raises TieDetected on any
tie or when the max-slack simplex gives up, and ``generic_lifting``, the
one relift loop, starts each of its callers over on the next lifting of
the seed."""

import multiprocessing as mp

import pytest

from nidpipe import cascade, cli, polyhedral
from nidpipe.polyhedral import (
    LiftedSupport,
    TieDetected,
    enumerate_cells,
    generic_lifting,
    lift_supports,
    mixed_volume,
    supports_of,
    with_origin,
)
from nidpipe.systems import cyclic, embed

CYCLIC4_DIM1 = embed(cyclic(4), 1, 7).system


def _cells(attempt):
    cells = []
    # the supports ``solve_start_system`` enumerates
    enumerate_cells(lift_supports(with_origin(supports_of(CYCLIC4_DIM1)), 7, attempt), cells.append)
    return cells


def _tie_after_one_cell_on_attempt_0(monkeypatch, module):
    """Make ``module.enumerate_cells`` emit one cell of lifting attempt 0
    and then raise TieDetected; later attempts enumerate as usual."""
    real = module.enumerate_cells

    def tied(lifted, emit):
        if lifted.attempt == 0:

            def first_only(cell):
                emit(cell)
                return False

            real(lifted, first_only)
            raise TieDetected("forced tie after one cell")
        return real(lifted, emit)

    monkeypatch.setattr(module, "enumerate_cells", tied)


def test_enumerate_cells_raises_on_a_degenerate_lifting():
    supports = supports_of(cyclic(3))
    zero = LiftedSupport(supports, tuple((0.0,) * len(pts) for pts in supports), seed=7)
    with pytest.raises(TieDetected):
        enumerate_cells(zero, lambda cell: None)


def test_generic_lifting_returns_the_first_lifting_without_a_tie():
    def search(lifted):
        if lifted.attempt < 2:
            raise TieDetected("forced")
        return 10 * lifted.attempt

    assert generic_lifting(supports_of(cyclic(3)), 7, search) == (20, 2)


def test_generic_lifting_gives_up_after_six_liftings():
    attempts = []

    def search(lifted):
        attempts.append(lifted.attempt)
        raise TieDetected("forced")

    with pytest.raises(RuntimeError, match="no generic lifting"):
        generic_lifting(supports_of(cyclic(3)), 7, search)
    assert attempts == list(range(6))


@pytest.mark.parametrize("p", [1, 2])
def test_tie_after_a_cell_restarts_the_start_system(monkeypatch, p):
    expected = _cells(1)
    _tie_after_one_cell_on_attempt_0(monkeypatch, cascade)
    log = []
    _, sols, stats = cascade.solve_start_system(CYCLIC4_DIM1, 7, p=p, cell_log=log)
    assert stats.mixed_volume == 20 and len(sols) == 20 and stats.start_paths == 20
    assert stats.lifting_attempt == 1
    assert log == expected and stats.cells == len(expected)
    assert mp.active_children() == []


def test_a_simplex_that_gives_up_restarts_the_start_system(monkeypatch):
    real = polyhedral._max_slack_simplex
    calls = []

    def gives_up_once(G, b):
        calls.append(len(b))
        return None if len(calls) == 1 else real(G, b)

    monkeypatch.setattr(polyhedral, "_max_slack_simplex", gives_up_once)
    _, sols, stats = cascade.solve_start_system(CYCLIC4_DIM1, 7, p=1)
    assert stats.mixed_volume == 20 and len(sols) == 20
    assert stats.lifting_attempt == 1


def test_tie_after_a_cell_restarts_the_mixed_volume(monkeypatch):
    _tie_after_one_cell_on_attempt_0(monkeypatch, polyhedral)
    assert mixed_volume(CYCLIC4_DIM1, 7) == 20


def test_tie_after_a_cell_restarts_the_cell_budget_run(monkeypatch, capsys):
    expected = _cells(1)
    _tie_after_one_cell_on_attempt_0(monkeypatch, cli)
    args = ["bench", "cyclic", "--n", "4", "--dim", "1", "--max-cells", "1000", "--seed", "7"]
    assert cli.main(args) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert f"{len(expected)} cells, volume 20 in" in out
    assert "enumeration complete" in out
