"""Refining dimension-0 candidates, and the failure policy of the crews
that the cascade and the membership filter run."""

import numpy as np
import pytest

from nidpipe import cascade, cli, filtering
from nidpipe.blackbox import decompose
from nidpipe.filtering import MembershipIndeterminate, _refine_isolated
from nidpipe.systems import cyclic, demo_system
from nidpipe.tracker import Solution

NEAR = 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
CYCLIC4_DIM1 = ["bench", "cyclic", "--n", "4", "--dim", "1", "--seed", "7", "--tasks", "1"]


@pytest.mark.parametrize("t", [0.5, 0.3 + 0.2j, -1.2 + 0.7j, 2.0, 3.0 + 1.0j])
def test_refining_a_point_near_a_line_keeps_it_where_it_was(t):
    # (4, 2, 1, t) is a line of the demo system; the double-double polish
    # can slide a point on it far along the line
    start = np.array([4, 2, 1, t]) + NEAR
    refined, regular = _refine_isolated(demo_system(), Solution(start, 1e-7, 1e8))
    assert not regular
    assert np.linalg.norm(refined.coordinates - start) <= 1.0


def test_a_cascade_job_that_raises_fails_the_run(monkeypatch):
    real = cascade.track_paths
    calls = []

    def raises_after_the_continuation(h, x0):
        calls.append(len(x0))
        if len(calls) > 1:
            raise ValueError("injected cascade failure")
        return real(h, x0)

    monkeypatch.setattr(cascade, "track_paths", raises_after_the_continuation)
    with pytest.raises(RuntimeError, match="injected cascade failure"):
        decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert len(calls) == 2


def test_a_membership_test_that_raises_fails_the_run(monkeypatch, capsys):
    def raises(w, q):
        raise ValueError("injected membership failure")

    monkeypatch.setattr(filtering, "membership_test", raises)
    assert cli.main(CYCLIC4_DIM1) == cli.EXIT_SOLVE
    assert "injected membership failure" in capsys.readouterr().err


def test_an_indeterminate_membership_test_keeps_the_candidate(monkeypatch):
    def indeterminate(w, q):
        raise MembershipIndeterminate("injected: every path failed")

    monkeypatch.setattr(filtering, "membership_test", indeterminate)
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert rep.degrees == {1: 4}
    assert rep.suspects
