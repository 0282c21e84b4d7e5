"""Refining dimension-0 candidates, deduplicating points, the stacked
membership stages, and the failure policy of the cascade's crews and
the membership stages."""

import numpy as np
import pytest

from nidpipe import cascade, cli, filtering
from nidpipe.blackbox import decompose
from nidpipe.filtering import (
    MembershipIndeterminate,
    _dedup,
    _refine_isolated,
    membership_test,
    points_match,
)
from nidpipe.systems import cyclic, demo_system
from nidpipe.tracker import Solution

NEAR = 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
CYCLIC4_DIM1 = ["bench", "cyclic", "--n", "4", "--dim", "1", "--seed", "7", "--tasks", "1"]


@pytest.mark.parametrize("t", [0.5, 0.3 + 0.2j, -1.2 + 0.7j, 2.0, 3.0 + 1.0j])
def test_refining_a_point_near_a_line_keeps_it_where_it_was(t):
    # (4, 2, 1, t) is a line of the demo system; the double-double polish
    # can slide a point on it far along the line
    start = np.array([4, 2, 1, t]) + NEAR
    ((refined, regular),) = _refine_isolated(demo_system(), [Solution(start, 1e-7, 1e8)])
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
    def raises(w, queries):
        raise ValueError("injected membership failure")

    monkeypatch.setattr(filtering, "membership_verdicts", raises)
    assert cli.main(CYCLIC4_DIM1) == cli.EXIT_SOLVE
    assert "injected membership failure" in capsys.readouterr().err


def test_an_indeterminate_membership_test_keeps_the_candidate(monkeypatch):
    def indeterminate(w, queries):
        return [None] * len(queries), w.degree * len(queries)

    monkeypatch.setattr(filtering, "membership_verdicts", indeterminate)
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert rep.degrees == {1: 4}
    assert rep.suspects


def test_each_membership_stage_of_the_demo_is_one_batch_with_one_candidate_verdicts(monkeypatch):
    stages, batches = [], []
    verdicts, track_paths = filtering.membership_verdicts, filtering.track_paths

    def recorded(w, queries):
        out = verdicts(w, queries)
        stages.append((w, queries, out[0]))
        return out

    def counted(h, x0):
        batches.append(len(x0))
        return track_paths(h, x0)

    monkeypatch.setattr(filtering, "membership_verdicts", recorded)
    monkeypatch.setattr(filtering, "track_paths", counted)
    rep = decompose(demo_system(), top_dimension=3, seed=7, tasks=1)
    assert len(stages) == len(rep.filter_stages) == 6
    assert batches == [s.paths_tracked for s in rep.filter_stages]
    for w, queries, stacked in list(stages):
        alone = []
        for q in queries:
            try:
                alone.append(membership_test(w, q))
            except MembershipIndeterminate:
                alone.append(None)
        assert alone == stacked


def _scalar_dedup(points, n=None):
    kept = []
    for s in sorted(points, key=lambda s: s.residual):
        if not any(points_match(s.coordinates[:n], k.coordinates[:n]) for k in kept):
            kept.append(s)
    return kept


@pytest.mark.parametrize("seed", range(4))
def test_dedup_keeps_what_the_scalar_rule_keeps(seed):
    # clusters around centers of very different sizes, spread around the
    # matching tolerance, so some points merge and some do not
    rng = np.random.default_rng(seed)
    points = []
    for center in rng.normal(size=(8, 3)) * 10.0 ** rng.integers(-2, 4, size=(8, 1)):
        scale = max(1.0, np.max(np.abs(center)))
        for _ in range(6):
            jitter = rng.normal(size=3) + 1j * rng.normal(size=3)
            coords = center + jitter * scale * 10.0 ** rng.uniform(-9, -5)
            points.append(Solution(coords, float(rng.uniform(0, 1e-10)), 1.0))
    for n in (None, 2):
        kept = _dedup(points, n)
        assert [id(s) for s in kept] == [id(s) for s in _scalar_dedup(points, n)]
        assert 8 < len(kept) < len(points)
